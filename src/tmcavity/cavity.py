"""Coupled-mode dynamics of a two-band frequency-converting cavity.

A signal-band intracavity amplitude S(t) and a converted-band amplitude C(t)
are coupled by an intracavity control envelope Omega(t) through a nonlinear
strength alpha. With unitary out-coupling rates gamma_s, gamma_c, internal
loss rates kappa_s, kappa_c, and total rates gt_s = gamma_s + kappa_s,
gt_c = gamma_c + kappa_c, the full model is

    dS/dt = i alpha conj(Omega) C - gt_s S + sqrt(2 gamma_s) S_in
    dC/dt = i alpha Omega S      - gt_c C

with input-output relations

    S_out = -S_in + sqrt(2 gamma_s) S,     C_out = sqrt(2 gamma_c) C

(no external drive enters the converted band). When gamma_s dominates every
other rate, S follows the drive adiabatically and the dynamics reduce to a
single equation for C,

    S     = i (alpha / gt_s) conj(Omega) C + sqrt(2 gamma_s / gt_s^2) S_in
    dC/dt = (-f_s |Omega|^2 - gt_c) C + i g_s Omega S_in

with f_s = alpha^2 / gt_s and g_s = alpha sqrt(2 gamma_s / gt_s^2). Dropping
the slow gt_c decay as well gives the closed form

    C(t) = i g_s exp(-f_s eps(t)) * Integral_0^t exp(f_s eps) Omega S_in dt'

where eps(t) is the accumulated control pulse area Integral |Omega|^2. All
three levels are implemented here; the closed form is the reference the
two integrators are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InstabilityError
from .signals import (
    TemporalSignal,
    TimeGrid,
    _write_csv,
    cumulative_integral,
    require_same_grid,
)


@dataclass(frozen=True)
class CavityParams:
    """Cavity rates and nonlinear coupling strength.

    ``gamma_s``/``gamma_c`` are the unitary out-coupling rates of the signal
    and converted bands, ``kappa_s``/``kappa_c`` the internal loss rates, and
    ``alpha`` the nonlinear strength (the control pulse energy is absorbed
    into it, the control envelope itself being square-normalized).
    Derived rates are recomputed on access, never stored.
    """

    gamma_s: float
    gamma_c: float
    alpha: float
    kappa_s: float = 0.0
    kappa_c: float = 0.0

    def __post_init__(self):
        for name in ("gamma_s", "gamma_c", "alpha", "kappa_s", "kappa_c"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.gamma_s <= 0:
            raise ValueError(f"gamma_s must be > 0, got {self.gamma_s}")
        for name in ("gamma_c", "kappa_s", "kappa_c"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def gamma_tilde_s(self) -> float:
        return self.gamma_s + self.kappa_s

    @property
    def gamma_tilde_c(self) -> float:
        return self.gamma_c + self.kappa_c

    @property
    def f_s(self) -> float:
        """Conversion exponent rate alpha^2 / (gamma_s + kappa_s)."""
        return self.alpha**2 / self.gamma_tilde_s

    @property
    def g_s(self) -> float:
        """Drive coefficient alpha * sqrt(2 gamma_s) / (gamma_s + kappa_s)."""
        return self.alpha * math.sqrt(2.0 * self.gamma_s) / self.gamma_tilde_s


@dataclass(frozen=True, eq=False)
class CavityTrajectory:
    """Time series of a single simulation run.

    Holds the intracavity amplitudes, both output fields, and echoes of the
    drive signals. The output fields satisfy the input-output relations
    pointwise by construction.
    """

    grid: TimeGrid
    S: TemporalSignal
    C: TemporalSignal
    S_out: TemporalSignal
    C_out: TemporalSignal
    S_in: TemporalSignal
    control: TemporalSignal


def _assemble_trajectory(params, grid, s_arr, c_arr, s_in, control):
    s_out = -s_in.values + np.sqrt(2.0 * params.gamma_s) * s_arr
    c_out = np.sqrt(2.0 * params.gamma_c) * c_arr
    return CavityTrajectory(
        grid=grid,
        S=TemporalSignal(grid, s_arr),
        C=TemporalSignal(grid, c_arr),
        S_out=TemporalSignal(grid, s_out),
        C_out=TemporalSignal(grid, c_out),
        S_in=s_in,
        control=control,
    )


def _check_finite(arrays, grid):
    finite = np.ones(grid.n_samples, dtype=bool)
    for arr in arrays:
        finite &= np.isfinite(arr)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise InstabilityError(
            f"integration diverged: first non-finite amplitude at sample {k} "
            f"(t = {grid.times[k]:.6g}); reduce dt or the fastest rate"
        )


def _resolve_grid(control, s_in, grid):
    common = require_same_grid(control, s_in)
    if grid is not None and grid != common:
        raise GridMismatchError(
            f"drive signals live on {common}, not the requested {grid}"
        )
    return common


def simulate_full(
    params: CavityParams,
    control: TemporalSignal,
    s_in: TemporalSignal,
    grid: TimeGrid | None = None,
) -> CavityTrajectory:
    """Integrate the full two-mode model with fixed-step 4th-order Runge-Kutta.

    Both amplitudes start from zero (empty cavity). Drive envelopes are
    sampled on the grid and linearly interpolated at the half steps. The
    scalar inner loop runs on native complex numbers; at the default step
    (dt = 1e-3 against rates of order 10) the scheme is deeply inside the
    RK4 stability region and dt-halving tests resolve W_out below 1e-6.

    Raises :class:`InstabilityError` naming the first bad sample if the
    integration produces a non-finite amplitude.
    """
    g = _resolve_grid(control, s_in, grid)
    n = g.n_samples
    dt = g.dt
    gts = float(params.gamma_tilde_s)
    gtc = float(params.gamma_tilde_c)
    r2gs = float(np.sqrt(2.0 * params.gamma_s))
    ia = 1j * float(params.alpha)
    om = control.values.tolist()
    si = s_in.values.tolist()

    s_arr = np.empty(n, dtype=complex)
    c_arr = np.empty(n, dtype=complex)
    s = 0j
    c = 0j
    s_arr[0] = s
    c_arr[0] = c
    h2 = 0.5 * dt
    h6 = dt / 6.0
    for k in range(n - 1):
        o0 = om[k]
        o1 = om[k + 1]
        oh = 0.5 * (o0 + o1)
        f0 = si[k]
        f1 = si[k + 1]
        fh = 0.5 * (f0 + f1)

        ds1 = ia * o0.conjugate() * c - gts * s + r2gs * f0
        dc1 = ia * o0 * s - gtc * c
        s2 = s + h2 * ds1
        c2 = c + h2 * dc1
        ds2 = ia * oh.conjugate() * c2 - gts * s2 + r2gs * fh
        dc2 = ia * oh * s2 - gtc * c2
        s3 = s + h2 * ds2
        c3 = c + h2 * dc2
        ds3 = ia * oh.conjugate() * c3 - gts * s3 + r2gs * fh
        dc3 = ia * oh * s3 - gtc * c3
        s4 = s + dt * ds3
        c4 = c + dt * dc3
        ds4 = ia * o1.conjugate() * c4 - gts * s4 + r2gs * f1
        dc4 = ia * o1 * s4 - gtc * c4

        s = s + h6 * (ds1 + 2.0 * (ds2 + ds3) + ds4)
        c = c + h6 * (dc1 + 2.0 * (dc2 + dc3) + dc4)
        s_arr[k + 1] = s
        c_arr[k + 1] = c

    _check_finite((s_arr, c_arr), g)
    return _assemble_trajectory(params, g, s_arr, c_arr, s_in, control)


def simulate_reduced(
    params: CavityParams,
    control: TemporalSignal,
    s_in: TemporalSignal,
    grid: TimeGrid | None = None,
) -> CavityTrajectory:
    """Integrate the adiabatically reduced model (fast signal band).

    Only C(t) is stepped with RK4; S(t) is reconstructed algebraically from
    the instantaneous drive and C, and the outputs follow from the same
    input-output relations as the full model.
    """
    g = _resolve_grid(control, s_in, grid)
    n = g.n_samples
    dt = g.dt
    gtc = float(params.gamma_tilde_c)
    fs = float(params.f_s)
    igs = 1j * float(params.g_s)
    om = control.values.tolist()
    si = s_in.values.tolist()

    c_arr = np.empty(n, dtype=complex)
    c = 0j
    c_arr[0] = c
    h2 = 0.5 * dt
    h6 = dt / 6.0
    for k in range(n - 1):
        o0 = om[k]
        o1 = om[k + 1]
        oh = 0.5 * (o0 + o1)
        f0 = si[k]
        f1 = si[k + 1]
        fh = 0.5 * (f0 + f1)
        a0 = -fs * (o0.real * o0.real + o0.imag * o0.imag) - gtc
        ah = -fs * (oh.real * oh.real + oh.imag * oh.imag) - gtc
        a1 = -fs * (o1.real * o1.real + o1.imag * o1.imag) - gtc

        dc1 = a0 * c + igs * o0 * f0
        dc2 = ah * (c + h2 * dc1) + igs * oh * fh
        dc3 = ah * (c + h2 * dc2) + igs * oh * fh
        dc4 = a1 * (c + dt * dc3) + igs * o1 * f1
        c = c + h6 * (dc1 + 2.0 * (dc2 + dc3) + dc4)
        c_arr[k + 1] = c

    _check_finite((c_arr,), g)
    s_arr = (
        1j * (params.alpha / params.gamma_tilde_s) * np.conj(control.values) * c_arr
        + np.sqrt(2.0 * params.gamma_s) / params.gamma_tilde_s * s_in.values
    )
    _check_finite((s_arr,), g)
    return _assemble_trajectory(params, g, s_arr, c_arr, s_in, control)


def analytic_conversion(
    params: CavityParams,
    control: TemporalSignal,
    s_in: TemporalSignal,
) -> tuple[TemporalSignal, complex]:
    """Closed-form converted amplitude of the reduced model without slow decay.

    Returns the full C(t) history and its final value. Intended for the
    regime where the converted band barely leaks during the process
    (gamma_c + kappa_c ~ 0); the slow-decay term is dropped exactly as in
    the derivation. The running integrals share the trapezoid rule with the
    rest of the package, so orthogonality statements checked with
    :func:`tmcavity.signals.inner_product` carry over at machine precision.
    """
    grid = require_same_grid(control, s_in)
    fs = params.f_s
    eps = cumulative_integral(control).values.real
    kernel = np.exp(fs * eps) * control.values * s_in.values
    integ = np.empty(grid.n_samples, dtype=complex)
    integ[0] = 0.0
    np.cumsum(0.5 * grid.dt * (kernel[1:] + kernel[:-1]), out=integ[1:])
    c_vals = 1j * params.g_s * np.exp(-fs * eps) * integ
    signal = TemporalSignal(grid, c_vals)
    return signal, complex(c_vals[-1])


def trajectory_to_csv(traj: CavityTrajectory, path) -> None:
    """Write a trajectory as one CSV row per sample at full precision."""
    header = ["t"]
    columns = [traj.grid.times]
    for name, sig in zip(
        ("S", "C", "Sout", "Cout"), (traj.S, traj.C, traj.S_out, traj.C_out)
    ):
        header += [f"{name}_re", f"{name}_im"]
        columns += [sig.values.real, sig.values.imag]
    header.append("control_abs")
    columns.append(np.abs(traj.control.values))
    _write_csv(path, header, columns)
