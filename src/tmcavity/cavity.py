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

where eps(t) is the accumulated control pulse area Integral |Omega|^2; it
is evaluated with shifted exponents and cannot overflow. All three levels
are implemented here, and the closed form is the integrators' test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError
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
    bad = np.flatnonzero(~np.isfinite(arrays).all(axis=0))
    if bad.size:
        k = int(bad[0])
        raise InstabilityError(
            f"integration diverged: first non-finite amplitude at sample {k} "
            f"(t = {grid.times[k]:.6g}); reduce dt or the fastest rate"
        )


def _full_rhs(params):
    gts, gtc = params.gamma_tilde_s, params.gamma_tilde_c
    r2gs, ia = math.sqrt(2.0 * params.gamma_s), 1j * params.alpha
    return lambda x, o, f: np.array(
        (ia * o.conj() * x[1] - gts * x[0] + r2gs * f, ia * o * x[0] - gtc * x[1])
    )


def _reduced_rhs(params):
    fs, gtc, igs = params.f_s, params.gamma_tilde_c, 1j * params.g_s
    return lambda x, o, f: (
        (-fs * (o.real * o.real + o.imag * o.imag) - gtc) * x + igs * o * f
    )


_STEP_BLOCK = 1024


def _step_maps(rhs, dim, dt, control, drives):
    """Fixed RK4 steps of the whole window as affine maps x -> M x + V.

    ``rhs(x, o, f)`` returns the derivatives of the ``dim`` amplitudes
    ``x[i]`` under control ``o`` and drive ``f`` as one array. ``drives``
    is an ``(m, n_samples)`` array of signal-band drives. Stepping the unit
    vectors with zero drive gives the columns of M, and zero with drive row
    j gives V_j; drives are linearly interpolated at the half steps. The
    steps are taken in blocks of _STEP_BLOCK, which bounds the RK4
    temporaries, into one ``(dim, dim + m, n_steps)`` array: M_k is
    ``[:, :dim, k]`` and V_k is ``[:, dim:, k]``.
    """
    x = np.eye(dim, dim + len(drives), dtype=complex)[:, :, None]
    om = control.values
    n_steps = len(om) - 1
    maps = np.empty(x.shape[:2] + (n_steps,), dtype=complex)
    for k0 in range(0, n_steps, _STEP_BLOCK):
        k1 = min(k0 + _STEP_BLOCK, n_steps)
        f = np.concatenate((np.zeros((dim, k1 - k0 + 1)), drives[:, k0 : k1 + 1]))
        o0, o1, f0, f1 = om[k0:k1], om[k0 + 1 : k1 + 1], f[:, :-1], f[:, 1:]
        oh, fh = 0.5 * (o0 + o1), 0.5 * (f0 + f1)
        d1 = rhs(x, o0, f0)
        d2 = rhs(x + 0.5 * dt * d1, oh, fh)
        d3 = rhs(x + 0.5 * dt * d2, oh, fh)
        d4 = rhs(x + dt * d3, o1, f1)
        maps[:, :, k0:k1] = x + dt / 6.0 * (d1 + 2.0 * (d2 + d3) + d4)
    return maps


def _apply(m, x):
    """Per-step products M_k X_k of ``(dim, dim, n)`` maps and ``(dim, c, n)`` states."""
    out = m[:, :1] * x[:1]
    for i in range(1, len(x)):
        out += m[:, i : i + 1] * x[i : i + 1]
    return out


def _affine_scan(m, v, x):
    """Write the states x_1..x_n of x_{k+1} = M_k x_k + V_k from x_0 = 0 into ``x``.

    ``m`` is ``(dim, dim, n)``, and ``v`` and ``x`` are ``(dim, c, n)``.
    Odd-even reduction: each pair of steps composes into one map, the
    half-length problem gives every even state, and one more step from each
    gives the odd state after it. That is O(n) work in O(log n) numpy calls.
    """
    n = v.shape[2]
    x[:, :, 0] = v[:, :, 0]
    if n == 1:
        return
    h, odd_m, even = n // 2, m[:, :, 1::2], x[:, :, 1::2]
    pair_v = _apply(odd_m, v[:, :, : 2 * h : 2])
    pair_v += v[:, :, 1::2]
    _affine_scan(_apply(odd_m, m[:, :, : 2 * h : 2]), pair_v, even)
    x[:, :, 2::2] = _apply(m[:, :, 2::2], even[:, :, : (n - 1) // 2])
    x[:, :, 2::2] += v[:, :, 2::2]


def _integrate(rhs, dim, control, drives):
    """Amplitudes of an empty cavity under every drive row, ``(dim, m, n_samples)``.

    Solves X_{k+1} = M_k X_k + V_k over the window's step maps with
    :func:`_affine_scan`, on all drive rows at once. Raises
    :class:`InstabilityError` naming the first non-finite sample.
    """
    grid = control.grid
    x = np.zeros((dim, len(drives), grid.n_samples), dtype=complex)
    with np.errstate(all="ignore"):
        maps = _step_maps(rhs, dim, grid.dt, control, drives)
        m, v = maps[:, :dim], maps[:, dim:]
        driven = np.flatnonzero(v.any(axis=(0, 1)))
        if driven.size:
            # x is exactly 0 up to the first driven step; composing the
            # undriven steps before it could only give inf * 0 = NaN
            k0 = driven[0]
            _affine_scan(m[:, :, k0:], v[:, :, k0:], x[:, :, k0 + 1 :])
        bad = np.flatnonzero(~np.isfinite(x).all(axis=(0, 1)))
        # a composed map can overflow before the states it carries do: step
        # on from the last finite state, so the sample named is the one the
        # step-by-step recurrence reaches, or the run ends finite
        for k in range(bad[0] if bad.size else grid.n_samples, grid.n_samples):
            x[:, :, k] = _apply(m[:, :, k - 1 : k], x[:, :, k - 1 : k])[:, :, 0]
            x[:, :, k] += v[:, :, k - 1]
            if not np.isfinite(x[:, :, k]).all():
                break
    _check_finite(x.reshape(-1, grid.n_samples), grid)
    return x


_EXP_SPAN = 600.0  # closed-form exponent block; exp(600) is 1e47 below overflow


def _closed_form(params, control, drives, out):
    """Write the closed-form C(t) of every drive row into the columns of ``out``.

    A block's exponents are shifted by f_s eps at the sample before it (or
    at its first sample, after a jump of _EXP_SPAN), so none exceeds
    _EXP_SPAN; the running integral enters the next block scaled by
    exp(old - new shift) <= 1. Below f_s eps = _EXP_SPAN: the plain formula.
    """
    a = params.f_s * cumulative_integral(control).values.real
    out[0], k1, shift = 0.0, 1, 0.0
    while k1 < len(a):
        k0, prev = k1, shift
        shift = a[k0 - 1] if a[k0] - a[k0 - 1] < _EXP_SPAN else a[k0]
        k1 = max(np.searchsorted(a, shift + _EXP_SPAN), k0 + 1)
        at = slice(k0 - 1, k1)
        kernel = np.exp(a[at] - shift) * control.values[at] * drives[:, at]
        steps = 0.5 * control.grid.dt * (kernel[:, 1:] + kernel[:, :-1])
        if k0 > 1:
            steps[:, 0] += integ[:, -1] * math.exp(prev - shift)
        integ = np.cumsum(steps, axis=1, out=steps)
        np.multiply(1j * params.g_s * np.exp(shift - a[k0:k1]), integ, out=out[k0:k1].T)


def _converted_amplitudes(params, control, drives, model, out):
    """Write C(t) of every drive row into the columns of ``out`` in one pass.

    The integrators run all rows through one :func:`_integrate` over the
    shared step maps, so the maps are built once whatever m is.
    """
    if model == "analytic":
        return _closed_form(params, control, drives, out)
    rhs, dim = (_full_rhs, 2) if model == "full" else (_reduced_rhs, 1)
    out[:] = _integrate(rhs(params), dim, control, drives)[-1].T


def simulate_full(
    params: CavityParams,
    control: TemporalSignal,
    s_in: TemporalSignal,
) -> CavityTrajectory:
    """Integrate the full two-mode model with fixed-step 4th-order Runge-Kutta.

    Both amplitudes start from zero (empty cavity). The grid is the drives'
    common grid; drives on different grids raise :class:`GridMismatchError`.
    Drive envelopes are linearly interpolated at the half steps. Each
    step is an affine map (see :func:`_step_maps`), and the recurrence over
    the whole window is solved as one vectorized scan (see
    :func:`_affine_scan`), with no per-sample Python loop. At the default
    step (dt = 1e-3 against rates of order 10) the scheme is deeply inside
    the RK4 stability region and dt-halving tests resolve W_out below 1e-6.

    Raises :class:`InstabilityError` naming the first bad sample if the
    integration produces a non-finite amplitude.
    """
    g = require_same_grid(control, s_in)
    s_arr, c_arr = _integrate(_full_rhs(params), 2, control, s_in.values[None])[:, 0]
    return _assemble_trajectory(params, g, s_arr, c_arr, s_in, control)


def simulate_reduced(
    params: CavityParams,
    control: TemporalSignal,
    s_in: TemporalSignal,
) -> CavityTrajectory:
    """Integrate the adiabatically reduced model (fast signal band).

    Only C(t) is stepped with RK4, by the same scan as :func:`simulate_full`;
    S(t) is reconstructed algebraically from the instantaneous drive and C,
    and the outputs follow from the same input-output relations as the full
    model. The grid is the drives' common grid; drives on different grids
    raise :class:`GridMismatchError`.
    """
    g = require_same_grid(control, s_in)
    c_arr = _integrate(_reduced_rhs(params), 1, control, s_in.values[None])[0, 0]
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

    Returns the full C(t) history and its final value, finite for any f_s
    (see :func:`_closed_form`). Intended for the regime where the converted
    band barely leaks during the process (gamma_c + kappa_c ~ 0); the
    slow-decay term is dropped exactly as in the derivation. The running
    integrals share the trapezoid rule with the rest of the package, so
    orthogonality statements checked with
    :func:`tmcavity.signals.inner_product` carry over at machine precision.
    """
    grid = require_same_grid(control, s_in)
    c_vals = np.empty((grid.n_samples, 1), dtype=complex)
    _closed_form(params, control, s_in.values[None], c_vals)
    return TemporalSignal(grid, c_vals[:, 0]), complex(c_vals[-1, 0])


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
