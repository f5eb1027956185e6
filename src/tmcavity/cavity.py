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

where eps(t) is the accumulated control pulse area Integral |Omega|^2, and
nothing leaks (C_out = 0). :func:`simulate` runs any of the three levels,
named ``"full"``, ``"reduced"`` and ``"analytic"`` in :data:`MODELS`, and
returns the same :class:`CavityTrajectory` for each. All three are stepped
as affine maps and solved by one scan, and the closed form is the
integrators' test reference. The module does no file I/O: a trajectory
reaches disk as a table of ``config.SCENARIOS``, written by ``cli.run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError
from .signals import TemporalSignal, TimeGrid, require_same_grid


@dataclass(frozen=True)
class CavityParams:
    """Cavity rates and nonlinear coupling strength.

    ``gamma_s``/``gamma_c`` are the unitary out-coupling rates of the signal
    and converted bands, ``kappa_s``/``kappa_c`` the internal loss rates, and
    ``alpha`` the nonlinear strength (the control pulse energy is absorbed
    into it, the control envelope itself being square-normalized).
    Derived rates are recomputed on access, never stored; an alpha that
    makes f_s or g_s overflow is rejected with the other invalid fields.
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
        try:
            rates = (self.f_s, self.g_s)
        except OverflowError:  # alpha**2 past the float range
            rates = (math.inf,)
        if not all(map(math.isfinite, rates)):
            raise ValueError(f"f_s or g_s overflows at alpha = {self.alpha}")

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

    Holds only independent data: the intracavity amplitudes, echoes of the
    drive signals, and the parameters and name of the model that ran (see
    :data:`MODELS`). The output fields are computed from these on access,
    by the input-output relations of that model, so they hold pointwise.
    """

    grid: TimeGrid
    S: TemporalSignal
    C: TemporalSignal
    S_in: TemporalSignal
    control: TemporalSignal
    params: CavityParams
    model: str

    def _fields(self):
        """``(S_out, C_out)`` as plain sample arrays."""
        return _output_fields(
            self.params, self.model, self.S_in.values, self.S.values, self.C.values
        )

    @property
    def S_out(self) -> TemporalSignal:
        """Reflected signal field, -S_in + sqrt(2 gamma_s) S."""
        return TemporalSignal(self.grid, self._fields()[0])

    @property
    def C_out(self) -> TemporalSignal:
        """Leaked converted field, sqrt(2 gamma_c) C, or 0 for the closed form."""
        return TemporalSignal(self.grid, self._fields()[1])


# The step maps' scalar factors are complex: numpy would cast a float one to
# complex at every product, and the product is the same bits either way.
def _rk4(x, k, dt, out):
    """One RK4 step of a map entry, x + dt/6 (k1 + 2 (k2 + k3) + k4), into ``out``."""
    k1, k2, k3, k4 = k
    np.add(x, complex(dt / 6.0) * (k1 + (2 + 0j) * (k2 + k3) + k4), out=out)


def _stages(x, k1, rhs, dt, drive=None, k2=None):
    """Each entry's ``(x, (k1, k2, k3, k4))`` of one map column from its start
    ``x`` (0s and 1s), given k1 (and k2) and ``rhs(x, i, drive)`` at the half
    step (i = 1) or the step's end (i = 2). An entry from 0 adds no 0."""
    h2, dt = complex(0.5 * dt), complex(dt)

    def ahead(h, k):
        return [xi + h * ki if xi else h * ki for xi, ki in zip(x, k)]

    if k2 is None:
        k2 = rhs(ahead(h2, k1), 1, drive)
    k3 = rhs(ahead(h2, k2), 1, drive)
    k4 = rhs(ahead(dt, k3), 2, drive)
    return zip(x, zip(k1, k2, k3, k4))


def _full_rhs(params, control):
    """The full model's RK4 stages per map entry, for :func:`_step_maps`.

    The generator is [[-gt_s, c], [d, -gt_c]], c = i alpha conj(Omega) and
    d = i alpha Omega, and the drive sqrt(2 gamma_s) f enters S. A unit
    column's first stage is its generator column and forms no drive term;
    a drive column's is the drive alone, and its C is still 0 at the
    second. ``columns(k0, k1, rows)`` yields the stages over steps k0..k1-1
    of M's columns, then of one per drive row (f_k, f_k+1/2, f_k+1).
    """
    gts, gtc = complex(params.gamma_tilde_s), complex(params.gamma_tilde_c)
    r2gs, ia = complex(math.sqrt(2.0 * params.gamma_s)), 1j * params.alpha
    om, dt = control.values, control.grid.dt
    oh = 0.5 * (om[:-1] + om[1:])
    c, ch, d, dh = ia * om.conj(), ia * oh.conj(), ia * om, ia * oh
    decay_s, decay_c, zero = np.array([[-gts], [-gtc], [0.0]], dtype=complex)

    def columns(k0, k1, rows):
        now, end = slice(k0, k1), slice(k0 + 1, k1 + 1)
        cs, ds = (c[now], ch[now], c[end]), (d[now], dh[now], d[end])

        def rhs(x, i, drive):
            s = cs[i] * x[1] - gts * x[0]
            return (s if drive is None else s + drive[i]), ds[i] * x[0] - gtc * x[1]

        yield _stages((1, 0), (decay_s, ds[0]), rhs, dt)
        yield _stages((0, 1), (cs[0], decay_c), rhs, dt)
        for f in rows:
            drive = [r2gs * fi for fi in f]
            s2 = complex(0.5 * dt) * drive[0]
            k2 = drive[1] - gts * s2, ds[1] * s2
            yield _stages((0, 0), (drive[0], zero), rhs, dt, drive, k2)

    return columns


def _reduced_rhs(params, control):
    """The reduced model's RK4 stages per map entry, as :func:`_full_rhs`:
    the generator is the real a = -f_s |Omega|^2 - gt_c, and the drive
    g f = i g_s Omega f, so the unit column's first stage is a."""
    fs, gtc, igs = params.f_s, params.gamma_tilde_c, 1j * params.g_s
    om, dt = control.values, control.grid.dt
    oh = 0.5 * (om[:-1] + om[1:])
    # complex once here, not cast at every product
    a, ah = ((-fs * (o.real * o.real + o.imag * o.imag) - gtc) + 0j for o in (om, oh))
    g, gh = igs * om, igs * oh

    def columns(k0, k1, rows):
        now, end = slice(k0, k1), slice(k0 + 1, k1 + 1)
        as_, gs = (a[now], ah[now], a[end]), (g[now], gh[now], g[end])

        def rhs(x, i, drive):
            s = as_[i] * x[0]
            return (s if drive is None else s + drive[i],)

        yield _stages((1,), (as_[0],), rhs, dt)
        for f in rows:
            drive = [gi * fi for gi, fi in zip(gs, f)]
            yield _stages((0,), (drive[0],), rhs, dt, drive)

    return columns


_STEP_BLOCK = 2048


def _step_maps(columns, dim, control, drives, x):
    """Fixed RK4 steps of the whole window as affine maps x -> M x + V.

    ``columns`` holds a model's stage formulas, ``_full_rhs(params,
    control)`` with ``dim`` 2 or ``_reduced_rhs(params, control)`` with
    ``dim`` 1. ``drives`` is an ``(m, n_samples)`` complex array of
    signal-band drives, linearly interpolated at the half steps. Each entry
    of M (a unit column, undriven) and of a drive column (from 0) is one
    RK4 step of its own stage formulas. These leave out the terms on the start's
    exact zeros and ones, and keep every other term as stepping the unit
    vectors through the whole rhs computed it, in the same order, so the
    maps are the same bits as that stepping for finite control factors. M
    is returned as ``(dim, dim, n_steps)``, and V_k is written into slot
    k + 1 of the ``(dim, m, n_samples)`` state array ``x``, where
    :func:`_affine_scan` turns it into the state x_{k+1}; slot 0 is left
    as it was.

    A single run steps its drive, one row as a drive column. A kernel
    steps P and Q: a step is linear in the drive at its two ends, V_k =
    P_k f_k + Q_k f_{k+1}, so two or more rows step the unit drives with
    (start, half step, end) values (1, 1/2, 0) and (0, 1/2, 1) to P_k and
    Q_k. Each row's V agrees with stepping it alone to rounding; M is the
    same bits.

    The steps are taken in blocks of _STEP_BLOCK. Each entry is
    elementwise per step, so the block size cannot change a bit: it sets
    only the number of numpy calls and the size of the temporaries. 2048
    was the fastest of 1024 to 4096 for a three-model alpha sweep at 10001
    samples, on a 2-vCPU x86 host with 48 KB L1d and 2 MB L2 per core.
    """
    dt, n_steps = control.grid.dt, control.grid.n_samples - 1
    m = np.empty((dim, dim, n_steps), dtype=complex)
    v = x[:, :, 1:]
    for k0 in range(0, n_steps, _STEP_BLOCK):
        k1 = min(k0 + _STEP_BLOCK, n_steps)
        f0, f1 = drives[:, k0:k1], drives[:, k0 + 1 : k1 + 1]
        if len(drives) == 1:
            # 1-D rows: numpy rounds a one-element broadcast complex product
            # differently from any other, so (1,) by (1, 1) would change bits
            rows, driven = zip(f0, 0.5 * (f0 + f1), f1), v[:, :, k0:k1]
        else:
            rows = ((1.0, 0.5, 0.0), (0.0, 0.5, 1.0))
            driven = np.empty((dim, 2, k1 - k0), dtype=complex)
        for j, column in enumerate(columns(k0, k1, rows)):
            out = m[:, j, k0:k1] if j < dim else driven[:, j - dim]
            for i, (x0, k) in enumerate(column):
                _rk4(x0, k, dt, out[i])
        if len(drives) > 1:
            # V = P f_k + Q f_{k+1} per block: no (dim, m, n_steps) temporary,
            # and all rows at once, as a row at a time would round it apart
            np.multiply(driven[:, :1], f0, out=v[:, :, k0:k1])
            v[:, :, k0:k1] += driven[:, 1:] * f1
    return m


def _closed_form_maps(params, control, drives, x):
    """The closed form's trapezoid rule as steps C -> M C + V, returned and
    written into ``x`` as by :func:`_step_maps` with dim 1. With a = f_s eps,
    M_k = exp(a_k - a_{k+1}) and V_k = (i g_s dt / 2)(M_k Omega_k s_k +
    Omega_{k+1} s_{k+1}); a never decreases, so no factor exceeds 1 or can
    overflow, whatever f_s."""
    a = params.f_s * control.pulse_area
    m = np.exp(a[:-1] - a[1:])
    drive = 0.5j * params.g_s * control.grid.dt * control.values * drives
    np.multiply(m, drive[:, :-1], out=x[0, :, 1:])
    x[0, :, 1:] += drive[:, 1:]
    return m[None, None]


def _apply(m, x):
    """Per-step products M_k X_k of ``(dim, dim, n)`` maps and ``(dim, c, n)`` states."""
    out = m[:, :1] * x[:1]
    for i in range(1, len(x)):
        out += m[:, i : i + 1] * x[i : i + 1]
    return out


def _affine_scan(m, x):
    """Solve x_{k+1} = M_k x_k + V_k from x_0 = 0 in place: ``x`` holds
    V_0..V_{n-1} on entry and the states x_1..x_n on return.

    ``m`` is ``(dim, dim, n)`` and ``x`` is ``(dim, c, n)``. Odd-even
    reduction: each pair of steps composes into one map, whose drive
    M_odd V_even + V_odd replaces the odd slot; the half-length problem on
    the odd slots gives every even state, and one more step from each,
    M x_prev + V, gives the odd state after it. That is O(n) work in
    O(log n) numpy calls, and no copy of the drives.
    """
    n = x.shape[2]
    if n == 1:
        return
    h, odd_m = n // 2, m[:, :, 1::2]
    x[:, :, 1::2] += _apply(odd_m, x[:, :, : 2 * h : 2])
    _affine_scan(_apply(odd_m, m[:, :, : 2 * h : 2]), x[:, :, 1::2])
    x[:, :, 2::2] += _apply(m[:, :, 2::2], x[:, :, 1 : n - 1 : 2])


def _norms(a):
    """2-norms over the amplitude axis of ``(dim, ...)`` complex ``a``, without
    squaring, so denormal amplitudes do not underflow to 0."""
    out = np.abs(a[0])
    for row in a[1:]:
        np.hypot(out, np.abs(row), out=out)
    return out


MODELS = ("full", "reduced", "analytic")


def _integrate(params, model, control, drives):
    """Amplitudes of an empty cavity under every drive row, ``(dim, m, n_samples)``.

    ``model`` picks the steps: RK4 of the full (S, C) or reduced (C) model,
    or the closed form's trapezoid (C). Each writes the drives V_k into
    the state array and solves X_{k+1} = M_k X_k + V_k there with
    :func:`_affine_scan`, on all drive rows at once. The cavity is
    passive, so no state of a row can exceed the drive fed in so far,
    Sum_{j<k} |V_j|; :class:`InstabilityError` names the first sample that
    does, by more than 1e-9 of the row's whole-run sum (a non-finite state
    always does). A ``model`` not in :data:`MODELS` raises ``ValueError``.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    grid = control.grid
    dim = 2 if model == "full" else 1
    x = np.empty((dim, len(drives), grid.n_samples), dtype=complex)
    with np.errstate(all="ignore"):
        if model == "analytic":
            m = _closed_form_maps(params, control, drives, x)
        else:
            rhs = _full_rhs if model == "full" else _reduced_rhs
            m = _step_maps(rhs(params, control), dim, control, drives, x)
        v = x[:, :, 1:]
        bound = np.zeros((len(drives), grid.n_samples))
        np.cumsum(_norms(v), axis=1, out=bound[:, 1:])
        driven = np.flatnonzero(v.any(axis=(0, 1)))
        k0 = driven[0] if driven.size else v.shape[2]
        # x is exactly 0 up to the first driven step, where a drive may be
        # -0.0; composing the undriven steps could only give inf * 0 = NaN
        x[:, :, : k0 + 1] = 0.0
        if driven.size:
            _affine_scan(m[:, :, k0:], x[:, :, k0 + 1 :])
        del m
        bound += 1e-9 * bound[:, -1:]
        # capped, so no inf or NaN state passes where the drive sum is not finite
        np.fmin(bound, np.finfo(float).max, out=bound)
        bad = np.flatnonzero(~(_norms(x) <= bound).all(axis=0))
    if bad.size:
        raise _unstable(grid, int(bad[0]), "amplitude exceeds the drive fed in")
    return x


def _leak(params, model):
    """C_out per unit C, sqrt(2 gamma_c); the closed form drops gt_c, so 0."""
    return 0.0 if model == "analytic" else math.sqrt(2.0 * params.gamma_c)


def _output_fields(params, model, s_in, s, c):
    """The input-output relations on sample arrays, ``(S_out, C_out)``:
    S_out = -S_in + sqrt(2 gamma_s) S and C_out = :func:`_leak` * C."""
    return -s_in + np.sqrt(2.0 * params.gamma_s) * s, _leak(params, model) * c


def _unstable(grid, k, what):
    return InstabilityError(
        f"integration unstable: {what} at sample {k} (t = {grid.times[k]:.6g}); "
        "reduce dt or the fastest rate"
    )


def simulate(
    params: CavityParams,
    control: TemporalSignal,
    s_in: TemporalSignal,
    model: str = "full",
) -> CavityTrajectory:
    """Run one model of the cavity, named in :data:`MODELS`, from empty.

    ``"full"`` steps both amplitudes of the two-mode equations with
    fixed-step 4th-order Runge-Kutta; ``"reduced"`` steps only C(t) of the
    adiabatic reduction, and ``"analytic"`` the trapezoid rule of its closed
    form (see :func:`_closed_form_maps`), finite for any finite f_s. That
    rule is the one :func:`tmcavity.signals.inner_product` uses, so the
    closed form's orthogonality statements hold at machine precision. All
    three solve one vectorized scan (see :func:`_integrate`), with drive
    envelopes linearly interpolated at the half steps. That interpolation
    makes the RK4 runs second order in dt: at the default dt = 1e-3, the
    full model's W_out of the fig2 and fig4-hg0 runs is within 6e-8 of a
    16x finer run, and halving dt moves it by less than 1e-6. A step need
    not be inside RK4's stability region (f_s |Omega|^2 dt <= 2.785 on the
    one-band decay): a designed fig4-hg1 control starts at 37.5. The full
    model steps it stably there, but the reduced model returns W_out
    0.0059 against 0.00015 converged.

    The one-band models rebuild S(t) algebraically from the instantaneous
    drive and C. The closed form drops the slow gt_c decay, so nothing
    leaks: its C_out is 0. The grid is the drives' common grid; drives on
    different grids raise :class:`GridMismatchError`. A state that outgrows
    the drive fed in so far, as expansive RK4 steps make it, or an output
    field that overflows raises :class:`InstabilityError` naming the first
    such sample.
    """
    grid = require_same_grid(control, s_in)
    x = _integrate(params, model, control, s_in.values[None])[:, 0]
    # C keeps the passivity bound, but a huge rate can overflow a field
    # scaled from it: one-band S = (alpha / gt_s) C, C_out = sqrt(2 gamma_c) C
    with np.errstate(over="ignore", invalid="ignore"):
        if model == "full":
            s_arr, c_arr = x
        else:
            c_arr = x[0]
            s_arr = (
                1j * (params.alpha / params.gamma_tilde_s)
                * np.conj(control.values) * c_arr
                + np.sqrt(2.0 * params.gamma_s) / params.gamma_tilde_s * s_in.values
            )
        s_out, c_out = _output_fields(params, model, s_in.values, s_arr, c_arr)
    finite = np.isfinite(s_arr) & np.isfinite(s_out) & np.isfinite(c_out)
    if not finite.all():
        k = int(np.argmin(finite))
        fields = {"S": s_arr, "S_out": s_out, "C_out": c_out}
        name = next(n for n, f in fields.items() if not np.isfinite(f[k]))
        raise _unstable(grid, k, f"{name} overflows")
    return CavityTrajectory(
        grid=grid,
        S=TemporalSignal(grid, s_arr),
        C=TemporalSignal(grid, c_arr),
        S_in=s_in,
        control=control,
        params=params,
        model=model,
    )

