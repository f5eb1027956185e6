"""Inverse problem: shape the control so a chosen input mode is stored.

Storing an input completely means the reflected signal output vanishes,
which ties the instantaneous coupling K(t) = f_s |Omega(t)|^2 to the target
envelope through the impedance matching balance

    dK/dt / (2 K) + K = (dS_in/dt) / S_in.

Its solution, regularized by the small ratio q between the target intensity
and the control intensity at the start time, is

    K(t) = f_s |S_in(t)|^2 / (q + 2 f_s Integral_t_start^t |S_in|^2 dt'),

and the control magnitude follows as sqrt(K / f_s). The control phase
cancels the target's phase up to one global constant, so targets with
structured phase are stored just as well. Squared occurrences of the
target are interpreted as squared magnitudes throughout; the phase is
handled separately by the explicit phase rule.
"""

from __future__ import annotations

import numpy as np

from .cavity import CavityParams
from .errors import InvalidRegularizationError, UnsupportedInputError
from .signals import TemporalSignal, cumulative_integral, require_same_grid

# Below this fraction of the peak amplitude the target phase is taken as 0;
# arg is undefined at exact nodes and the magnitude formula is continuous
# through them.
PHASE_FLOOR_REL = 1e-12

# Residuals are evaluated only where the target is meaningfully supported.
SUPPORT_FLOOR_REL = 0.05


def design_control(
    s_in: TemporalSignal, f_s: float, q: float, theta: float = 0.0
) -> TemporalSignal:
    """Control envelope whose coupling history f_s |Omega|^2 is K(t) above.

    ``s_in`` is the unit-norm target, whose running integral starts at its
    grid start; ``f_s`` is ``CavityParams.f_s`` of the cavity to be driven
    (``ValueError`` unless > 0). ``q`` > 0 sets the control's arbitrary
    early shape before the target rises (:class:`InvalidRegularizationError`
    otherwise), and ``theta`` is the free global control phase.

    The denominator of K starts at q and grows to q + 2 f_s for a unit-norm
    target, so K never blows up; where the target vanishes, so does the
    control. Magnitude sqrt(K / f_s); phase exp(i theta) * exp(-i arg S_in).
    Not renormalized: the envelope's energy depends (logarithmically) on q,
    and the simulation is meant to be driven with exactly this shape at the
    same coupling strength that produced f_s.
    """
    if q <= 0:
        raise InvalidRegularizationError(f"q must be > 0, got {q}")
    if f_s <= 0:
        raise ValueError(f"f_s must be > 0, got {f_s}")
    s_vals = s_in.values
    denominator = q + 2.0 * f_s * cumulative_integral(s_in)
    mag = np.sqrt(np.abs(s_vals) ** 2 / denominator)
    floor = PHASE_FLOOR_REL * float(np.abs(s_vals).max())
    phase = np.where(np.abs(s_vals) > floor, np.angle(s_vals), 0.0)
    vals = np.exp(1j * theta) * np.exp(-1j * phase) * mag
    return TemporalSignal(s_in.grid, vals)


def impedance_residual(
    control: TemporalSignal,
    s_in: TemporalSignal,
    params: CavityParams,
) -> float:
    """Worst-case impedance matching defect of a control against a target.

    Evaluates |dK/dt / (2K) + K - (dS_in/dt) / S_in| with central
    differences over the region where the target exceeds 5 percent of its
    peak amplitude (endpoints excluded). Zero means the control stores the
    target perfectly in the reduced picture; order-one values mean the
    pairing reflects a large fraction of the input.
    """
    grid = require_same_grid(control, s_in)
    k = params.f_s * np.abs(control.values) ** 2
    s_vals = s_in.values
    amax = float(np.abs(s_vals).max())
    if amax == 0.0:
        raise UnsupportedInputError("target signal is identically zero")
    idx = np.flatnonzero(np.abs(s_vals) > SUPPORT_FLOOR_REL * amax)
    idx = idx[(idx > 0) & (idx < grid.n_samples - 1)]
    if idx.size == 0:
        raise UnsupportedInputError(
            "target has no interior samples above the support floor"
        )
    two_dt = 2.0 * grid.dt
    dk = (k[idx + 1] - k[idx - 1]) / two_dt
    ds = (s_vals[idx + 1] - s_vals[idx - 1]) / two_dt
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = np.abs(dk / (2.0 * k[idx]) + k[idx] - ds / s_vals[idx])
    resid = np.where(np.isfinite(resid), resid, np.inf)
    return float(resid.max())
