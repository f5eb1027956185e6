"""Construction of control pulses, mode bases, and orthonormal families.

The storage process has a single preferred input shape for a given control
envelope: the conjugated control weighted by the exponential of the
accumulated pulse area. Everything orthogonal to it passes through the
cavity unconverted, so experiments need both that mode and families of
modes orthogonal to it; this module builds them all on the shared grid.
Single modes are :class:`TemporalSignal` objects; a family is a plain
``(m, n_samples)`` complex array whose rows are samples on the grid.
:func:`polynomial_family` builds the scenarios' family, polynomials times
the matched mode, by their three-term recurrence.
"""

from __future__ import annotations

import math
import numpy as np

from .cavity import CavityParams
from .errors import (
    DegenerateBasisError,
    NonOrthonormalBasisError,
    UnsupportedOrderError,
    WindowClippingError,
)
from .signals import (
    TemporalSignal,
    TimeGrid,
    inner_product,
    normalize,
    quadrature_weights,
)

# Amplitude sigma of the standard control Gaussian exp(-(t - center)^2).
CONTROL_SIGMA = 1.0 / math.sqrt(2.0)
# Window margin the control needs on each side of its center.
CONTROL_MARGIN = 4.0 * CONTROL_SIGMA

# Highest Hermite order kept; the three-term recurrence is well conditioned
# here and the classical support still fits comfortably in double precision.
MAX_HERMITE_ORDER = 20

ORTHONORMALITY_TOL = 1e-9


def gaussian_control(center: float, grid: TimeGrid) -> TemporalSignal:
    """Unit-energy Gaussian control envelope (2/pi)^(1/4) exp(-(t-center)^2).

    The peak amplitude is exactly (2/pi)^(1/4) and the continuum L2 norm is
    exactly 1; with the required margin of four amplitude sigmas on both
    sides, the sampled norm matches to better than 1e-8.
    """
    _require_margin(center, grid, CONTROL_MARGIN, "control pulse")
    t = grid.times
    vals = (2.0 / np.pi) ** 0.25 * np.exp(-((t - center) ** 2))
    return TemporalSignal(grid, vals.astype(complex))


def hermite_margin(n: int) -> float:
    """Window margin the HG_n mode needs: its classical support sqrt(2n + 1)."""
    return math.sqrt(2.0 * n + 1.0)


def hermite_gaussian(n: int, center: float, grid: TimeGrid) -> TemporalSignal:
    """Hermite-Gauss mode of order n, unit-normalized on the grid.

    Uses physicists' Hermite polynomials H_{k+1} = 2 u H_k - 2 k H_{k-1}
    with envelope exp(-u^2 / 2), u = t - center. The window must contain
    the classical support |u| <= sqrt(2n + 1); the sampled values are then
    renormalized so the grid energy is exactly 1 even when the far tails
    are clipped.
    """
    if n < 0 or n > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(
            f"order must be within [0, {MAX_HERMITE_ORDER}], got {n}"
        )
    _require_margin(center, grid, hermite_margin(n), f"HG_{n} mode")
    u = grid.times - center
    h_prev = np.ones_like(u)
    if n == 0:
        h = h_prev
    else:
        h = 2.0 * u
        for k in range(1, n):
            h, h_prev = 2.0 * u * h - 2.0 * k * h_prev, h
    scale = math.sqrt(2.0**n * math.sqrt(math.pi) * math.factorial(n))
    vals = h * np.exp(-0.5 * u**2) / scale
    return normalize(TemporalSignal(grid, vals.astype(complex)))


def optimal_input_mode(
    params: CavityParams, control: TemporalSignal
) -> TemporalSignal:
    """The one input shape the cavity stores completely (reduced model).

    Given a unit-norm control, returns

        N * conj(Omega(t)) * exp(f_s * (eps(t) - 1)),
        N = sqrt(2 f_s / (1 - exp(-2 f_s))),

    where eps is the accumulated control area, 1 for the whole pulse, so
    no factor overflows for any f_s. The late-time weighting skews the mode
    toward the trailing edge of the control; the analytic N gives unit L2
    norm to well within 1e-6 on the default grid. The f_s -> 0 limit
    returns conj(Omega) unchanged.
    """
    fs = params.f_s
    eps = control.pulse_area
    if fs == 0.0:
        scale = 1.0
    else:
        scale = math.sqrt(2.0 * fs / -math.expm1(-2.0 * fs))
    vals = scale * np.conj(control.values) * np.exp(fs * (eps - 1.0))
    return TemporalSignal(control.grid, vals)


def polynomial_family(seed: TemporalSignal, count: int, center: float) -> np.ndarray:
    """Orthonormal family p_k(t - center) * seed, k = 0..count, by recurrence.

    Returned as a C-contiguous ``(count + 1, n_samples)`` complex array
    whose row k is mode k on the seed's grid. Mode 0 is the seed, which
    must be unit norm to within :data:`ORTHONORMALITY_TOL`. The real p_k are
    orthonormal under the weight ``|seed|^2`` times the trapezoid weights,
    so the family spans the monomials (t - center)^k * seed, and mode k has
    k sign changes and a real, positive overlap with its monomial.

    The Stieltjes procedure builds them by the three-term recurrence
    p_{k+1} = ((u - a_k) p_k - b_k p_{k-1}) / b_{k+1}, u = t - center, in
    O(count * n_samples) real operations, forming no monomial. It keeps no
    explicit orthogonality and loses it at high degree: at mode 615 on the
    default 10001-sample grid, at mode 69 on 101 samples. One weighted Gram
    product checks the family, and the first mode off by
    :data:`ORTHONORMALITY_TOL` raises :class:`DegenerateBasisError`.
    """
    _require_unit_seed(seed)
    u = seed.grid.times - center
    sqw = np.sqrt(quadrature_weights(seed.grid))
    mag = np.abs(seed.values)
    root = mag * sqw
    # Row k holds p_k * |seed| * sqrt(w): bounded, and orthonormal under the
    # plain dot product. Row 0 is scaled to unit norm while the recurrence
    # runs and set back to the seed's own magnitude for the check. The dots
    # are numpy sums, not BLAS: OpenBLAS runs a dot of over 10000 samples on
    # worker threads, which then spin through the single-threaded work after.
    x = np.empty((count + 1, len(u)))
    x[0] = root / math.sqrt((root * root).sum())
    b = 0.0
    with np.errstate(all="ignore"):  # a collapsed b shows up in the check
        for k in range(count):
            q = u * x[k]
            if k:
                q -= b * x[k - 1]
            q -= (q * x[k]).sum() * x[k]
            b = math.sqrt((q * q).sum())
            np.divide(q, b, out=x[k + 1])
        x[0] = root
        gram = np.tril(x @ x.T)
    gram[np.diag_indices_from(gram)] -= 1.0
    gram[0, 0] = 0.0  # the seed's own norm was checked above
    worst = np.abs(gram).max(axis=1)
    bad = np.flatnonzero(~(worst < ORTHONORMALITY_TOL))
    if bad.size:
        raise DegenerateBasisError(
            f"polynomial mode {bad[0]} is not orthonormal to the earlier modes "
            f"(inner products off by {worst[bad[0]]:.3e}); use fewer modes "
            "or more samples"
        )
    # seed / |seed| part by part: a complex division by a subnormal overflows
    phase = np.zeros(len(u), complex)
    np.divide(seed.values.real, mag, out=phase.real, where=mag > 0.0)
    np.divide(seed.values.imag, mag, out=phase.imag, where=mag > 0.0)
    family = x * (phase / sqw)
    family[0] = seed.values
    return family


def _require_unit_seed(seed):
    seed_err = abs(inner_product(seed, seed).real - 1.0)
    if not seed_err < ORTHONORMALITY_TOL:
        raise NonOrthonormalBasisError(
            f"seed must be unit norm (energy off by {seed_err:.3e}); "
            "normalize it first"
        )


def _require_margin(center, grid, margin, what):
    left = center - grid.t_start
    right = grid.t_end - center
    if left < margin or right < margin:
        raise WindowClippingError(
            f"{what} centered at {center} needs {margin:.3g} of margin inside "
            f"[{grid.t_start}, {grid.t_end}], has ({left:.3g}, {right:.3g})"
        )
