"""Construction of control pulses, mode bases, and orthonormal families.

The storage process has a single preferred input shape for a given control
envelope: the conjugated control weighted by the exponential of the
accumulated pulse area. Everything orthogonal to it passes through the
cavity unconverted, so experiments need both that mode and families of
modes orthogonal to it; this module builds them all on the shared grid.
Single modes are :class:`TemporalSignal` objects; a family is a plain
``(m, n_samples)`` complex array whose rows are samples on the grid.
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
    cumulative_integral,
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
    eps = cumulative_integral(control)
    if fs == 0.0:
        scale = 1.0
    else:
        scale = math.sqrt(2.0 * fs / -math.expm1(-2.0 * fs))
    vals = scale * np.conj(control.values) * np.exp(fs * (eps - 1.0))
    return TemporalSignal(control.grid, vals)


def gram_schmidt_family(seed: TemporalSignal, raw_basis: np.ndarray) -> np.ndarray:
    """Orthonormal family starting from ``seed``, by a weighted QR.

    ``raw_basis`` is a ``(count, n_samples)`` array of raw vectors; the
    family is returned the same way, as a C-contiguous
    ``(count + 1, n_samples)`` complex array whose row k is mode k on the
    seed's grid. Mode 0 is the seed itself, which must be unit norm on its
    grid to within :data:`ORTHONORMALITY_TOL`; mode k + 1 is the part of raw
    vector k orthogonal to the seed and to every earlier raw vector,
    normalized and phased so that its overlap with raw vector k is real and
    positive. This is Gram-Schmidt computed as one Householder QR of the
    quadrature-weighted vectors, so the rows are orthonormal by
    construction. A raw vector whose post-projection norm (the R diagonal)
    falls below 1e-8, or is NaN, raises :class:`DegenerateBasisError` naming
    its index.
    """
    seed_err = abs(inner_product(seed, seed).real - 1.0)
    if not seed_err < ORTHONORMALITY_TOL:
        raise NonOrthonormalBasisError(
            f"seed must be unit norm (energy off by {seed_err:.3e}); "
            "normalize it first"
        )
    sqw = np.sqrt(quadrature_weights(seed.grid))
    with np.errstate(over="ignore", invalid="ignore"):
        q, r = np.linalg.qr((np.vstack((seed.values, raw_basis)) * sqw).T)
    # A reduced QR has min(n_samples, count + 1) columns; any raw vector
    # beyond that is necessarily dependent and keeps a zero norm here. A
    # non-finite raw vector gets a NaN norm, which fails the test too.
    norms = np.zeros(len(raw_basis) + 1)
    norms[: len(r)] = np.abs(np.diagonal(r))
    short = np.flatnonzero(~(norms[1:] >= 1e-8))
    if short.size:
        raise DegenerateBasisError(
            f"raw vector {short[0]} is linearly dependent on the family "
            f"(post-projection norm {norms[short[0] + 1]:.3e})"
        )
    q *= np.diagonal(r) / norms
    q /= sqw[:, None]
    q[:, 0] = seed.values
    return np.ascontiguousarray(q.T)


def polynomial_raw_basis(seed: TemporalSignal, count: int, center: float) -> np.ndarray:
    """Raw vectors (t - center)^k * seed for k = 1..count, as ``(count, n)`` rows.

    Feeding these to :func:`gram_schmidt_family` yields an orthogonal family
    that shares the seed's support, with mode k carrying k sign changes,
    qualitatively a Hermite-Gauss ladder built on the seed envelope. Needs
    no shape parameters beyond the expansion center; a row that overflows
    raises :class:`DegenerateBasisError`.
    """
    u = seed.grid.times - center
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.cumprod(np.broadcast_to(u, (count, len(u))), axis=0) * seed.values
    bad = np.flatnonzero(~np.isfinite(raw).all(axis=1))
    if bad.size:
        raise DegenerateBasisError(f"raw vector {bad[0]} overflows double precision")
    return raw


def _require_margin(center, grid, margin, what):
    left = center - grid.t_start
    right = grid.t_end - center
    if left < margin or right < margin:
        raise WindowClippingError(
            f"{what} centered at {center} needs {margin:.3g} of margin inside "
            f"[{grid.t_start}, {grid.t_end}], has ({left:.3g}, {right:.3g})"
        )
