"""Construction of control pulses, mode bases, and orthonormal families.

The storage process has a single preferred input shape for a given control
envelope: the conjugated control weighted by the exponential of the
accumulated pulse area. Everything orthogonal to it passes through the
cavity unconverted, so experiments need both that mode and families of
modes orthogonal to it; this module builds them all on the shared grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    _write_csv,
    cumulative_integral,
    inner_product,
    normalize,
)

# Amplitude sigma of the standard control Gaussian exp(-(t - center)^2).
CONTROL_SIGMA = 1.0 / math.sqrt(2.0)

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
    _require_margin(center, grid, 4.0 * CONTROL_SIGMA, "control pulse")
    t = grid.times
    vals = (2.0 / np.pi) ** 0.25 * np.exp(-((t - center) ** 2))
    return TemporalSignal(grid, vals.astype(complex))


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
    _require_margin(center, grid, math.sqrt(2.0 * n + 1.0), f"HG_{n} mode")
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

        N * conj(Omega(t)) * exp(f_s * eps(t)),
        N = sqrt(2 f_s / (exp(2 f_s) - 1)),

    where eps is the accumulated control area. The late-time weighting
    skews the mode toward the trailing edge of the control; the analytic
    N gives unit L2 norm to well within 1e-6 on the default grid. The
    f_s -> 0 limit returns conj(Omega) unchanged.
    """
    fs = params.f_s
    eps = cumulative_integral(control).values.real
    if fs == 0.0:
        scale = 1.0
    else:
        scale = math.sqrt(2.0 * fs / math.expm1(2.0 * fs))
    vals = scale * np.conj(control.values) * np.exp(fs * eps)
    return TemporalSignal(control.grid, vals)


@dataclass(frozen=True, eq=False)
class ModeFamily:
    """Ordered orthonormal set of signals on one grid.

    Construction verifies every pairwise inner product against the
    Kronecker delta at a 1e-9 tolerance.
    """

    grid: TimeGrid
    modes: tuple[TemporalSignal, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("mode family cannot be empty")
        for m in self.modes:
            if m.grid != self.grid:
                raise NonOrthonormalBasisError("family members on different grids")
        worst = 0.0
        for i, a in enumerate(self.modes):
            for j, b in enumerate(self.modes[i:], start=i):
                target = 1.0 if i == j else 0.0
                worst = max(worst, abs(inner_product(a, b) - target))
        if worst >= ORTHONORMALITY_TOL:
            raise NonOrthonormalBasisError(
                f"pairwise inner products deviate from identity by {worst:.3e}"
            )

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def __getitem__(self, idx: int) -> TemporalSignal:
        return self.modes[idx]


def gram_schmidt_family(
    seed: TemporalSignal,
    raw_basis: Sequence[TemporalSignal],
    count: int | None = None,
) -> ModeFamily:
    """Orthonormal family starting from ``seed``, by modified Gram-Schmidt.

    Mode 0 is the seed itself (which must already be unit norm on its grid);
    modes 1..count orthogonalize the raw vectors against all previous modes
    in order, with a second projection pass for numerical orthogonality.
    A raw vector whose post-projection norm falls below 1e-8 raises
    :class:`DegenerateBasisError` naming its index.
    """
    if count is None:
        count = len(raw_basis)
    if count > len(raw_basis):
        raise ValueError(f"count {count} exceeds raw basis size {len(raw_basis)}")
    seed_err = abs(inner_product(seed, seed).real - 1.0)
    if seed_err > 1e-8:
        raise NonOrthonormalBasisError(
            f"seed must be unit norm (energy off by {seed_err:.3e}); "
            "normalize it first"
        )
    modes = [seed]
    for i in range(count):
        v = raw_basis[i].values.copy()
        for _ in range(2):
            for m in modes:
                coeff = inner_product(m, TemporalSignal(seed.grid, v))
                v = v - coeff * m.values
        sig = TemporalSignal(seed.grid, v)
        residual = math.sqrt(max(inner_product(sig, sig).real, 0.0))
        if residual < 1e-8:
            raise DegenerateBasisError(
                f"raw vector {i} is linearly dependent on the family "
                f"(post-projection norm {residual:.3e})"
            )
        modes.append(normalize(sig))
    return ModeFamily(seed.grid, tuple(modes))


def polynomial_raw_basis(
    seed: TemporalSignal, count: int, center: float
) -> list[TemporalSignal]:
    """Raw vectors (t - center)^k * seed for k = 1..count.

    Feeding these to :func:`gram_schmidt_family` yields an orthogonal family
    that shares the seed's support, with mode k carrying k sign changes,
    qualitatively a Hermite-Gauss ladder built on the seed envelope. Needs
    no shape parameters beyond the expansion center.
    """
    u = seed.grid.times - center
    out = []
    power = np.ones_like(u)
    for _ in range(count):
        power = power * u
        out.append(TemporalSignal(seed.grid, power * seed.values))
    return out


def mode_family_to_csv(family: ModeFamily, path) -> None:
    """Write a family as ``t`` plus one re/im column pair per mode."""
    header = ["t"]
    columns = [family.grid.times]
    for k, mode in enumerate(family):
        header += [f"mode{k}_re", f"mode{k}_im"]
        columns += [mode.values.real, mode.values.imag]
    _write_csv(path, header, columns)


def _require_margin(center, grid, margin, what):
    left = center - grid.t_start
    right = grid.t_end - center
    if left < margin or right < margin:
        raise WindowClippingError(
            f"{what} centered at {center} needs {margin:.3g} of margin inside "
            f"[{grid.t_start}, {grid.t_end}], has ({left:.3g}, {right:.3g})"
        )
