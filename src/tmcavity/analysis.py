"""Scalar diagnostics, conversion-kernel Schmidt analysis, and unit scaling.

The central figure of merit is the unconverted signal energy W_out, the
integral of |S_out|^2 over the window. Selectivity is quantified by driving
the chosen model with an orthonormal input basis in one batched pass,
assembling the linear map from input coefficients to the converted-channel
output (final stored amplitude plus whatever already leaked out), and
reading the singular value spectrum: a rank-1 map converts one mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cavity import CavityParams, CavityTrajectory, _integrate, _leak, simulate
from .errors import (
    GridMismatchError,
    InstabilityError,
    NonOrthonormalBasisError,
    UndefinedResidualError,
)
from .modes import ORTHONORMALITY_TOL, optimal_input_mode
from .signals import TemporalSignal, normalize, quadrature_weights

SPEED_OF_LIGHT = 299792458.0  # m/s

# A trajectory's W_out is considered settled when the last tenth of the
# window adds less than this fraction of the total.
PLATEAU_TAIL_FRACTION = 1e-3


@dataclass(frozen=True)
class UnconvertedEnergy:
    """W_out together with a plateau diagnostic.

    ``tail_fraction`` is the share contributed by the last 10 percent of
    the window; ``plateaued`` flags whether it is negligible, i.e. whether
    the window was long enough for W_out to have settled.
    """

    value: float
    tail_fraction: float
    plateaued: bool


def unconverted_energy(traj: CavityTrajectory) -> UnconvertedEnergy:
    """Integrated |S_out|^2 over the trajectory window; inf once it overflows."""
    w = quadrature_weights(traj.grid)
    with np.errstate(over="ignore"):  # |S_out| past 1.3e154 squares to inf
        density = w * np.abs(traj._fields()[0]) ** 2
    total = float(density.sum())
    tail_start = traj.grid.n_samples - max(traj.grid.n_samples // 10, 1)
    tail = float(density[tail_start:].sum())
    tail_fraction = tail / total if total > 0.0 else 0.0
    return UnconvertedEnergy(
        value=total,
        tail_fraction=tail_fraction,
        plateaued=tail_fraction < PLATEAU_TAIL_FRACTION,
    )


def conservation_residual(traj: CavityTrajectory) -> float:
    """Relative photon-number imbalance of a trajectory.

    With no internal loss the input energy must equal the energy still in
    the cavity plus everything that left through the two output channels;
    the nonlinear exchange terms cancel pairwise. Internal loss makes the
    returned value strictly positive. Only the full model stores photons
    in S; a one-band model's S is a pass-through, so it counts C alone.
    An output or stored energy that overflows makes the residual inf; a
    zero or overflowing input energy raises :class:`UndefinedResidualError`.
    """
    w = quadrature_weights(traj.grid)
    s_out, c_out = traj._fields()
    with np.errstate(over="ignore"):  # an amplitude past 1.3e154 squares to inf
        e_in = float((w * np.abs(traj.S_in.values) ** 2).sum())
        if e_in <= 0.0:
            raise UndefinedResidualError("zero input energy")
        if not math.isfinite(e_in):
            raise UndefinedResidualError("input energy overflows")
        e_out = float((w * (np.abs(s_out) ** 2 + np.abs(c_out) ** 2)).sum())
        stored = abs(traj.C.values[-1]) ** 2
        if traj.model == "full":
            stored += abs(traj.S.values[-1]) ** 2
    return abs(e_in - (stored + e_out)) / e_in


@dataclass(frozen=True, eq=False)
class SchmidtReport:
    """Singular-value decomposition of the input-to-converted-channel map.

    ``response_matrix`` stacks, per basis mode, the final stored amplitude
    on top of the quadrature-weighted leaked converted field, so the squared
    column norm is that mode's converted energy. ``conversion_efficiencies``
    are the squared singular values: converted energy per Schmidt mode under
    unit-energy input. ``input_modes`` holds the right singular vectors
    mapped back to ``(m, n_samples)`` rows on the control's grid, dominant
    first; they are orthonormal because the basis is and ``vh`` is unitary.
    Each mode's phase is fixed so that its largest-magnitude basis
    coefficient is real and positive (the first such on a tie).
    """

    singular_values: np.ndarray
    conversion_efficiencies: np.ndarray
    input_modes: np.ndarray
    schmidt_number: float
    response_matrix: np.ndarray

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=float)
        if np.any(sv < 0.0) or np.any(np.diff(sv) > 0.0):
            raise ValueError("singular values must be nonnegative and descending")
        if self.schmidt_number < 1.0:
            raise ValueError(f"schmidt_number must be >= 1, got {self.schmidt_number}")


def green_kernel(
    params: CavityParams,
    control: TemporalSignal,
    basis: np.ndarray,
    model: str = "full",
) -> SchmidtReport:
    """Assemble and decompose the conversion kernel over an input basis.

    ``basis`` is an ``(m, n_samples)`` array, m >= 2, of modes sampled on
    ``control.grid``, as :func:`polynomial_family` returns them. Its rows
    must be trapezoid-orthonormal there, so that column norms are physical
    energies, or :class:`NonOrthonormalBasisError` is raised; any other
    shape raises :class:`GridMismatchError`. Rows carry no grid: rows from
    a shifted window with the same dt and sample count read as samples on
    the control's grid, and a different dt fails the orthonormality check.
    All modes run in one batched pass. The SVD is taken of the kernel's
    ``(m, m)`` QR factor R, factored by row blocks (see :func:`_r_factor`),
    which has the kernel's singular values and right vectors. The dominant
    right singular vector is the best-converting input within the basis
    span. The closed form drops the slow decay, so nothing
    leaks and its kernel is exactly rank 1.
    """
    grid = control.grid
    basis = np.ascontiguousarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[1] != grid.n_samples:
        raise GridMismatchError(
            f"basis must be (m, {grid.n_samples}) samples, got {basis.shape}"
        )
    if len(basis) < 2:
        raise ValueError("basis must contain at least 2 modes")
    # For b = x + i y, conj(b_j) b_k = x_j x_k + y_j y_k + i (x_j y_k - y_j x_k):
    # one real product of the sqrt(w)-weighted rows [x; y] with themselves
    # (a syrk) holds the Gram; the rows take as many bytes as the basis.
    m = len(basis)
    with np.errstate(over="ignore", invalid="ignore"):  # bad rows fail the check
        rows = np.concatenate((basis.real, basis.imag))
        rows *= np.sqrt(quadrature_weights(grid))
        prod = rows @ rows.T
        del rows
        re = prod[:m, :m] + prod[m:, m:]
        re[np.diag_indices(m)] -= 1.0
        worst = float(np.hypot(re, prod[:m, m:] - prod[m:, :m]).max())
    if not worst < ORTHONORMALITY_TOL:  # also rejects NaN
        raise NonOrthonormalBasisError(
            f"pairwise inner products deviate from identity by {worst:.3e}"
        )
    states = _integrate(params, model, control, basis)
    matrix = np.empty((grid.n_samples + 1, m), complex, order="F")
    matrix[1:] = states[-1].T
    del states
    matrix[0] = matrix[-1]
    matrix[1:] *= _leak(params, model)
    matrix[1:] *= np.sqrt(quadrature_weights(grid))[:, None]

    # matrix = Q R with orthonormal Q, so R has its singular values and
    # right vectors; the (n + 1, m) left vectors are never formed
    sv, vh = np.linalg.svd(_r_factor(matrix))[1:]
    # the SVD leaves each right vector's phase free: fix it by the rule
    # documented on SchmidtReport.input_modes
    top = vh[np.arange(m), np.argmax(np.abs(vh), axis=1)]
    vh *= (np.abs(top) / top)[:, None]
    efficiencies = sv**2
    if sv[0] > 0.0:
        # scale-free, so no power of sv can overflow; >= 1 by Cauchy-Schwarz,
        # and a rank-1 kernel can round to 1 ulp below.
        p = (sv / sv[0]) ** 2
        schmidt = max(1.0, float(p.sum() ** 2 / (p**2).sum()))
    else:
        schmidt = 1.0  # no conversion channel at all

    return SchmidtReport(
        singular_values=sv,
        conversion_efficiencies=efficiencies,
        input_modes=vh.conj() @ basis,
        schmidt_number=schmidt,
        response_matrix=matrix,
    )


_QR_ROWS = 1024


def _r_factor(a):
    """The R of a = Q R, by row blocks (TSQR): one QR per block of
    ``max(_QR_ROWS, 4 m)`` rows, then one of the stacked block R's. Each QR
    copies only its block, where one ``np.linalg.qr`` of ``a`` copies it
    whole. The R is that of one QR up to rounding and a unit phase per row,
    which leaves its singular values and right vectors unchanged."""
    step = max(_QR_ROWS, 4 * a.shape[1])
    rs = [np.linalg.qr(a[k : k + step], mode="r") for k in range(0, len(a), step)]
    return rs[0] if len(rs) == 1 else np.linalg.qr(np.concatenate(rs), mode="r")


@dataclass(frozen=True)
class AlphaScanResult:
    """Outcome of a coupling-strength sweep with per-point matched inputs."""

    alphas: tuple[float, ...]
    w_out: tuple[float, ...]
    diverged: tuple[bool, ...]
    best_alpha: float
    best_w_out: float


def scan_alpha(
    alpha_grid: Sequence[float],
    *,
    gamma_s: float,
    gamma_c: float,
    control: TemporalSignal,
    kappa_s: float = 0.0,
    kappa_c: float = 0.0,
    model: str = "full",
) -> AlphaScanResult:
    """Sweep the coupling strength, re-deriving the matched input each time.

    The matched input depends on alpha through f_s, so it is rebuilt (and
    unit-normalized on the grid) per point before the run. A point whose run
    raises :class:`InstabilityError` or whose W_out is negative or not finite
    diverged: it is recorded as NaN and left out of the argmin; ties break
    toward smaller alpha. The closed form's W_out is 1 - |C(end)|^2 (lossless
    balance), which goes negative once the grid no longer resolves exp(f_s eps).
    """
    alphas = [float(a) for a in alpha_grid]
    if len(alphas) < 3:
        raise ValueError("alpha grid needs at least 3 points")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be strictly ascending")

    w_list: list[float] = []
    for a in alphas:
        params = CavityParams(
            gamma_s=gamma_s, gamma_c=gamma_c, alpha=a,
            kappa_s=kappa_s, kappa_c=kappa_c,
        )
        mode = normalize(optimal_input_mode(params, control))
        try:
            traj = simulate(params, control, mode, model)
            w = (
                1.0 - abs(traj.C.values[-1]) ** 2
                if model == "analytic"
                else unconverted_energy(traj).value
            )
        except InstabilityError:
            w = math.nan
        w_list.append(w if 0.0 <= w < math.inf else math.nan)

    finite = [i for i, w in enumerate(w_list) if math.isfinite(w)]
    if not finite:
        raise InstabilityError("every scan point diverged")
    best = min(finite, key=w_list.__getitem__)
    return AlphaScanResult(
        alphas=tuple(alphas),
        w_out=tuple(w_list),
        diverged=tuple(math.isnan(w) for w in w_list),
        best_alpha=alphas[best],
        best_w_out=w_list[best],
    )


@dataclass(frozen=True)
class PhysicalUnitsReport:
    """Dimensionless cavity rates translated into laboratory numbers."""

    unit_time: float
    omega_s: float
    omega_c: float
    rate_s: float
    rate_c: float
    lifetime_s: float
    lifetime_c: float
    Q_s: float
    Q_c: float


def physical_units(
    unit_time: float,
    lambda_s: float,
    lambda_c: float,
    params: CavityParams,
) -> PhysicalUnitsReport:
    """Convert dimensionless out-coupling rates to SI rates and Q factors.

    ``unit_time`` is the physical duration of one simulation time unit in
    seconds; carrier wavelengths are in meters. Q_j = omega_j / (2 rate_j)
    relates the carrier angular frequency to the field decay rate.
    """
    if unit_time <= 0 or lambda_s <= 0 or lambda_c <= 0:
        raise ValueError("unit_time and wavelengths must be positive")
    rate_s = params.gamma_s / unit_time
    rate_c = params.gamma_c / unit_time
    if rate_c <= 0:
        raise ValueError("gamma_c must be positive to report converted-band units")
    omega_s = 2.0 * math.pi * SPEED_OF_LIGHT / lambda_s
    omega_c = 2.0 * math.pi * SPEED_OF_LIGHT / lambda_c
    return PhysicalUnitsReport(
        unit_time=unit_time,
        omega_s=omega_s,
        omega_c=omega_c,
        rate_s=rate_s,
        rate_c=rate_c,
        lifetime_s=1.0 / rate_s,
        lifetime_c=1.0 / rate_c,
        Q_s=omega_s / (2.0 * rate_s),
        Q_c=omega_c / (2.0 * rate_c),
    )
