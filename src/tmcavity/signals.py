"""Uniform time grids, sampled complex envelopes, and trapezoid quadrature.

Every quantity in the toolkit lives on a shared uniform grid: envelopes are
plain complex samples, inner products and running integrals use the composite
trapezoid rule on the same sample points the integrators use, so post-hoc
energy bookkeeping is consistent with the dynamics to quadrature accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignalError, GridMismatchError

ZERO_NORM_FLOOR = 1e-300
_CSV_BLOCK = 256


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of the closed window [t_start, t_end].

    Sample k sits at exactly ``t_start + k * dt`` with
    ``dt = (t_end - t_start) / (n_samples - 1)``.
    """

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)


@dataclass(frozen=True, eq=False)
class TemporalSignal:
    """Complex envelope sampled on a :class:`TimeGrid`.

    Values are copied at construction and frozen (read-only array), so a
    signal never changes after it is built. All values must be finite.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_samples,):
            raise ValueError(
                f"expected {self.grid.n_samples} samples, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite sample at index {bad}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def require_same_grid(*signals: TemporalSignal) -> TimeGrid:
    """Return the common grid of the given signals, or raise."""
    grid = signals[0].grid
    for s in signals[1:]:
        if s.grid != grid:
            raise GridMismatchError(
                f"signals on different grids: {grid} vs {s.grid}"
            )
    return grid


def quadrature_weights(grid: TimeGrid) -> np.ndarray:
    """Composite trapezoid weights: dt everywhere, dt/2 at the endpoints."""
    w = np.full(grid.n_samples, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


def inner_product(a: TemporalSignal, b: TemporalSignal) -> complex:
    """L2 inner product integral of conj(a) * b over the grid window.

    Conjugate-linear in ``a`` and linear in ``b``; evaluated with the
    composite trapezoid rule, so ``inner_product(f, f).real`` is the
    signal energy used everywhere else in the package.
    """
    grid = require_same_grid(a, b)
    integrand = np.conj(a.values) * b.values
    return complex(
        grid.dt * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
    )


def cumulative_integral(f: TemporalSignal) -> TemporalSignal:
    """Running trapezoid integral of ``|f|^2`` from the window start.

    Turns a control envelope into its accumulated pulse area; the first
    sample is exactly 0 and the last equals the full-window trapezoid
    integral, i.e. the signal energy.
    """
    g = np.abs(f.values) ** 2
    out = np.empty(f.grid.n_samples, dtype=complex)
    out[0] = 0.0
    np.cumsum(0.5 * f.grid.dt * (g[1:] + g[:-1]), out=out[1:])
    return TemporalSignal(f.grid, out)


def normalize(f: TemporalSignal) -> TemporalSignal:
    """Rescale to unit L2 norm with a real positive factor."""
    energy = inner_product(f, f).real
    if energy <= ZERO_NORM_FLOOR:
        raise DegenerateSignalError(f"cannot normalize signal with energy {energy}")
    return TemporalSignal(f.grid, f.values / np.sqrt(energy))


def _write_csv(path, header, columns) -> None:
    """Write equal-length 1-D numeric arrays as CSV columns under ``header``.

    Every cell is the ``repr`` of the Python number, i.e. full round-trip
    precision. Rows are formatted in blocks of ``_CSV_BLOCK`` so only one
    block of text is alive at a time, whatever the column count.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            cells = [
                map(repr, col[start : start + _CSV_BLOCK].tolist()) for col in columns
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def signal_to_csv(signal: TemporalSignal, path) -> None:
    """Write a signal as ``t,re,im`` rows at full (round-trip) precision."""
    values = signal.values
    _write_csv(path, ("t", "re", "im"), (signal.grid.times, values.real, values.imag))
