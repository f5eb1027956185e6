"""Uniform time grids, sampled complex envelopes, and trapezoid quadrature.

Every quantity in the toolkit lives on a shared uniform grid: envelopes are
plain complex samples, inner products and running integrals use the composite
trapezoid rule on the same sample points the integrators use, so post-hoc
energy bookkeeping is consistent with the dynamics to quadrature accuracy.
The module does no file I/O: a signal reaches disk as a ``t,re,im`` table
of ``config.SCENARIOS``, written by ``cli.run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSignalError, GridMismatchError

ZERO_NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of the closed window [t_start, t_end].

    The bounds are stored as floats, so equal grids have equal ``times``.
    Sample k sits at exactly ``t_start + k * dt`` with
    ``dt = (t_end - t_start) / (n_samples - 1)``, which must be finite and
    positive: a window that is empty, reversed or not finite, whose bound is
    too large for a float, whose span overflows or whose ``dt`` underflows
    to 0, is rejected, and so is one whose ``times`` are not strictly
    increasing because ``dt`` is below the float spacing of the window, or
    too many to allocate (a ``ValueError``, not numpy's ``MemoryError``).
    """

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        window = (
            f"[t_start, t_end] = [{self.t_start}, {self.t_end}] on "
            f"{self.n_samples} samples"
        )
        dt = self.dt
        if not 0.0 < dt < math.inf:
            raise ValueError(f"{window} needs a finite dt > 0, got {dt}")
        try:
            increasing = (np.diff(self.times) > 0).all()
        except MemoryError:
            raise ValueError(f"{window} has too many samples to hold") from None
        if not increasing:
            raise ValueError(
                f"{window} has times that are not strictly increasing: "
                f"dt = {dt} is below the float spacing of the window"
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

    @cached_property
    def pulse_area(self) -> np.ndarray:
        """:func:`cumulative_integral` of this signal, built on first use,
        kept read-only and freed with the signal, for the callers that
        evaluate one control many times. Threads that race on it build the
        same values, so whichever copy is kept is right."""
        area = cumulative_integral(self)
        area.flags.writeable = False
        return area


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


def cumulative_integral(f: TemporalSignal) -> np.ndarray:
    """Running trapezoid integral of ``|f|^2`` from the window start.

    Turns a control envelope into its accumulated pulse area, returned as
    a real float array with one value per grid sample; the first sample is
    exactly 0 and the last equals the full-window trapezoid integral, i.e.
    the signal energy.
    """
    g = np.abs(f.values) ** 2
    out = np.empty(f.grid.n_samples)
    out[0] = 0.0
    np.cumsum(0.5 * f.grid.dt * (g[1:] + g[:-1]), out=out[1:])
    return out


def normalize(f: TemporalSignal) -> TemporalSignal:
    """Rescale to unit L2 norm with a real positive factor."""
    energy = inner_product(f, f).real
    if energy <= ZERO_NORM_FLOOR:
        raise DegenerateSignalError(f"cannot normalize signal with energy {energy}")
    return TemporalSignal(f.grid, f.values / np.sqrt(energy))
