"""Uniform rectangular grids over compact boxes, with periodic dimensions.

Conventions (also documented in the README):

* Grid points sit at ``lower + k * eta``.  On a non-periodic dimension
  ``k = 0 .. floor((upper - lower) / eta)``, i.e. the lower bound is always a
  grid point and the upper bound is covered by the last cell.  This
  reproduces ``|U| = 49`` for ``U = [-2pi, 2pi]``, ``eta = 0.26``.
* On a periodic dimension the number of points is
  ``round((upper - lower) / eta)`` and the requested spacing is snapped to
  ``span / counts`` so that an integer number of cells tiles the circle
  (no duplicate endpoint, no seam gap).  The snapped value is what the
  grid reports as ``eta``.
* Flattened cell indices are row-major over dimensions in declaration order.
* A point exactly on a cell boundary quantizes to the lower-index cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCell, OutOfDomain

_TOL = 1e-9


@dataclass(frozen=True)
class HyperRect:
    """Axis-aligned box ``[lower, upper]`` with finite corners."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("lower and upper must have the same length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("lower and upper must be finite numbers")
        if np.any(lo > hi):
            raise ValueError("lower must not exceed upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def ndim(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def intersects(self, other: "HyperRect") -> bool:
        """Positive-measure overlap (shared faces do not count)."""
        return bool(
            np.all(self.lower < other.upper) and np.all(other.lower < self.upper)
        )


@dataclass(frozen=True)
class Grid:
    """Uniform grid over a box; construct with :func:`make_grid`."""

    bounds: HyperRect
    eta: np.ndarray
    periodic: np.ndarray
    counts: np.ndarray

    @property
    def ndim(self) -> int:
        return self.counts.shape[0]

    @property
    def size(self) -> int:
        return math.prod(self.counts.tolist())

    @property
    def span(self) -> np.ndarray:
        return self.bounds.upper - self.bounds.lower

    # ---- index arithmetic -------------------------------------------------

    def flat_index(self, multi) -> int:
        multi = np.asarray(multi, dtype=np.int64)
        if np.any(multi < 0) or np.any(multi >= self.counts):
            raise InvalidCell(f"multi-index {multi.tolist()} out of range")
        return int(np.ravel_multi_index(multi, self.counts))

    def multi_index(self, cell: int) -> np.ndarray:
        if not 0 <= cell < self.size:
            raise InvalidCell(f"cell {cell} out of range [0, {self.size})")
        return np.asarray(np.unravel_index(cell, self.counts), dtype=np.int64)

    # ---- geometry ---------------------------------------------------------

    def wrap(self, x) -> np.ndarray:
        """Wrap periodic coordinates into ``[lower, lower + span)``."""
        x = np.asarray(x, dtype=float).copy()
        per = self.periodic
        if np.any(per):
            lo = self.bounds.lower[per]
            sp = self.span[per]
            x[..., per] = lo + np.mod(x[..., per] - lo, sp)
        return x

    def quantize(self, x) -> int:
        """Nearest grid point (ties toward the lower index)."""
        x = self.wrap(x)
        lo, hi = self.bounds.lower, self.bounds.upper
        bad = ~self.periodic & ((x < lo - _TOL) | (x > hi + _TOL))
        if np.any(bad):
            d = int(np.argmax(bad))
            raise OutOfDomain(f"coordinate {d} = {x[d]} outside [{lo[d]}, {hi[d]}]")
        t = (x - lo) / self.eta
        k = np.ceil(t - 0.5).astype(np.int64)
        k = np.where(self.periodic, np.mod(k, self.counts), np.clip(k, 0, self.counts - 1))
        return self.flat_index(k)

    def center(self, cell: int) -> np.ndarray:
        k = self.multi_index(cell)
        return self.bounds.lower + k * self.eta

    def centers(self) -> np.ndarray:
        """All cell centers as an ``(size, ndim)`` array, row-major order."""
        ks = np.indices(tuple(self.counts)).reshape(self.ndim, -1).T
        return self.bounds.lower + ks * self.eta

    def cell_rect(self, cell: int) -> HyperRect:
        c = self.center(cell)
        return HyperRect(c - self.eta / 2, c + self.eta / 2)

    # ---- region queries ---------------------------------------------------

    def index_interval(self, dim: int, lo: float, hi: float):
        """Index range of cells whose rect overlaps ``[lo, hi]`` on ``dim``.

        Overlap means positive measure: touching faces are excluded (with a
        1e-9 relative tolerance band).  Returns ``(k_lo, length)``; on a
        periodic dimension ``k_lo`` is taken modulo the count and the range
        may wrap.  ``length`` may be 0 for degenerate regions.
        """
        eta = self.eta[dim]
        t1 = (lo - self.bounds.lower[dim]) / eta
        t2 = (hi - self.bounds.lower[dim]) / eta
        k_lo = int(np.floor(t1 - 0.5 + _TOL)) + 1
        k_hi = int(np.ceil(t2 + 0.5 - _TOL)) - 1
        n = int(self.counts[dim])
        if self.periodic[dim]:
            if k_hi - k_lo + 1 >= n:
                return 0, n
            return k_lo % n, max(k_hi - k_lo + 1, 0)
        k_lo = max(k_lo, 0)
        k_hi = min(k_hi, n - 1)
        return k_lo, max(k_hi - k_lo + 1, 0)

    def cells_intersecting(self, region: HyperRect) -> np.ndarray:
        """Sorted flat indices of cells whose rect overlaps ``region``."""
        if region.ndim != self.ndim:
            raise ValueError("region dimension mismatch")
        axes = []
        for d in range(self.ndim):
            k0, ln = self.index_interval(d, region.lower[d], region.upper[d])
            if ln == 0:
                return np.empty(0, dtype=np.int64)
            axes.append(np.mod(k0 + np.arange(ln), self.counts[d]))
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.ravel_multi_index(tuple(m.ravel() for m in mesh), tuple(self.counts))
        return np.sort(flat)


def make_grid(lower, upper, eta, periodic=None) -> Grid:
    """Build a :class:`Grid`, snapping periodic spacings to tile the circle."""
    bounds = HyperRect(lower, upper)
    eta = np.atleast_1d(np.asarray(eta, dtype=float)).copy()
    if np.any(eta <= 0):
        raise ValueError("eta must be positive")
    if periodic is None:
        periodic = np.zeros(bounds.ndim, dtype=bool)
    else:
        periodic = np.atleast_1d(np.asarray(periodic, dtype=bool))
    if eta.shape[0] != bounds.ndim or periodic.shape[0] != bounds.ndim:
        raise ValueError("eta/periodic length must match bounds dimension")
    span = bounds.upper - bounds.lower
    counts = np.empty(bounds.ndim, dtype=np.int64)
    for d in range(bounds.ndim):
        if periodic[d]:
            n = int(round(span[d] / eta[d]))
            if n < 1:
                raise ValueError(f"eta[{d}] too large for periodic span")
            counts[d] = n
            eta[d] = span[d] / n
        else:
            counts[d] = int(np.floor(span[d] / eta[d] + _TOL)) + 1
    return Grid(bounds=bounds, eta=eta, periodic=periodic, counts=counts)
