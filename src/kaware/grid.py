"""Uniform rectangular grids over compact boxes, with periodic dimensions.

Conventions (also documented in the README):

* Grid points sit at ``lower + k * eta``.  On a non-periodic dimension
  ``k = 0 .. floor((upper - lower) / eta)``, i.e. the lower bound is always a
  grid point and the upper bound is covered by the last cell, for points,
  regions and successor boxes alike.  This reproduces ``|U| = 49`` for
  ``U = [-2pi, 2pi]``, ``eta = 0.26``.
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

    def intersects(self, other: "HyperRect") -> bool:
        """Positive-measure overlap (shared faces do not count)."""
        return bool(np.all(self.lower < other.upper) and np.all(other.lower < self.upper))


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
        """Wrap periodic coordinates into ``[lower, lower + span)``; one that
        is not finite is left as it is."""
        x, per = np.array(x, dtype=float), self.periodic
        lo, v = self.bounds.lower[per], x[..., per]
        finite = np.isfinite(v)
        x[..., per] = np.where(
            finite, lo + np.mod(np.where(finite, v, lo) - lo, self.span[per]), v)
        return x

    def quantize(self, x) -> int:
        """Nearest grid point (ties toward the lower index)."""
        x = self.wrap(x)
        lo, hi = self.bounds.lower, self.bounds.upper
        # negated, so that NaN is outside too
        bad = ~((x >= lo - _TOL) & (x <= hi + _TOL))
        if np.any(bad):
            d = int(np.argmax(bad))
            raise OutOfDomain(f"coordinate {d} = {x[d]} outside [{lo[d]}, {hi[d]}]")
        t = (x - lo) / self.eta
        k = np.ceil(t - 0.5).astype(np.int64)
        k = np.where(self.periodic, np.mod(k, self.counts), np.clip(k, 0, self.counts - 1))
        return self.flat_index(k)

    def center(self, cell: int) -> np.ndarray:
        return self.bounds.lower + self.multi_index(cell) * self.eta

    def centers(self) -> np.ndarray:
        """All cell centers as an ``(size, ndim)`` array, row-major order."""
        ks = np.indices(tuple(self.counts)).reshape(self.ndim, -1).T
        return self.bounds.lower + ks * self.eta

    def rects(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the rects of the 1-D ``cells``, one row
        per dimension.  (numpy 2.4's ``unravel_index`` gets rows of an (N, 1)
        input wrong past 8 192 of them: broadcast after it, not before.)"""
        k = np.array(np.unravel_index(np.asarray(cells, dtype=np.int64),
                                      tuple(self.counts)))
        centers = self.bounds.lower[:, None] + k * self.eta[:, None]
        half = self.eta[:, None] / 2
        return centers - half, centers + half

    # ---- intervals to index windows ---------------------------------------

    def index_bounds(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """First and last index per dimension (last axis) of the cells whose
        rect overlaps ``[lo, hi]`` by more than a face (1e-9 relative band);
        integral floats, neither clipped nor wrapped."""
        lower, eta = self.bounds.lower, self.eta
        first = np.floor((np.asarray(lo) - lower) / eta - 0.5 + _TOL) + 1
        last = np.ceil((np.asarray(hi) - lower) / eta + 0.5 - _TOL) - 1
        return first, last

    def window(self, dim: int, start, length):
        """Index window ``[lo, hi)`` of ``[start, start + length)`` on ``dim``.
        A periodic window starts in ``[0, n)`` (at 0 if it covers the circle)
        and may run past ``n``, meaning it wraps.  Another is clipped to the
        axis; one past the last cell keeps it (the trailing strip quantizes there)."""
        n = int(self.counts[dim])
        if self.periodic[dim]:
            lo = np.where(length >= n, 0, np.mod(start, n))
            return lo, lo + np.minimum(length, n)
        lo = np.minimum(np.maximum(start, 0), n - 1)
        return lo, np.minimum(np.maximum(start + length, lo), n)

    def _near(self, region: HyperRect) -> tuple[np.ndarray, np.ndarray]:
        """``region``'s corners moved to where they mean the same cells and
        the index arithmetic cannot overflow: on a non-periodic dimension
        to at most two cells past the bounds; on a periodic one a region a
        turn wide or more to the bounds, and one lying more than a turn out
        back by whole turns.  (In Python floats: their overflow to inf
        raises no warning, and a few scalars cost less than numpy calls.)"""
        lo, hi = [], []
        for a, b, low, up, eta, per in zip(
                region.lower.tolist(), region.upper.tolist(), self.bounds.lower.tolist(),
                self.bounds.upper.tolist(), self.eta.tolist(), self.periodic.tolist()):
            span = up - low
            if not per:
                a, b = (min(max(v, low - 2 * eta), up + 2 * eta) for v in (a, b))
            elif b - a >= span:
                a, b = low, up
            elif not low - span <= a <= low + 2 * span:
                width = b - a
                a = low + (a - low) % span
                b = a + width
            lo.append(a)
            hi.append(b)
        return np.array(lo), np.array(hi)

    def cells_intersecting(self, region: HyperRect) -> np.ndarray:
        """Sorted flat indices of the cells whose rect overlaps ``region``
        (:meth:`index_bounds`), where on a non-periodic dimension the last
        rect reaches the upper bound; past that bound lies no cell."""
        if region.ndim != self.ndim:
            raise ValueError("region dimension mismatch")
        lo, hi = self._near(region)
        first, last = self.index_bounds(lo, hi)
        past = ~self.periodic & (first >= self.counts) \
            & ((lo - self.bounds.upper) / self.eta >= -_TOL)
        axes = []
        for d in range(self.ndim):
            lo, hi = self.window(d, int(first[d]), int(last[d] - first[d]) + 1)
            if past[d] or hi <= lo:
                return np.empty(0, dtype=np.int64)
            axes.append(np.mod(np.arange(lo, hi), self.counts[d]))
        return np.sort(np.ravel_multi_index(np.ix_(*axes), tuple(self.counts)),
                       axis=None)


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
