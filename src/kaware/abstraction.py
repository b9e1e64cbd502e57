"""Finite abstraction: one successor-box row per (heading, input).

Reach sets are axis-aligned rectangles, so the successor set of every
(state, input) pair is a product of per-dimension index ranges.  The
vector field does not read the system's translation-invariant dimensions
(x1 and x2 for the Dubins car) and the growth bound is the same for every
cell, so along those dimensions the box is the cell's own index plus a
fixed offset, and a pair is blocked exactly when the cell lies outside a
fixed index range.  The abstraction is therefore a table with one row per
(index on the other dimensions, input) -- per (heading, input) for the
Dubins car -- holding the box offset and length on every dimension and the
non-blocked index range on every invariant dimension.  The state grid
turns each reach rectangle into index windows (``Grid.index_bounds``,
``Grid.window``) by the rules it applies to scenario regions; on its
periodic dimensions (the heading) it wraps a flowed state, and a box may
run past the last cell.

``boxes`` reads the table as index windows, ``controllable`` answers the
fixpoint's question from a summed-area table of the goal set, and
``flat_transitions`` expands every pair into flat successor lists.  The
cache file stores the table and a fingerprint of the dynamics it was built
for.  The tests check the table against per-pair successor lists and a
per-cell construction of their own.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import ContinuousSystem, reach_over_approx
from .errors import CacheFormatError
from .grid import _TOL, Grid, HyperRect

_MAGIC = b"KAW1"
_VERSION = 2


def _grid_fields(grid: Grid) -> list[np.ndarray]:
    return [grid.bounds.lower, grid.bounds.upper, grid.eta, grid.periodic,
            grid.counts]


def fingerprint(sys: ContinuousSystem, grid_x: Grid, grid_u: Grid) -> bytes:
    """SHA-256 of what an abstraction depends on: the model and its Jacobian
    bound, τ, the disturbance, and both grids (bounds, η, periodicity,
    counts)."""
    h = hashlib.sha256(sys.name.encode())
    for arr in ([sys.tau], sys.lipschitz, sys.dist_halfwidth,
                *_grid_fields(grid_x), *_grid_fields(grid_u)):
        h.update(np.asarray(arr, dtype="<f8").tobytes())
    return h.digest()


def _summed(mask: np.ndarray, grid: Grid) -> np.ndarray:
    """Summed-area table of a cell mask: entry ``[i, j, ...]`` counts the
    mask's cells below those indices.  Periodic axes are doubled so that
    wrapping windows are plain ranges."""
    a = mask.reshape(tuple(grid.counts)).astype(np.int32)
    for d in np.flatnonzero(grid.periodic):
        a = np.concatenate((a, a), axis=d)
    a = np.pad(a, [(1, 0)] * a.ndim)
    for d in range(a.ndim):
        np.cumsum(a, axis=d, out=a)
    return a


def _box_counts(summed: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cells counted in each box ``[lo, hi)`` (index windows, dimension
    first), by inclusion-exclusion over the box's corners."""
    flat = summed.ravel()
    strides = np.array(summed.strides) // summed.itemsize
    ends = [(a * s, b * s) for a, b, s in zip(lo, hi, strides)]
    total = np.zeros(lo.shape[1:], dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=len(ends)):
        at = sum(e[c] for e, c in zip(ends, corner))
        total += (-1) ** (len(ends) - sum(corner)) * flat[at]
    return total


@dataclass
class Abstraction:
    """The table abstraction.

    Row ``kappa * n_inputs + u`` serves every cell whose index on the
    non-invariant ("keyed") dimensions flattens to ``kappa`` (row-major),
    under input ``u``.  Such a cell's successor box starts at its own index
    plus ``offset`` and has ``length`` cells on each dimension, and the grid
    wraps or clips it (:meth:`Grid.window`).  The pair is blocked unless the
    cell's index on each invariant dimension lies in ``enabled``; a row
    with length 0 on every dimension is blocked for every cell.
    """

    grid_x: Grid
    grid_u: Grid
    tau: float
    invariant: tuple[int, ...]  # translation-invariant dims of the system
    offset: np.ndarray          # (rows, d) box start minus the cell index
    length: np.ndarray          # (rows, d) box length
    enabled: np.ndarray         # (rows, len(invariant), 2) non-blocked [first, stop)
    fingerprint: bytes
    _flat: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return self.grid_x.size

    @property
    def n_inputs(self) -> int:
        return self.grid_u.size

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per cell: its index on each dimension ``(d, n_states)`` and its row
        key ``kappa``.  Per row key: its index on each keyed dimension ``(d,
        keys)``, zero on the invariant ones."""
        counts = self.grid_x.counts
        keyed = [d for d in range(self.grid_x.ndim) if d not in self.invariant]
        idx = np.indices(tuple(counts)).reshape(self.grid_x.ndim, -1)
        kappa = np.zeros(self.n_states, dtype=np.int64)
        for d in keyed:
            kappa = kappa * counts[d] + idx[d]
        keys = np.zeros((self.grid_x.ndim, self.length.shape[0] // self.n_inputs),
                        dtype=np.int64)
        if keyed:
            keys[keyed] = np.indices(tuple(counts[keyed])).reshape(len(keyed), -1)
        return idx, kappa, keys

    def _windows(self, cell, pick, at, offset, length):
        """Index windows ``(lo, hi)`` of boxes given per table entry (row, or
        row key): ``offset`` and ``length`` are ``(entries, d)``, ``at`` is
        each entry's index on the keyed dimensions, ``(d, entries)``, and
        ``pick`` is the entry of each cell of ``cell`` (indices, ``(d,
        *pairs)``).  A keyed dimension's window depends only on the entry,
        so it is computed per entry."""
        lo = np.empty((self.grid_x.ndim,) + np.shape(pick), dtype=np.int64)
        hi = np.empty_like(lo)
        for d in range(self.grid_x.ndim):
            if d in self.invariant:
                lo[d], hi[d] = self.grid_x.window(d, cell[d] + offset[:, d][pick],
                                                  length[:, d][pick])
            else:
                e_lo, e_hi = self.grid_x.window(d, at[d] + offset[:, d], length[:, d])
                lo[d], hi[d] = e_lo[pick], e_hi[pick]
        return lo, hi

    def boxes(self, states, inputs) -> tuple[np.ndarray, np.ndarray]:
        """Successor boxes of the pairs ``(states, inputs)`` (broadcast
        together): index windows ``[lo, hi)``, each of shape ``(d,
        *pairs)``.  Periodic windows start in ``[0, n)`` and may run past
        ``n``, meaning they wrap; a blocked pair's box is empty."""
        idx, kappa, keys = self._index
        states = np.asarray(states)
        row = kappa[states] * self.n_inputs + np.asarray(inputs)
        cell = [i[states] for i in idx]
        lo, hi = self._windows(cell, row, np.repeat(keys, self.n_inputs, axis=1),
                               self.offset, self.length)
        on = self.length[:, 0][row] > 0
        for a, d in enumerate(self.invariant):
            first, stop = self.enabled[:, a].T
            on &= (first[row] <= cell[d]) & (cell[d] < stop[row])
        return lo, np.where(on, hi, lo)

    def stats(self) -> dict:
        """Sizes read off the table.  Along an invariant dimension a box's
        length depends only on the cell's index there, so a row's enabled
        pairs and transitions are products of per-dimension sums."""
        rows = np.arange(self.length.shape[0])
        pairs = (self.length[:, 0] > 0).astype(np.int64)
        transitions = pairs.copy()
        for d, n in enumerate(self.grid_x.counts):
            at = np.arange(n) if d in self.invariant \
                else self._index[2][d][rows // self.n_inputs, None]
            lo, hi = self.grid_x.window(d, at + self.offset[:, d, None],
                                        self.length[:, d, None])
            if d in self.invariant:
                first, stop = self.enabled[:, self.invariant.index(d)].T
                inside = (first[:, None] <= at) & (at < stop[:, None])
                pairs *= inside.sum(axis=1)
                transitions *= ((hi - lo) * inside).sum(axis=1)
            else:
                transitions *= (hi - lo)[:, 0]
        n_pairs = self.n_states * self.n_inputs
        return {
            "n_states": self.n_states,
            "n_inputs": self.n_inputs,
            "transitions": int(transitions.sum()),
            "blocked_pairs": n_pairs - int(pairs.sum()),
        }

    def controllable(self, Z: np.ndarray, states: np.ndarray,
                     fresh: np.ndarray | None = None) -> np.ndarray:
        """Per state of ``states`` (rows) and input (columns): whether the
        pair is enabled and all its successors lie in ``Z`` (a cell mask).

        A pair qualifies when its box holds as many cells of ``Z`` as it has
        cells, read off a summed-area table of ``Z``.  ``fresh`` is the part
        of ``Z`` added since the previous call, which found none of these
        pairs controllable; a state none of whose boxes can meet ``fresh``
        is then skipped, as its answer cannot have changed.
        """
        m = self.n_inputs
        ok = np.zeros((states.size, m), dtype=bool)
        near = np.arange(states.size)
        if fresh is not None:
            # per row key, the window covering the boxes of every input
            idx, kappa, keys = self._index
            start = self.offset.reshape(-1, m, self.grid_x.ndim)
            first = start.min(axis=1)
            width = (start + self.length.reshape(start.shape)).max(axis=1) - first
            lo, hi = self._windows([i[states] for i in idx], kappa[states], keys,
                                   first, width)
            near = np.flatnonzero(
                _box_counts(_summed(fresh, self.grid_x), lo, hi) > 0)
        lo, hi = self.boxes(states[near, None], np.arange(m))
        size = np.prod(hi - lo, axis=0)
        ok[near] = (size > 0) & (_box_counts(_summed(Z, self.grid_x), lo, hi) == size)
        return ok

    def flat_transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lens, offsets, flat)`` successor arrays, pairs row-major.

        ``flat[offsets[p]:offsets[p+1]]`` are the successors of pair
        ``p = state * n_inputs + input`` (unsorted); blocked pairs are empty.
        This expands the whole table (49 M entries at full scale); the
        pipeline does not call it.  Built once and cached.
        """
        if self._flat is None:
            n, m = self.n_states, self.n_inputs
            lo, hi = self.boxes(np.repeat(np.arange(n), m), np.tile(np.arange(m), n))
            lo, lnn = lo.T, (hi - lo).T
            lens = np.prod(lnn, axis=1)
            offsets = np.concatenate(([0], np.cumsum(lens)))
            total = int(offsets[-1])
            pair_of_slot = np.repeat(np.arange(lens.size), lens)
            slot = np.arange(total) - offsets[pair_of_slot]
            d = self.grid_x.ndim
            counts = self.grid_x.counts
            ids = np.zeros(total, dtype=np.int64)
            rem = slot
            for dim in range(d - 1, -1, -1):
                l_d = lnn[pair_of_slot, dim]
                off = rem % l_d
                rem = rem // l_d
                idx = np.mod(lo[pair_of_slot, dim] + off, counts[dim])
                stride = int(np.prod(counts[dim + 1:])) if dim + 1 < d else 1
                ids += idx * stride
            self._flat = (lens, offsets, ids)
        return self._flat

    # ---- cache file -------------------------------------------------------

    def save(self, path: str):
        fh = io.BytesIO()
        fh.write(_MAGIC)
        fh.write(struct.pack("<Bd", _VERSION, self.tau))
        _write_grid(fh, self.grid_x)
        _write_grid(fh, self.grid_u)
        fh.write(self.fingerprint)
        fh.write(struct.pack("<B", len(self.invariant)))
        fh.write(bytes(self.invariant))
        table = np.concatenate((self.offset, self.length,
                                self.enabled.reshape(len(self.offset), -1)), axis=1)
        fh.write(table.astype("<i4").tobytes())
        body = fh.getvalue()
        with open(path, "wb") as out:
            # the fingerprint names the dynamics; this digest shows the file
            # still holds what was built for them
            out.write(body + hashlib.sha256(body).digest())

    @classmethod
    def load(cls, path: str) -> "Abstraction":
        try:
            with open(path, "rb") as fh:
                buf = fh.read()
        except OSError as exc:
            raise CacheFormatError(f"{path}: {exc.strerror}") from None
        try:
            return cls._decode(buf)
        except (ValueError, struct.error, IndexError) as exc:
            raise CacheFormatError(f"corrupt or truncated cache: {exc}") from None

    @classmethod
    def _decode(cls, buf: bytes) -> "Abstraction":
        if buf[:4] != _MAGIC:
            raise CacheFormatError("bad magic number (not an abstraction cache)")
        off = 4
        version, tau = struct.unpack_from("<Bd", buf, off)
        off += struct.calcsize("<Bd")
        if version != _VERSION:
            raise CacheFormatError(f"unsupported cache version {version}")
        buf, digest = buf[:-32], buf[-32:]
        if hashlib.sha256(buf).digest() != digest:
            raise CacheFormatError("checksum mismatch (corrupt or truncated cache)")
        grid_x, off = _read_grid(buf, off)
        grid_u, off = _read_grid(buf, off)
        (dynamics,) = struct.unpack_from("<32s", buf, off)
        off += 32
        (k,) = struct.unpack_from("<B", buf, off)
        off += 1
        invariant = tuple(struct.unpack_from(f"<{k}B", buf, off))
        off += k
        d = grid_x.ndim
        if list(invariant) != sorted(set(invariant)) or any(a >= d for a in invariant):
            raise CacheFormatError("bad invariant dimension list")
        rows = grid_u.size * int(np.prod(
            [grid_x.counts[a] for a in range(d) if a not in invariant]))
        width = 2 * d + 2 * k
        if len(buf) - off != 4 * rows * width:
            raise CacheFormatError("table size disagrees with the grids")
        table = np.frombuffer(buf, "<i4", rows * width, off).reshape(rows, width)
        if (table[:, d:2 * d] < 0).any():
            raise CacheFormatError("negative box length in the table")
        return cls(grid_x=grid_x, grid_u=grid_u, tau=tau, invariant=invariant,
                   offset=table[:, :d].copy(), length=table[:, d:2 * d].copy(),
                   enabled=table[:, 2 * d:].reshape(rows, k, 2).copy(),
                   fingerprint=dynamics)


def _write_grid(fh, grid: Grid):
    nd = grid.ndim
    fh.write(struct.pack("<B", nd))
    fh.write(grid.bounds.lower.astype("<f8").tobytes())
    fh.write(grid.bounds.upper.astype("<f8").tobytes())
    fh.write(grid.eta.astype("<f8").tobytes())
    fh.write(grid.periodic.astype(np.uint8).tobytes())
    fh.write(grid.counts.astype("<u8").tobytes())


def _read_grid(buf: bytes, off: int) -> tuple[Grid, int]:
    (nd,) = struct.unpack_from("<B", buf, off)
    off += 1
    lower = np.frombuffer(buf, "<f8", nd, off).copy(); off += 8 * nd
    upper = np.frombuffer(buf, "<f8", nd, off).copy(); off += 8 * nd
    eta = np.frombuffer(buf, "<f8", nd, off).copy(); off += 8 * nd
    periodic = np.frombuffer(buf, np.uint8, nd, off).astype(bool); off += nd
    counts = np.frombuffer(buf, "<u8", nd, off).astype(np.int64); off += 8 * nd
    if np.any(counts < 1):
        raise CacheFormatError("grid with an empty dimension")
    grid = Grid(bounds=HyperRect(lower, upper), eta=eta,
                periodic=periodic, counts=counts)
    return grid, off


def build_abstraction(sys: ContinuousSystem, grid_x: Grid,
                      grid_u: Grid) -> Abstraction:
    """Construct the table of the sampled, disturbed dynamics.

    Each row's reference cell -- index 0 on the invariant dimensions, the
    row's index on the others -- is flowed for one sampling period under the
    row's input, all rows in one vectorized call.  The cell radius is
    dilated by the growth bound, and the resulting rectangle becomes index
    ranges relative to the reference cell.  On each non-periodic invariant
    dimension, the cells whose translated rectangle stays inside the bounds
    form the row's non-blocked range; a rectangle that leaves the bounds on
    another non-periodic dimension blocks the whole row.
    """
    m, d = grid_u.size, grid_x.ndim
    counts, eta = grid_x.counts, grid_x.eta
    xlo, xhi = grid_x.bounds.lower, grid_x.bounds.upper
    invariant = sys.invariant_dims
    keyed = [k for k in range(d) if k not in invariant]
    ref = np.zeros((int(np.prod(counts[keyed])), d), dtype=np.int64)
    if keyed:
        ref[:, keyed] = np.indices(tuple(counts[keyed])).reshape(len(keyed), -1).T
    ref = np.repeat(ref, m, axis=0)
    inputs = np.tile(grid_u.centers(), (ref.shape[0] // m, 1))
    start = xlo + ref * eta
    c_out, radius = reach_over_approx(sys, start, eta / 2, inputs)
    c_out = grid_x.wrap(c_out)
    r_lo, r_hi = c_out - radius, c_out + radius
    k_lo, k_hi = grid_x.index_bounds(r_lo, r_hi)
    # index bounds within +-2**30 keep every offset, length and enabled
    # bound of a grid under 2**30 cells inside int32; a huge tau gives
    # bounds past that, or NaN, which the casts below would wrap silently
    if not (np.all(np.abs(k_lo) < 2**30) and np.all(np.abs(k_hi) < 2**30)):
        raise OverflowError("a reach set of one sampling period lies beyond "
                            "the table's int32 index range")
    k_lo, k_hi = k_lo.astype(np.int64), k_hi.astype(np.int64)
    length = k_hi - k_lo + 1
    length[:, grid_x.periodic] = np.minimum(length[:, grid_x.periodic],
                                            counts[grid_x.periodic])
    enabled = np.zeros((ref.shape[0], len(invariant), 2), dtype=np.int64)
    for a, dim in enumerate(invariant):
        n = int(counts[dim])
        enabled[:, a, 1] = n
        if grid_x.periodic[dim]:
            continue
        # the flow's displacement is the same for every cell of the row
        moved = (xlo[dim] + np.arange(n) * eta[dim]) \
            + (c_out[:, dim] - start[:, dim])[:, None]
        enabled[:, a, 0] = (moved - radius[dim] < xlo[dim] - _TOL).sum(axis=1)
        enabled[:, a, 1] -= (moved + radius[dim] > xhi[dim] + _TOL).sum(axis=1)
    blocked = np.zeros(ref.shape[0], dtype=bool)
    for dim in keyed:
        if not grid_x.periodic[dim]:
            blocked |= (r_lo[:, dim] < xlo[dim] - _TOL) | (r_hi[:, dim] > xhi[dim] + _TOL)
    length[blocked] = 0
    return Abstraction(grid_x=grid_x, grid_u=grid_u, tau=sys.tau,
                       invariant=invariant,
                       offset=(k_lo - ref).astype(np.int32),
                       length=length.astype(np.int32),
                       enabled=enabled.astype(np.int32),
                       fingerprint=fingerprint(sys, grid_x, grid_u))

