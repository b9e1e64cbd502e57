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
non-blocked index range on every non-periodic dimension.  The state grid
turns each reach rectangle into index windows (``Grid.index_bounds``,
``Grid.window``) by the rules it applies to scenario regions; on its
periodic dimensions (the heading) it wraps a flowed state, and a box may
run past the last cell.

``boxes`` reads the table as index windows and ``flat_transitions``
expands every pair into flat successor lists, anew on each call; the
pipeline calls neither.  ``controllable(Z, states, fresh)`` answers the
fixpoint's question for each pair by one lookup into erosion tables of
the goal set, one per distinct box length, ANDed with the pair's enabled
bit, which ``boxes`` reads too.  It returns ``(rows, ok)``: the positions
of the states it read and their pairs' answers.  It reads only the states
whose covering window can meet ``fresh``, the cells added since the last
call, one more lookup per state; a first call passes ``fresh = Z``.  A
row key's window covers the boxes of all its inputs; on a periodic
dimension it is measured around the ring from the key's own index, so
boxes on both sides of the seam give one short window, not the whole
ring.  A goal set reaches the erosion grid by a few slab copies per axis,
not by a gather over the whole grid.  The cache file stores the table, a
CRC-32 fingerprint of the dynamics it was built for and a CRC-32 of
itself.  The tests check the table against per-pair successor lists and a
per-cell construction of their own.

Per cell, the abstraction keeps only what a sweep reads: the cell's row
key (int32, one array that ``boxes`` reads too), where the pair lookup's
tables place its invariant indices, and where the cover lookup's one
window starts in its tables (both int32 whenever the tables fit).  The
enabled bits are not kept per cell: each non-periodic dimension keeps its
range test packed over its own index and the row keys, and a cell's bits
are those parts' words at the cell, ANDed.  No per-cell multi-index is
kept: ``boxes`` and ``controllable`` unravel the states they are given,
and ``stats`` reads only the row keys.  Both lookups read through one
workspace of fixed buffers, reused by every sweep, and every numpy operand
of their slab copies and ANDs is worked out once, as a view of those
buffers (:class:`_Plan`).
"""

from __future__ import annotations

import io
import math
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import ContinuousSystem, reach_over_approx
from .errors import CacheFormatError
from .grid import _TOL, Grid, HyperRect

_MAGIC = b"KAW1"
_VERSION = 3
_DIGEST = 4  # bytes of a CRC-32: the dynamics fingerprint and the file's trailer
# gather indices per block of _Lookup.read: its per-block temporaries stay
# under glibc's 128 KiB mmap threshold
_GATHER = 1 << 14


def _crc32(*chunks: bytes) -> bytes:
    """CRC-32 of the concatenated ``chunks``, little-endian.  Neither the
    fingerprint nor the file's checksum is a security boundary, and zlib
    comes with numpy, where a cryptographic hash would load OpenSSL into
    every process."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc.to_bytes(_DIGEST, "little")


_GRID_DTYPES = ("<f8", "<f8", "<f8", "u1", "<u8")  # _grid_fields' dtypes in a cache


def _grid_fields(grid: Grid) -> list[np.ndarray]:
    """A grid's fields, in the cache file's and the fingerprint's order."""
    return [grid.bounds.lower, grid.bounds.upper, grid.eta, grid.periodic,
            grid.counts]


def _ranged(grid: Grid) -> list[int]:
    """The non-periodic dimensions, where each row has an enabled range."""
    return np.flatnonzero(~grid.periodic).tolist()


def _key_shape(grid: Grid, invariant) -> list[int]:
    """The row layout: row ``key * n_inputs + u`` serves input ``u`` at the
    cells whose index on the non-invariant ("keyed") dimensions flattens,
    row-major, to ``key``; so this shape, the grid's with the invariant
    dimensions collapsed, holds a value per key and broadcasts over the grid."""
    return [1 if d in invariant else int(n) for d, n in enumerate(grid.counts)]


def _reference_cells(grid: Grid, invariant) -> np.ndarray:
    """Per row key, its reference cell ``(keys, d)``: index 0 on the
    invariant dimensions, the key's own index on the others."""
    shape = _key_shape(grid, invariant)
    return np.indices(shape).reshape(len(shape), -1).T


def fingerprint(sys: ContinuousSystem, grid_x: Grid, grid_u: Grid) -> bytes:
    """CRC-32 of what an abstraction depends on: the model and its Jacobian
    bound, τ, the disturbance, and both grids (bounds, η, periodicity,
    counts).  It tells a cache built for other dynamics from the right
    one; it is no defence against a crafted file."""
    return _crc32(sys.name.encode(),
                  *(np.asarray(arr, dtype="<f8").tobytes()
                    for arr in ([sys.tau], sys.lipschitz, sys.dist_halfwidth,
                                *_grid_fields(grid_x), *_grid_fields(grid_u))))


def _per_cell(counts, *parts: np.ndarray, dtype) -> np.ndarray:
    """Per cell of a grid with ``counts``, flat and row-major: the sum of
    ``parts``, each an array that broadcasts over the grid's shape (an
    index times a stride along one axis, or a value per row key).  Each
    part is added in place, so nothing of the grid's size but the result
    is allocated."""
    out = np.zeros(tuple(counts), dtype=dtype)
    for part in parts:
        out += part.astype(dtype, copy=False)
    return out.ravel()


def _along(ndim: int, d: int, values: np.ndarray) -> np.ndarray:
    """``values`` laid along axis ``d`` of an ``ndim``-axis grid."""
    return values.reshape([-1 if k == d else 1 for k in range(ndim)])


class _Scratch(NamedTuple):
    """The buffers both lookups of an abstraction read through, each as
    large as the larger lookup needs; a lookup's plan holds views of its
    own size from the front of each."""

    spread: np.ndarray       # the mask on the erosion grid, flat
    ping: np.ndarray         # two buffers for the spread's and the erosion's steps
    pong: np.ndarray
    tables: np.ndarray
    index: np.ndarray        # one block of gather indices, flat
    key: np.ndarray          # one block of row keys (int32)
    base: np.ndarray         # one block of ``base`` entries, viewed as its dtype

    @classmethod
    def fit(cls, *lookups: "_Lookup") -> "_Scratch":
        size, pp, tables, index, block = np.max([lk.needs for lk in lookups],
                                                axis=0).tolist()
        return cls(np.empty(size, dtype=bool), np.empty(pp, dtype=bool),
                   np.empty(pp, dtype=bool), np.empty(tables, dtype=bool),
                   np.empty(index, dtype=np.intp), np.empty(block, dtype=np.int32),
                   np.empty(block, dtype=np.int64))


@dataclass(frozen=True)
class _Lookup:
    """Boxes given per ``(row key, column)``, each read from a cell mask by
    one gather into the mask's tables (:meth:`_Plan.tables`).

    Every start a box can take is ``first + i`` with ``0 <= i < span`` on
    each axis.  The tables lie on the erosion grid, the span extended by the
    longest box less one cell on each axis, flat and row-major.  Each
    distinct length row (``lengths``) has a table: entry ``i`` is true when
    the mask holds every cell of the box of that length starting at
    ``first + i``; every box is nonempty.  A table is the spread mask ANDed
    with itself shifted by the flat steps ``shifts[row]``.  A box starts in
    the tables at ``base[state] + at[key[state], column]``: ``key`` holds
    the state's row key, ``base`` its invariant indices, ``at`` its length
    row's table and the rest of its start.  With one column, ``base`` holds
    that whole start instead, at the same size, and ``key`` is None: a read
    then gathers the start alone.  ``base`` is the one per-cell array of its
    own (``key`` is the abstraction's), int32 when the tables fit.

    A mask reaches the erosion grid axis by axis: step ``d`` of ``steps``
    gives the shape after it and the slab copies ``(to, from)`` along axis
    ``d``, a periodic axis wrapping the state grid's indices.  The slabs
    ``fills``, outside a non-periodic axis, then read true; so a box reads
    as clipped to the grid.  The shifts, steps and fills are worked out
    once, in :meth:`build`, and the numpy operands they give once, in
    :meth:`plan`.
    """

    counts: tuple[int, ...]
    shape: tuple[int, ...]
    steps: tuple
    fills: tuple
    shifts: tuple[tuple[int, ...], ...]
    lengths: np.ndarray
    base: np.ndarray
    at: np.ndarray
    key: np.ndarray | None

    @classmethod
    def build(cls, grid: Grid, invariant, start, length, key) -> "_Lookup":
        """``start`` and ``length`` are ``(keys, columns, d)``: a box starts
        at ``start`` for the cell with index 0 on the ``invariant``
        dimensions, where a cell adds its index, and spans ``length``
        cells.  ``key`` holds every cell's row key (int32)."""
        inv = np.isin(np.arange(grid.ndim), invariant)
        length = np.where(grid.periodic, np.minimum(length, grid.counts), length)
        lengths, lid = np.unique(length.reshape(-1, grid.ndim).astype(np.int64),
                                 axis=0, return_inverse=True)
        q = start.reshape(-1, grid.ndim)
        first = q.min(axis=0)
        span = q.max(axis=0) + np.where(inv, grid.counts - 1, 0) - first + 1
        shape = tuple((span + lengths.max(axis=0) - 1).tolist())
        counts = tuple(grid.counts.tolist())
        steps, fills = [], []
        for d, (lo, e, n, periodic) in enumerate(zip(first.tolist(), shape, counts,
                                                     grid.periodic.tolist())):
            head = tail = 0
            if periodic:
                runs, k = [], 0
                while k < e:
                    i = (lo + k) % n
                    runs.append((k, i, min(n, i + e - k)))
                    k += runs[-1][2] - i
            else:
                head, tail = min(e, max(0, -lo)), min(e, max(0, lo + e - n))
                runs = [(head, lo + head, lo + e - tail)] if head + tail < e else []
            lead = (slice(None),) * d
            steps.append((shape[:d + 1] + counts[d + 1:],
                          tuple((lead + (slice(to, to + stop - start),),
                                 lead + (slice(start, stop),)) for to, start, stop in runs)))
            if head:
                fills.append(lead + (slice(0, head),))
            if tail:
                fills.append(lead + (slice(e - tail, e),))
        stride = np.cumprod((1,) + shape[:0:-1])[::-1]
        shifts = []
        for row in lengths.tolist():
            row_shifts = []
            for d, n in enumerate(row):
                k = 1
                while k < n:  # each shift doubles the length covered
                    row_shifts.append(min(k, n - k) * int(stride[d]))
                    k += min(k, n - k)
            shifts.append(tuple(row_shifts))
        size = math.prod(shape)
        at = lid.reshape(start.shape[:-1]) * size + (start - first) @ stride
        dtype = np.int32 if len(lengths) * size <= np.iinfo(np.int32).max else np.int64
        base = _per_cell(grid.counts, *(_along(grid.ndim, d, np.arange(n) * stride[d])
                                        for d, n in enumerate(grid.counts) if inv[d]),
                         dtype=dtype)
        # reads gather with mode="clip", which would hide an index outside
        # its array: check the row keys here; every start lies in the span,
        # so no index into the tables can be outside them
        if key.min() < 0 or key.max() >= at.shape[0]:
            raise IndexError("a cell's row key lies outside the table")
        if at.min() < 0 or int(base.max()) + int(at.max()) >= len(lengths) * size:
            raise IndexError("a box starts outside the lookup's tables")
        if at.shape[1] == 1:  # the whole start, in the same int32 or int64
            base += at[:, 0].astype(dtype)[key]
            key = None
        return cls(counts=counts, shape=shape, steps=tuple(steps), fills=tuple(fills),
                   shifts=tuple(shifts), lengths=lengths, at=at.astype(np.intp),
                   base=base, key=key)

    @property
    def block(self) -> int:
        """States per gather block of :meth:`_Plan.read`."""
        return max(1, _GATHER // self.at.shape[1])

    @property
    def needs(self) -> tuple[int, ...]:
        """Elements of each :class:`_Scratch` buffer a call uses: the spread
        mask, each ping-pong buffer (the largest step of the spread or the
        erosion), the tables, a block of gather indices, and a block of
        states."""
        size = math.prod(self.shape)
        pp = max([size] + [math.prod(shape) for shape, _ in self.steps[:-1]])
        return (size, pp, len(self.shifts) * size, self.block * self.at.shape[1],
                self.block)

    def plan(self, work: _Scratch) -> "_Plan":
        """Every numpy operand of this lookup's calls, as views of
        ``work``'s buffers.  The spread's steps write the ping-pong buffers
        in turn and the last one the spread mask; each length row's ANDs
        then write them in turn and the last one the row's table, each
        reading the valid front of the one before, shorter by the shift."""
        size, last = math.prod(self.shape), len(self.steps) - 1
        first, copies = [], []
        for d, (shape, runs) in enumerate(self.steps):
            out = work.spread if d == last else (work.ping, work.pong)[d % 2]
            out = out[:math.prod(shape)].reshape(shape)
            for to, frm in runs:
                if d:
                    copies.append((out[to], a[frm]))
                else:
                    first.append((out[to], frm))
            a = out
        spread, ands = work.spread[:size], []
        for c, shifts in enumerate(self.shifts):
            slot = work.tables[c * size:(c + 1) * size]
            if not shifts:  # a row of unit boxes: its table is the spread mask
                ands.append((spread, spread, slot))
            a, valid = spread, size
            for j, shift in enumerate(shifts):
                out = slot if j == len(shifts) - 1 else (work.ping, work.pong)[j % 2]
                valid -= shift
                ands.append((a[:valid], a[shift:valid + shift], out[:valid]))
                a = out
        columns = self.at.shape[1]
        return _Plan(self, tuple(first), tuple(copies),
                     tuple(spread.reshape(self.shape)[fill] for fill in self.fills),
                     tuple(ands), work.tables[:len(self.shifts) * size],
                     work.index[:self.block * columns].reshape(self.block, columns),
                     work.key[:self.block], work.base.view(self.base.dtype)[:self.block])


class _Plan(NamedTuple):
    """A lookup's calls with their numpy operands worked out once
    (:meth:`_Lookup.plan`): a call only runs the copies and ANDs.

    ``first`` holds the spread's first step as ``(out, slices)``; it reads
    the caller's mask, so only its targets are views.  ``copies`` holds the
    later steps' ``(out, in)``, ``fills`` the slabs outside a non-periodic
    axis, and ``ands`` every ``(a, b, out)`` of the erosion in order;
    ``eroded`` holds the tables they make.  ``index``, ``key`` and ``base``
    are the buffers of one block of :meth:`read`, ``len(key)`` states.

    Every operand is a view of one :class:`_Scratch`, which an
    :class:`Abstraction` shares between the plans of its two lookups: a
    table a call returns is valid until the next call of either plan, and
    two threads must not read an abstraction's lookups at once.  Reuse is
    what keeps a solve's page faults low, not only its peak: arrays of more
    than 128 KiB that are allocated and freed on every sweep each come from
    a fresh ``mmap`` unless some larger freed block has happened to raise
    glibc's mmap threshold.
    """

    lookup: _Lookup
    first: tuple
    copies: tuple
    fills: tuple
    ands: tuple
    eroded: np.ndarray
    index: np.ndarray
    key: np.ndarray
    base: np.ndarray

    def tables(self, mask: np.ndarray) -> np.ndarray:
        """The tables of ``mask``, flat and concatenated.  Each length row
        ANDs the mask, spread over the erosion grid, with itself shifted by
        whole steps along each axis, each doubling the length covered.  A
        box starting in the span ends inside the erosion grid, so no shift it
        needs crosses into another row of that axis; entries of starts
        outside the span mean nothing, no box reads them, and they keep
        whatever an earlier call left there."""
        a = mask.reshape(self.lookup.counts)
        for out, frm in self.first:
            np.copyto(out, a[frm])
        for out, src in self.copies:
            np.copyto(out, src)
        # the slabs outside a non-periodic axis still hold what the buffers
        # held before; make them true
        for fill in self.fills:
            fill[...] = True
        for a, b, out in self.ands:
            np.bitwise_and(a, b, out=out)
        return self.eroded

    def read(self, mask: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Per state of ``states`` and column: whether ``mask`` holds each
        cell of the box inside the grid.  The states are read a block at a
        time through the plan's buffers."""
        lk, tables, step = self.lookup, self.tables(mask), len(self.key)
        out = np.empty((states.size, lk.at.shape[1]), dtype=bool)
        for i in range(0, states.size, step):
            cells = states[i:i + step]
            n = cells.size
            # the first take checks the states as indexing would (buffering
            # one copy of its output); then every index lies inside its
            # array (build checked the keys and the tables), and "wrap" and
            # "clip" let take write straight into the buffers
            if lk.key is None:
                lk.base.take(cells, out=self.base[:n])
                tables.take(self.base[:n], out=out[i:i + n, 0], mode="clip")
                continue
            keys, base, block = self.key[:n], self.base[:n], self.index[:n]
            lk.key.take(cells, out=keys)
            lk.base.take(cells, out=base, mode="wrap")
            lk.at.take(keys, axis=0, out=block, mode="clip")
            block += base[:, None]
            tables.take(block, out=out[i:i + n], mode="clip")
        return out


@dataclass
class Abstraction:
    """The table abstraction.

    Row ``key * n_inputs + u`` serves input ``u`` at every cell of row key
    ``key`` (:func:`_key_shape`).  Such a cell's successor box starts at its
    own index plus ``offset`` and has ``length`` cells on each dimension,
    and the grid wraps or clips it (:meth:`Grid.window`).  The pair is
    blocked unless the cell's index on each non-periodic dimension lies in
    that dimension's ``enabled`` range.
    """

    grid_x: Grid
    grid_u: Grid
    tau: float
    invariant: tuple[int, ...]  # translation-invariant dims of the system
    offset: np.ndarray          # (rows, d) box start minus the cell index
    length: np.ndarray          # (rows, d) box length
    enabled: np.ndarray         # (rows, non-periodic d, 2) non-blocked [first, stop)
    fingerprint: bytes

    @property
    def n_states(self) -> int:
        return self.grid_x.size

    @property
    def n_inputs(self) -> int:
        return self.grid_u.size

    @cached_property
    def _keys(self) -> np.ndarray:
        """Per row key, its reference cell ``(keys, d)``."""
        return _reference_cells(self.grid_x, self.invariant)

    @cached_property
    def _cell_keys(self) -> np.ndarray:
        """Every cell's row key (int32, flat): the very array the pair
        lookup keeps as its ``key``."""
        shape = _key_shape(self.grid_x, self.invariant)
        return _per_cell(self.grid_x.counts, np.arange(math.prod(shape)).reshape(shape),
                         dtype=np.int32)

    @cached_property
    def _enabled_parts(self) -> list[np.ndarray]:
        """Per non-periodic dimension, whether its range admits each pair,
        over that dimension's index and the row keys: an array of the grid's
        shape with the other invariant dimensions collapsed to one, holding
        the inputs' bits packed little-endian (``np.packbits``) into 64-bit
        words, as (54, 1, 24, 1) and (1, 74, 24, 1) at full scale.  A pair
        is enabled when every part's bit is set; with no non-periodic
        dimension one all-set part stands for them.  Each part is read
        through a view broadcast over the whole grid, which holds no memory
        of its own; whole words make a cell's bits one element to gather,
        which numpy gathers several times faster than seven bytes."""
        counts, m = self.grid_x.counts, self.n_inputs

        def words(test):
            padded = np.zeros(test.shape[:-1] + (-(-m // 64) * 64,), dtype=bool)
            padded[..., :m] = test
            return np.packbits(padded, axis=-1, bitorder="little").view("<u8")

        shape = _key_shape(self.grid_x, self.invariant) + [m]
        parts = []
        for a, d in enumerate(_ranged(self.grid_x)):
            first, stop = self.enabled[:, a].T.reshape([2] + shape)
            i = _along(len(shape), d, np.arange(counts[d]))
            parts.append(words((first <= i) & (i < stop)))
        parts = parts or [words(np.ones([1] * self.grid_x.ndim + [m], dtype=bool))]
        return [np.broadcast_to(part, tuple(counts) + part.shape[-1:]) for part in parts]

    def _enabled_bytes(self, idx) -> np.ndarray:
        """The packed enabled bits of the cells with per-dimension indices
        ``idx`` (flat arrays), ``(cells, bytes)``, zero past the last input:
        each part's words at the cells, ANDed.  Every answer on whether a
        pair is blocked comes from here."""
        first, *rest = self._enabled_parts
        bits = first[idx]
        for part in rest:
            bits &= part[idx]
        return bits.view(np.uint8)

    def boxes(self, states, inputs) -> tuple[np.ndarray, np.ndarray]:
        """Successor boxes of the pairs ``(states, inputs)`` (broadcast
        together): index windows ``[lo, hi)``, each of shape ``(d,
        *pairs)``.  Periodic windows start in ``[0, n)`` and may run past
        ``n``, meaning they wrap; a blocked pair's box is empty."""
        states, inputs = np.asarray(states), np.asarray(inputs)
        counts = self.grid_x.counts
        # unravel the flat states and broadcast after: numpy 2.4's
        # unravel_index gets rows of an (N, 1) input wrong past 8 192 of them
        flat = np.unravel_index(states.ravel(), tuple(counts))
        idx = [i.reshape(states.shape) for i in flat]
        row = self._cell_keys[states].astype(np.intp) * self.n_inputs + inputs
        lo = np.empty((self.grid_x.ndim,) + row.shape, dtype=np.int64)
        hi = np.empty_like(lo)
        for d in range(self.grid_x.ndim):
            lo[d], hi[d] = self.grid_x.window(d, idx[d] + self.offset[row, d],
                                              self.length[row, d])
        at = np.arange(states.size).reshape(states.shape)
        on = self._enabled_bytes(flat)[at, inputs >> 3] >> (inputs & 7) & 1
        return lo, np.where(on > 0, hi, lo)

    def stats(self) -> dict:
        """Sizes read off the table.  Along an invariant dimension a box's
        length depends only on the cell's index there, so a row's enabled
        pairs and transitions are products of per-dimension sums."""
        rows, ranged = np.arange(self.length.shape[0]), _ranged(self.grid_x)
        pairs = np.ones(rows.size, dtype=np.int64)
        transitions = pairs.copy()
        for d, n in enumerate(self.grid_x.counts):
            at = np.arange(n) if d in self.invariant \
                else self._keys[rows // self.n_inputs, d, None]
            lo, hi = self.grid_x.window(d, at + self.offset[:, d, None],
                                        self.length[:, d, None])
            inside = np.ones(hi.shape, dtype=bool)
            if d in ranged:
                first, stop = self.enabled[:, ranged.index(d)].T
                inside = (first[:, None] <= at) & (at < stop[:, None])
            pairs *= inside.sum(axis=1)
            transitions *= ((hi - lo) * inside).sum(axis=1)
        n_pairs = self.n_states * self.n_inputs
        return {
            "n_states": self.n_states,
            "n_inputs": self.n_inputs,
            "transitions": int(transitions.sum()),
            "blocked_pairs": n_pairs - int(pairs.sum()),
        }

    @cached_property
    def _lookups(self) -> tuple[_Plan, _Plan]:
        """What :meth:`controllable` reads, built once: the lookup of each
        pair's box and the lookup of each row key's window covering the
        boxes of all its inputs, both given every state's row key, and both
        planned in one workspace, allocated here and reused by every sweep
        of every solve."""
        m, d = self.n_inputs, self.grid_x.ndim
        n, periodic = self.grid_x.counts, self.grid_x.periodic
        keys = self._keys
        start = (self.offset + np.repeat(keys, m, axis=0)).reshape(-1, m, d)
        length = self.length.reshape(start.shape)
        # on a periodic axis, measure each start from the key's own index,
        # wrapped into [-n/2, n/2): boxes on both sides of the seam then form
        # one short window.  A window that reaches n is the whole ring [0, n)
        key = keys[:, None, :]
        centred = np.where(periodic, key + np.mod(start - key + n // 2, n) - n // 2, start)
        lo, hi = centred.min(axis=1), (centred + length).max(axis=1)
        ring = periodic & (hi - lo >= n)
        lo, hi = np.where(ring, 0, lo), np.where(ring, n, hi)
        pairs = _Lookup.build(self.grid_x, self.invariant, start, length,
                              self._cell_keys)
        cover = _Lookup.build(self.grid_x, self.invariant, lo[:, None],
                              (hi - lo)[:, None], self._cell_keys)
        work = _Scratch.fit(pairs, cover)
        return pairs.plan(work), cover.plan(work)

    def controllable(self, Z: np.ndarray, states: np.ndarray,
                     fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, ok)``: ``rows`` are the positions in ``states`` that
        were read, ``ok`` is ``(len(rows), n_inputs)``, per read state and
        input whether the pair is enabled and all its successors lie in
        ``Z`` (a cell mask).  Every pair of a state not read is not
        controllable.

        Each pair is one gather from the per-length tables of ``Z``
        (:class:`_Lookup`), which read a box clipped to the grid, as
        :meth:`Grid.window` does, ANDed with the pair's enabled bit: an
        enabled box always meets the grid, as a reach rectangle is at least
        a cell wide.  ``fresh`` is the part of ``Z`` added since the
        previous call, which found none of these pairs controllable; only
        the states whose covering window meets ``fresh`` are read, as the
        others' answers cannot have changed.  A first call passes ``fresh =
        Z``, and its answer is exact: a state whose window misses ``Z`` has
        no enabled box that lies in ``Z``.
        """
        pairs, cover = self._lookups
        # the cover's tables are read to the end here, before the pair
        # lookup overwrites the workspace
        rows = np.flatnonzero(~cover.read(~fresh, states)[:, 0])
        near = states[rows]
        ok = pairs.read(Z, near)
        # a block's unpacked bits take 4 * _GATHER bytes, under the mmap
        # threshold, in few enough blocks to keep the per-block calls cheap
        m, counts = self.n_inputs, tuple(self.grid_x.counts)
        step = max(1, 4 * _GATHER // m)
        for i in range(0, near.size, step):
            ok[i:i + step] &= np.unpackbits(
                self._enabled_bytes(np.unravel_index(near[i:i + step], counts)),
                axis=1, count=m, bitorder="little").view(bool)
        return rows, ok

    def flat_transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lens, offsets, flat)`` successor arrays, pairs row-major.

        ``flat[offsets[p]:offsets[p+1]]`` are the successors of pair
        ``p = state * n_inputs + input`` (unsorted); blocked pairs are empty.
        This expands the whole table (49 M entries at full scale), anew on
        every call; the pipeline does not call it.
        """
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
        return lens, offsets, ids

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
            # the fingerprint names the dynamics; this checksum shows the
            # file still holds what was built for them
            out.write(body + _crc32(body))

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
        buf, digest = buf[:-_DIGEST], buf[-_DIGEST:]
        if _crc32(buf) != digest:
            raise CacheFormatError("checksum mismatch (corrupt or truncated cache)")
        grid_x, off = _read_grid(buf, off)
        grid_u, off = _read_grid(buf, off)
        (dynamics,) = struct.unpack_from(f"<{_DIGEST}s", buf, off)
        off += _DIGEST
        (k,) = struct.unpack_from("<B", buf, off)
        off += 1
        invariant = tuple(struct.unpack_from(f"<{k}B", buf, off))
        off += k
        d = grid_x.ndim
        if list(invariant) != sorted(set(invariant)) or any(a >= d for a in invariant):
            raise CacheFormatError("bad invariant dimension list")
        rows = grid_u.size * math.prod(_key_shape(grid_x, invariant))
        ranged = len(_ranged(grid_x))
        width = 2 * (d + ranged)
        if len(buf) - off != 4 * rows * width:
            raise CacheFormatError("table size disagrees with the grids")
        table = np.frombuffer(buf, "<i4", rows * width, off).reshape(rows, width)
        if (table[:, d:2 * d] < 1).any():
            raise CacheFormatError("box length below one in the table")
        return cls(grid_x=grid_x, grid_u=grid_u, tau=tau, invariant=invariant,
                   offset=table[:, :d].copy(), length=table[:, d:2 * d].copy(),
                   enabled=table[:, 2 * d:].reshape(rows, ranged, 2).copy(),
                   fingerprint=dynamics)


def _write_grid(fh, grid: Grid):
    fh.write(struct.pack("<B", grid.ndim))
    for values, dtype in zip(_grid_fields(grid), _GRID_DTYPES):
        fh.write(values.astype(dtype).tobytes())


def _read_grid(buf: bytes, off: int) -> tuple[Grid, int]:
    (nd,) = struct.unpack_from("<B", buf, off)
    off += 1
    fields = []
    for dtype in _GRID_DTYPES:
        fields.append(np.frombuffer(buf, dtype, nd, off))
        off += fields[-1].nbytes
    lower, upper, eta, periodic, counts = fields
    counts = counts.astype(np.int64)
    if np.any(counts < 1):
        raise CacheFormatError("grid with an empty dimension")
    grid = Grid(bounds=HyperRect(lower.astype(float), upper.astype(float)),
                eta=eta.astype(float), periodic=periodic.astype(bool), counts=counts)
    return grid, off


def build_abstraction(sys: ContinuousSystem, grid_x: Grid,
                      grid_u: Grid) -> Abstraction:
    """Construct the table of the sampled, disturbed dynamics; raises
    ``OverflowError(entry, message)``, naming the system entry ("tau" or
    "disturbance"), when a reach set lies beyond the table's index range.

    Each row's reference cell -- index 0 on the invariant dimensions, the
    row's index on the others -- is flowed for one sampling period under the
    row's input, all rows in one vectorized call.  The cell radius is
    dilated by the growth bound, and the resulting rectangle becomes index
    ranges relative to the reference cell.  On each non-periodic dimension
    the row's non-blocked range ``[first, stop)`` holds the indices whose
    cell, moved by the reference cell's displacement, keeps its rectangle
    inside the bounds.  A keyed dimension's row serves only its reference
    index, which lies in that range exactly when the reference cell's own
    rectangle stays inside.
    """
    m, counts, eta = grid_u.size, grid_x.counts, grid_x.eta
    xlo, xhi = grid_x.bounds.lower, grid_x.bounds.upper
    invariant = sys.invariant_dims
    ref = np.repeat(_reference_cells(grid_x, invariant), m, axis=0)
    inputs = np.tile(grid_u.centers(), (ref.shape[0] // m, 1))
    start = xlo + ref * eta
    c_out, radius = reach_over_approx(sys, start, eta / 2, inputs)
    c_out = grid_x.wrap(c_out)
    k_lo, k_hi = grid_x.index_bounds(c_out - radius, c_out + radius)
    # index bounds within +-2**30 keep every offset, length and enabled
    # bound of a grid under 2**30 cells inside int32; a huge tau or
    # disturbance gives bounds past that, or NaN, which the casts below
    # would wrap silently.  The flowed centres depend on tau alone
    if not (np.abs([k_lo, k_hi]) < 2**30).all():
        centres = (np.abs(grid_x.index_bounds(c_out, c_out)) < 2**30).all()
        entry = "disturbance" if centres and sys.dist_halfwidth.any() else "tau"
        raise OverflowError(entry, "a reach set of one sampling period lies "
                            "beyond the table's int32 index range")
    k_lo, k_hi = k_lo.astype(np.int64), k_hi.astype(np.int64)
    length = k_hi - k_lo + 1
    length[:, grid_x.periodic] = np.minimum(length[:, grid_x.periodic],
                                            counts[grid_x.periodic])
    ranged = _ranged(grid_x)
    enabled = np.zeros((ref.shape[0], len(ranged), 2), dtype=np.int64)
    for a, dim in enumerate(ranged):
        n = int(counts[dim])
        # the flow's displacement is the same for every cell of the row
        moved = (xlo[dim] + np.arange(n) * eta[dim]) \
            + (c_out[:, dim] - start[:, dim])[:, None]
        enabled[:, a, 0] = (moved - radius[dim] < xlo[dim] - _TOL).sum(axis=1)
        enabled[:, a, 1] = n - (moved + radius[dim] > xhi[dim] + _TOL).sum(axis=1)
    return Abstraction(grid_x=grid_x, grid_u=grid_u, tau=sys.tau,
                       invariant=invariant,
                       offset=(k_lo - ref).astype(np.int32),
                       length=length.astype(np.int32),
                       enabled=enabled.astype(np.int32),
                       fingerprint=fingerprint(sys, grid_x, grid_u))

