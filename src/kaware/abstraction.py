"""Finite abstraction: sparse transition relation over grid cells.

Because reach sets are axis-aligned rectangles, the successor set of every
(state, input) pair is a product of per-dimension index ranges.  We store
those ranges (plus a blocked flag) instead of explicit lists; ``post``
materializes the list on demand and ``flat_transitions`` produces the flat
arrays the fixpoint solver consumes.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import varint
from .dynamics import ContinuousSystem, flow, growth_matrices
from .errors import CacheFormatError, InvalidCell
from .grid import Grid, HyperRect

_MAGIC = b"KAW1"
_VERSION = 1
_TOL = 1e-9


@dataclass
class Abstraction:
    grid_x: Grid
    grid_u: Grid
    tau: float
    lo: np.ndarray       # (N, M, d) successor box lower index per dim
    ln: np.ndarray       # (N, M, d) successor box length per dim
    blocked: np.ndarray  # (N, M) reach set exits the state space
    _flat: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return self.grid_x.size

    @property
    def n_inputs(self) -> int:
        return self.grid_u.size

    def _check_pair(self, state: int, inp: int):
        if not 0 <= state < self.n_states:
            raise InvalidCell(f"state cell {state} out of range")
        if not 0 <= inp < self.n_inputs:
            raise InvalidCell(f"input cell {inp} out of range")

    def post(self, state: int, inp: int) -> np.ndarray:
        """Sorted successor cells of ``(state, inp)``; empty if blocked."""
        self._check_pair(state, inp)
        if self.blocked[state, inp]:
            return np.empty(0, dtype=np.int64)
        counts = self.grid_x.counts
        axes = [
            np.mod(self.lo[state, inp, d] + np.arange(self.ln[state, inp, d]), counts[d])
            for d in range(self.grid_x.ndim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.ravel_multi_index(tuple(m.ravel() for m in mesh), tuple(counts))
        return np.sort(flat)

    def pair_sizes(self) -> np.ndarray:
        """Successor count per (state, input) pair, row-major; 0 if blocked."""
        sizes = np.prod(self.ln, axis=2, dtype=np.int64)
        sizes[self.blocked] = 0
        return sizes.reshape(-1)

    def stats(self) -> dict:
        sizes = self.pair_sizes()
        return {
            "n_states": self.n_states,
            "n_inputs": self.n_inputs,
            "transitions": int(sizes.sum()),
            "blocked_pairs": int(self.blocked.sum()),
        }

    def flat_transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lens, offsets, flat)`` successor arrays, pairs row-major.

        ``flat[offsets[p]:offsets[p+1]]`` are the successors of pair
        ``p = state * n_inputs + input`` (unsorted); blocked pairs are empty.
        Built once and cached.
        """
        if self._flat is None:
            lens = self.pair_sizes()
            offsets = np.concatenate(([0], np.cumsum(lens)))
            total = int(offsets[-1])
            pair_of_slot = np.repeat(np.arange(lens.size), lens)
            slot = np.arange(total) - offsets[pair_of_slot]
            d = self.grid_x.ndim
            counts = self.grid_x.counts
            lo = self.lo.reshape(-1, d)
            lnn = self.ln.reshape(-1, d)
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
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Bd", _VERSION, self.tau))
            _write_grid(fh, self.grid_x)
            _write_grid(fh, self.grid_u)
            lens, offsets, ids = self.flat_transitions()
            # sort successors within each pair, then delta-encode
            pair_of_slot = np.repeat(np.arange(lens.size), lens)
            order = np.lexsort((ids, pair_of_slot))
            sids = ids[order]
            deltas = np.empty_like(sids)
            deltas[1:] = sids[1:] - sids[:-1]
            starts = offsets[:-1][lens > 0]
            deltas[starts] = sids[starts]
            fh.write(struct.pack("<QQQ", self.n_states, self.n_inputs, sids.size))
            fh.write(np.packbits(self.blocked.reshape(-1)).tobytes())
            for stream in (varint.encode(lens), varint.encode(deltas)):
                fh.write(struct.pack("<Q", len(stream)))
                fh.write(stream)

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
        grid_x, off = _read_grid(buf, off)
        grid_u, off = _read_grid(buf, off)
        n, m, total = struct.unpack_from("<QQQ", buf, off)
        off += 24
        if n != grid_x.size or m != grid_u.size:
            raise CacheFormatError("pair count disagrees with grid descriptors")
        nbits = n * m
        nbytes = (nbits + 7) // 8
        blocked = np.unpackbits(
            np.frombuffer(buf, np.uint8, nbytes, off), count=nbits
        ).astype(bool).reshape(n, m)
        off += nbytes
        (stream_len,) = struct.unpack_from("<Q", buf, off)
        off += 8
        lens, _ = varint.decode(buf[off:off + stream_len], nbits)
        off += stream_len
        (stream_len,) = struct.unpack_from("<Q", buf, off)
        off += 8
        deltas, _ = varint.decode(buf[off:off + stream_len], int(total))
        lens = lens.astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(lens)))
        # undo per-pair delta coding: deltas[start] holds the absolute id,
        # so each id is the delta sum from its segment start
        c = np.cumsum(deltas.astype(np.int64))
        cum0 = np.concatenate(([0], c))
        starts = offsets[:-1][lens > 0]
        ids = c - cum0[np.repeat(starts, lens[lens > 0])]
        lo, ln = _boxes_from_lists(grid_x, ids, lens, offsets, blocked)
        abs_ = cls(grid_x=grid_x, grid_u=grid_u, tau=tau,
                   lo=lo, ln=ln, blocked=blocked)
        abs_._flat = (lens, offsets, ids)
        return abs_


def _boxes_from_lists(grid_x: Grid, ids, lens, offsets, blocked):
    """Recover per-dimension index ranges from sorted successor lists.

    Each list is a product box; on periodic dimensions it may wrap around
    the seam, in which case the per-dim extent check fails and the wrapped
    range is recovered from the gap in the sorted unique indices.
    """
    d = grid_x.ndim
    counts = grid_x.counts
    npairs = lens.size
    lo = np.zeros((npairs, d), dtype=np.int32)
    ln = np.ones((npairs, d), dtype=np.int32)
    nz = lens > 0
    starts = offsets[:-1][nz]
    multi = np.asarray(np.unravel_index(ids, tuple(counts)))
    mins = np.empty((d, starts.size), dtype=np.int64)
    maxs = np.empty((d, starts.size), dtype=np.int64)
    for dim in range(d):
        mins[dim] = np.minimum.reduceat(multi[dim], starts)
        maxs[dim] = np.maximum.reduceat(multi[dim], starts)
    ext = maxs - mins + 1
    good = np.prod(ext, axis=0) == lens[nz]
    lo_nz = mins.T.astype(np.int32)
    ln_nz = ext.T.astype(np.int32)
    if not good.all():
        nz_idx = np.flatnonzero(nz)
        for j in np.flatnonzero(~good):
            p = nz_idx[j]
            seg = slice(offsets[p], offsets[p + 1])
            sub_ln = np.empty(d, dtype=np.int64)
            sub_lo = np.empty(d, dtype=np.int64)
            for dim in range(d):
                vals = np.unique(multi[dim, seg])
                if vals[-1] - vals[0] + 1 == vals.size:
                    sub_lo[dim], sub_ln[dim] = vals[0], vals.size
                else:
                    gap = int(np.argmax(np.diff(vals))) + 1
                    sub_lo[dim], sub_ln[dim] = vals[gap], vals.size
            lo_nz[j], ln_nz[j] = sub_lo, sub_ln
    lo[nz] = lo_nz
    ln[nz] = ln_nz
    return (lo.reshape(grid_x.size, -1, d).astype(np.int32),
            ln.reshape(grid_x.size, -1, d).astype(np.int32))


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
    grid = Grid(bounds=HyperRect(lower, upper), eta=eta,
                periodic=periodic, counts=counts)
    return grid, off


def _default_workers() -> int:
    env = os.environ.get("KAW_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def build_abstraction(sys: ContinuousSystem, grid_x: Grid, grid_u: Grid,
                      workers: int | None = None) -> Abstraction:
    """Construct the transition system of the sampled, disturbed dynamics.

    For every input, the centers of all state cells are flowed for one
    sampling period in a single vectorized sweep, the cell radius is dilated
    by the growth bound, and the resulting rectangle is converted to
    per-dimension index ranges.  Pairs whose rectangle leaves the state
    space on a non-periodic dimension are blocked.
    """
    n, m, d = grid_x.size, grid_u.size, grid_x.ndim
    centers = grid_x.centers()
    eL, iL = growth_matrices(sys.lipschitz, sys.tau)
    radius = eL @ (grid_x.eta / 2) + iL @ sys.dist_halfwidth
    for dim in sys.angle_dims:
        radius[dim] = min(radius[dim], np.pi)
    lo = np.zeros((n, m, d), dtype=np.int32)
    ln = np.zeros((n, m, d), dtype=np.int32)
    blocked = np.zeros((n, m), dtype=bool)
    xlo, xhi = grid_x.bounds.lower, grid_x.bounds.upper

    def one_input(j: int):
        u = grid_u.center(j)
        c_out = flow(sys, centers, u, sys.tau)
        r_lo = c_out - radius
        r_hi = c_out + radius
        blk = np.zeros(n, dtype=bool)
        lo_j = np.empty((n, d), dtype=np.int32)
        ln_j = np.empty((n, d), dtype=np.int32)
        for dim in range(d):
            nd_ = int(grid_x.counts[dim])
            eta = grid_x.eta[dim]
            t1 = (r_lo[:, dim] - xlo[dim]) / eta
            t2 = (r_hi[:, dim] - xlo[dim]) / eta
            k_lo = np.floor(t1 - 0.5 + _TOL).astype(np.int64) + 1
            k_hi = np.ceil(t2 + 0.5 - _TOL).astype(np.int64) - 1
            if grid_x.periodic[dim]:
                length = k_hi - k_lo + 1
                full = length >= nd_
                lo_j[:, dim] = np.where(full, 0, np.mod(k_lo, nd_))
                ln_j[:, dim] = np.minimum(length, nd_)
            else:
                blk |= (r_lo[:, dim] < xlo[dim] - _TOL) | (r_hi[:, dim] > xhi[dim] + _TOL)
                k_lo = np.clip(k_lo, 0, nd_ - 1)
                k_hi = np.clip(k_hi, 0, nd_ - 1)
                lo_j[:, dim] = k_lo
                ln_j[:, dim] = np.maximum(k_hi - k_lo + 1, 0)
        return j, lo_j, ln_j, blk

    nw = workers if workers is not None else _default_workers()
    if nw > 1:
        with ThreadPoolExecutor(max_workers=nw) as pool:
            results = list(pool.map(one_input, range(m)))
    else:
        results = [one_input(j) for j in range(m)]
    for j, lo_j, ln_j, blk in results:
        lo[:, j, :] = lo_j
        ln[:, j, :] = ln_j
        blocked[:, j] = blk
    return Abstraction(grid_x=grid_x, grid_u=grid_u, tau=sys.tau,
                       lo=lo, ln=ln, blocked=blocked)


class ExplicitTransitions:
    """Arbitrary finite transition system given by successor lists.

    Used for hand-built game examples and as the shape the synthesis
    oracle tests exercise; shares the ``post``/``flat_transitions``
    surface with :class:`Abstraction`.
    """

    def __init__(self, n_states: int, n_inputs: int,
                 succ: dict[tuple[int, int], list[int]]):
        self.n_states = n_states
        self.n_inputs = n_inputs
        self._succ = {
            k: np.array(sorted(v), dtype=np.int64) for k, v in succ.items()
        }
        self._flat = None

    def post(self, state: int, inp: int) -> np.ndarray:
        if not (0 <= state < self.n_states and 0 <= inp < self.n_inputs):
            raise InvalidCell(f"pair ({state}, {inp}) out of range")
        return self._succ.get((state, inp), np.empty(0, dtype=np.int64))

    def flat_transitions(self):
        if self._flat is None:
            lens = np.zeros(self.n_states * self.n_inputs, dtype=np.int64)
            chunks = []
            for s in range(self.n_states):
                for u in range(self.n_inputs):
                    succ = self._succ.get((s, u))
                    if succ is not None and succ.size:
                        lens[s * self.n_inputs + u] = succ.size
                        chunks.append(succ)
            flat = (np.concatenate(chunks) if chunks
                    else np.empty(0, dtype=np.int64))
            offsets = np.concatenate(([0], np.cumsum(lens)))
            self._flat = (lens, offsets, flat)
        return self._flat
