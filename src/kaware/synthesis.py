"""Two-player game solving on the finite abstraction.

The controlled predecessor treats abstraction nondeterminism (disturbance
plus quantization) adversarially: an input counts only if every listed
successor lands in the goal set.  Reach-avoid is the least fixpoint of
CPre seeded with the target; the safety region of a forbidden set is the
greatest fixpoint.  Sweeps are vectorized over the flattened successor
arrays so re-synthesis during a run stays in the seconds range.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

_NO_RANK = np.iinfo(np.int32).max


def _as_bool_mask(n: int, cells) -> np.ndarray:
    if isinstance(cells, np.ndarray) and cells.dtype == bool:
        return cells
    mask = np.zeros(n, dtype=bool)
    idx = np.fromiter(cells, dtype=np.int64) if not isinstance(cells, np.ndarray) \
        else cells
    if idx.size:
        mask[idx] = True
    return mask


def _all_in(Z: np.ndarray, starts: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Controllability test: per successor segment ``succ[starts[i]:
    starts[i+1]]`` (the last runs to the end; none is empty), whether every
    successor lies in ``Z``."""
    if not starts.size:
        return np.zeros(0, dtype=bool)
    return np.logical_and.reduceat(Z[succ], starts)


def _pair_controllable(ts, Z: np.ndarray) -> np.ndarray:
    """Per (state, input) pair: successor set nonempty and entirely in Z."""
    lens, offsets, flat = ts.flat_transitions()
    ok = np.zeros(lens.size, dtype=bool)
    nz = lens > 0
    ok[nz] = _all_in(Z, offsets[:-1][nz], flat)
    return ok


def cpre(ts, Z, avoid=()) -> np.ndarray:
    """Controlled predecessor: states outside ``avoid`` with an input whose
    successors all lie in ``Z``.  Returns a boolean mask over states."""
    n, m = ts.n_states, ts.n_inputs
    Zm = _as_bool_mask(n, Z)
    Am = _as_bool_mask(n, avoid)
    pair_ok = _pair_controllable(ts, Zm).reshape(n, m)
    return pair_ok.any(axis=1) & ~Am


@dataclass
class Controller:
    """Winning region, fixpoint ranks, and the extracted feedback map.

    ``rank`` is the iteration at which a cell entered the winning set
    (0 = target).  ``allowed`` lists every input whose successors all have
    strictly smaller rank; ``policy`` is its lowest-index member, -1 for
    target cells and losing cells.
    """

    n_states: int
    winning_mask: np.ndarray       # bool (n_states,)
    rank_array: np.ndarray         # int32, _NO_RANK outside winning
    policy_array: np.ndarray       # int32 input index, -1 where undefined
    allowed_lens: np.ndarray       # int32 per pair (n_states * n_inputs)
    n_inputs: int
    sweeps: int = 0                # fixpoint sweeps, the last one adds nothing

    @property
    def winning(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.winning_mask).tolist())

    def rank(self, cell: int) -> int:
        r = int(self.rank_array[cell])
        if r == _NO_RANK:
            raise KeyError(f"cell {cell} is not winning")
        return r

    def policy(self, cell: int) -> int:
        p = int(self.policy_array[cell])
        if p < 0:
            raise KeyError(f"cell {cell} has no policy input")
        return p

    def allowed(self, cell: int) -> list[int]:
        base = cell * self.n_inputs
        return np.flatnonzero(
            self.allowed_lens[base:base + self.n_inputs]
        ).tolist()

    def export_csv(self, path: str):
        """Winning cells with their rank and chosen input (-1 at target)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell_index", "rank", "policy_input_index"])
            for cell in np.flatnonzero(self.winning_mask):
                writer.writerow([int(cell), int(self.rank_array[cell]),
                                 int(self.policy_array[cell])])


def solve_reach_avoid(ts, objective) -> Controller:
    """Least-fixpoint reach-avoid game: Z0 = target,
    Z(k+1) = target | cpre(Zk, avoid)."""
    n, m = ts.n_states, ts.n_inputs
    target = _as_bool_mask(n, objective.target)
    avoid = _as_bool_mask(n, objective.avoid)
    if (target & avoid).any():
        raise ValueError("target and avoid sets overlap")
    rank = np.full(n, _NO_RANK, dtype=np.int32)
    rank[target] = 0
    Z = target.copy()
    lens, offsets, flat = ts.flat_transitions()
    # Z only grows, so each sweep re-checks just the enabled pairs of the
    # undecided states; the pairs of a state leave once it is won
    open_pairs = np.repeat(~(target | avoid), m) & (lens > 0)
    owner = np.flatnonzero(open_pairs) // m     # the state of each open pair
    plens = lens[open_pairs]
    succ = flat[np.repeat(open_pairs, lens)]
    k = 0
    while True:
        k += 1
        new = np.zeros(n, dtype=bool)
        new[owner[_all_in(Z, np.cumsum(plens) - plens, succ)]] = True
        if not new.any():
            break
        rank[new] = k
        Z |= new
        keep = ~new[owner]
        succ = succ[np.repeat(keep, plens)]
        owner, plens = owner[keep], plens[keep]
    winning = Z
    # allowed inputs: all successors strictly decrease rank (or are target)
    max_succ_rank = np.full(lens.size, _NO_RANK, dtype=np.int64)
    nz = lens > 0
    if nz.any():
        starts = offsets[:-1][nz]
        max_succ_rank[nz] = np.maximum.reduceat(rank[flat].astype(np.int64), starts)
    state_rank = np.repeat(rank.astype(np.int64), m)
    state_win = np.repeat(winning & ~target, m)
    allowed = state_win & nz & (max_succ_rank < state_rank)
    policy = np.full(n, -1, dtype=np.int32)
    apairs = np.flatnonzero(allowed)
    if apairs.size:
        states = apairs // m
        inputs = apairs % m
        # pairs are scanned in ascending order, so the first hit per state
        # is the lowest input index
        first = np.unique(states, return_index=True)[1]
        policy[states[first]] = inputs[first]
    return Controller(n_states=n, winning_mask=winning, rank_array=rank,
                      policy_array=policy,
                      allowed_lens=allowed.astype(np.int32), n_inputs=m,
                      sweeps=k)


def respected_region(ts, forbidden) -> frozenset[int]:
    """Greatest fixpoint: the maximal set from which ``forbidden`` can be
    avoided forever (the extent of the temporal safety concept)."""
    n = ts.n_states
    Z = ~_as_bool_mask(n, forbidden)
    while True:
        nxt = Z & cpre(ts, Z)
        if (nxt == Z).all():
            return frozenset(np.flatnonzero(Z).tolist())
        Z = nxt
