"""Two-player game solving on the finite abstraction.

The controlled predecessor treats abstraction nondeterminism (disturbance
plus quantization) adversarially: an input counts only if every listed
successor lands in the goal set.  Reach-avoid is the least fixpoint of
CPre seeded with the target; the safety region of a forbidden set is the
greatest fixpoint.  One fixpoint loop serves every transition system: it
asks the system's ``controllable`` hook which pairs of the undecided
states have all their successors in the goal set.  The table abstraction
answers from a summed-area table of the goal set, an explicit system from
its flat successor lists.
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


def cpre(ts, Z, avoid=()) -> np.ndarray:
    """Controlled predecessor: states outside ``avoid`` with an input whose
    successors all lie in ``Z``.  Returns a boolean mask over states."""
    n = ts.n_states
    Zm = _as_bool_mask(n, Z)
    Am = _as_bool_mask(n, avoid)
    return ts.controllable(Zm, np.arange(n)).any(axis=1) & ~Am


@dataclass
class Controller:
    """Winning region, fixpoint ranks, and the extracted feedback map.

    ``rank`` is the iteration at which a cell entered the winning set
    (0 = target).  ``allowed`` lists every input whose successors all have
    strictly smaller rank, that is, every input controllable in the sweep
    that won the cell; ``policy`` is its lowest-index member, -1 for target
    cells and losing cells.
    """

    n_states: int
    winning_mask: np.ndarray       # bool (n_states,)
    rank_array: np.ndarray         # int32, _NO_RANK outside winning
    policy_array: np.ndarray       # int32 input index, -1 where undefined
    allowed_mask: np.ndarray       # bool (n_states, n_inputs)
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
        return np.flatnonzero(self.allowed_mask[cell]).tolist()

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
    Z(k+1) = target | cpre(Zk, avoid).

    Z only grows, so each sweep asks ``ts.controllable`` about the pairs of
    the undecided states only, passing the cells the last sweep added; a
    state leaves once won, with the inputs controllable in that sweep as its
    allowed inputs.
    """
    n, m = ts.n_states, ts.n_inputs
    target = _as_bool_mask(n, objective.target)
    avoid = _as_bool_mask(n, objective.avoid)
    if (target & avoid).any():
        raise ValueError("target and avoid sets overlap")
    rank = np.full(n, _NO_RANK, dtype=np.int32)
    rank[target] = 0
    allowed = np.zeros((n, m), dtype=bool)
    Z = target.copy()
    fresh = target
    states = np.flatnonzero(~(target | avoid))
    k = 0
    while True:
        k += 1
        ok = ts.controllable(Z, states, fresh)
        won = ok.any(axis=1)
        if not won.any():
            break
        new = states[won]
        rank[new] = k
        allowed[new] = ok[won]
        fresh = np.zeros(n, dtype=bool)
        fresh[new] = True
        Z |= fresh
        states = states[~won]
    # the lowest allowed input; argmax finds the first True
    policy = np.where(allowed.any(axis=1), allowed.argmax(axis=1), -1)
    return Controller(n_states=n, winning_mask=Z, rank_array=rank,
                      policy_array=policy.astype(np.int32),
                      allowed_mask=allowed, sweeps=k)


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
