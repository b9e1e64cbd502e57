"""Two-player game solving on the finite abstraction.

The controlled predecessor treats abstraction nondeterminism (disturbance
plus quantization) adversarially: an input counts only if every successor
lands in the goal set.  Reach-avoid is the least fixpoint of CPre seeded
with the target.  The loop asks the transition system's ``controllable``
hook which pairs of the given states have all their successors in the goal
set.  The hook answers ``(rows, ok)``: ``rows`` are the positions of the
states it read, ``ok`` their pairs' answers, and a state it did not read
has no controllable pair.  The table abstraction reads only the states
whose boxes can meet the cells the last sweep added, and answers each pair
by one lookup into erosion tables of the goal set.  Any object with
``n_states``, ``n_inputs`` and that hook can be solved, which is how the
tests solve their reference systems.
"""

from __future__ import annotations

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


@dataclass
class Controller:
    """Winning region, fixpoint ranks, and the extracted feedback map.

    ``rank_array`` holds the iteration at which a cell entered the winning
    set (0 = target).  ``allowed_mask`` marks every input whose successors
    all have strictly smaller rank, that is, every input controllable in the
    sweep that won the cell; ``policy_array`` is its lowest-index member, -1
    for target cells and losing cells.
    """

    n_states: int
    winning_mask: np.ndarray       # bool (n_states,)
    rank_array: np.ndarray         # int32, _NO_RANK outside winning
    policy_array: np.ndarray       # int32 input index, -1 where undefined
    allowed_mask: np.ndarray       # bool (n_states, n_inputs)
    sweeps: int = 0                # fixpoint sweeps, the last one adds nothing

    def policy(self, cell: int) -> int:
        p = int(self.policy_array[cell])
        if p < 0:
            raise KeyError(f"cell {cell} has no policy input")
        return p

    def export_csv(self, path: str):
        """Winning cells with their rank and chosen input (-1 at target),
        as ``csv.writer`` would write them: comma-separated, CRLF."""
        cells = np.flatnonzero(self.winning_mask)
        rows = np.column_stack((cells, self.rank_array[cells],
                                self.policy_array[cells]))
        with open(path, "w", newline="") as fh:
            fh.write("cell_index,rank,policy_input_index\r\n")
            fh.write("%d,%d,%d\r\n" * len(cells) % tuple(rows.ravel().tolist()))


def solve_reach_avoid(ts, objective) -> Controller:
    """Least-fixpoint reach-avoid game: Z0 = target,
    Z(k+1) = target | (CPre(Zk) minus avoid).

    Z only grows, so each sweep asks ``ts.controllable`` about the pairs of
    the undecided states only, passing the cells the last sweep added; it
    reduces only the rows the hook read.  A state leaves once won, with the
    inputs controllable in that sweep as its allowed inputs.
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
        rows, ok = ts.controllable(Z, states, fresh)
        won = ok.any(axis=1)
        if not won.any():
            break
        new = states[rows[won]]
        rank[new] = k
        allowed[new] = ok[won]
        fresh = np.zeros(n, dtype=bool)
        fresh[new] = True
        Z |= fresh
        states = np.delete(states, rows[won])
    # the lowest allowed input; argmax finds the first True
    policy = np.where(allowed.any(axis=1), allowed.argmax(axis=1), -1)
    return Controller(n_states=n, winning_mask=Z, rank_array=rank,
                      policy_array=policy.astype(np.int32),
                      allowed_mask=allowed, sweeps=k)

