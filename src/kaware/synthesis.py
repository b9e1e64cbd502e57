"""Two-player game solving on the finite abstraction.

The controlled predecessor treats abstraction nondeterminism (disturbance
plus quantization) adversarially: an input counts only if every successor
lands in the goal set.  Reach-avoid is the least fixpoint of CPre seeded
with the target.  The game comes in as a ``GameObjective``, whose target
and avoid ``CellSet``s are disjoint boolean masks over the states; the
solver reads those masks and never writes them.  The loop asks the
transition system's ``controllable`` hook which pairs of the given states
have all their successors in the goal set.  The hook answers ``(rows,
ok)``: ``rows`` are the positions of the states it read, ``ok`` their
pairs' answers, and a state it did not read has no controllable pair.  The
table abstraction reads only the states whose boxes can meet the fresh
cells, those the last sweep added (the first sweep passes the whole
target), and answers each pair by one lookup into erosion tables of the
goal set.  A sweep writes the goal set and the mask of added cells
only at the cells it wins and those the last sweep won.  The sweep that
wins a cell also picks its policy input, the lowest controllable one; the
controller keeps that one input per cell, not the set of inputs the sweep
found.  Any object with ``n_states`` and that hook can be solved, which is
how the tests solve their reference systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NO_RANK = np.iinfo(np.int32).max
_CSV_BLOCK = 4096  # controller CSV rows formatted per write


@dataclass
class Controller:
    """Winning region, fixpoint ranks, and the feedback map.

    ``rank_array`` holds the sweep at which a cell entered the winning set
    (0 = target).  ``policy_array`` holds the lowest input controllable in
    that sweep, so every successor of the cell under it has a strictly
    smaller rank; it is -1 for target cells and losing cells.
    """

    winning_mask: np.ndarray       # bool (n_states,)
    rank_array: np.ndarray         # int32, _NO_RANK outside winning
    policy_array: np.ndarray       # int32 input index, -1 where undefined
    sweeps: int                    # fixpoint sweeps, the last one adds nothing

    def policy(self, cell: int) -> int:
        p = int(self.policy_array[cell])
        if p < 0:
            raise KeyError(f"cell {cell} has no policy input")
        return p

    def export_csv(self, path: str):
        """Winning cells with their rank and chosen input (-1 at target),
        as ``csv.writer`` would write them: comma-separated, CRLF.  Rows
        are formatted ``_CSV_BLOCK`` at a time, so the text in memory stays
        small whatever the winning region's size; so are the rows gathered,
        a block of winning cells at a time."""
        cells = np.flatnonzero(self.winning_mask)
        with open(path, "w", newline="") as fh:
            fh.write("cell_index,rank,policy_input_index\r\n")
            for i in range(0, len(cells), _CSV_BLOCK):
                block = cells[i:i + _CSV_BLOCK]
                rows = np.column_stack((block, self.rank_array[block],
                                        self.policy_array[block]))
                fh.write("%d,%d,%d\r\n" * len(rows) % tuple(rows.ravel().tolist()))


def solve_reach_avoid(ts, objective) -> Controller:
    """Least-fixpoint reach-avoid game: Z0 = target,
    Z(k+1) = target | (CPre(Zk) minus avoid).

    Z only grows, so each sweep asks ``ts.controllable`` about the pairs of
    the undecided states only, passing the cells the last sweep added; it
    reduces only the rows the hook read.  A state leaves once won, with the
    lowest input controllable in that sweep as its policy input.  The
    mask of added cells is updated in place, cleared at the cells the last
    sweep added and set at those this one adds, and ``Z`` is set at the
    latter only; the hook must not keep ``fresh`` past its call.
    """
    n = ts.n_states
    target, avoid = objective.target.mask, objective.avoid.mask
    if target.size != n:
        raise ValueError(f"objective covers {target.size} cells, "
                         f"the system has {n} states")
    rank = np.full(n, _NO_RANK, dtype=np.int32)
    rank[target] = 0
    policy = np.full(n, -1, dtype=np.int32)
    Z = target.copy()
    fresh = target.copy()
    new = np.flatnonzero(target)  # the cells fresh holds
    states = np.flatnonzero(~(target | avoid))
    k = 0
    while True:
        k += 1
        rows, ok = ts.controllable(Z, states, fresh)
        won = ok.any(axis=1)
        hit = rows[won]
        if not hit.size:
            break
        fresh[new] = False
        new = states[hit]
        rank[new] = k
        # argmax finds the first True: the lowest controllable input
        policy[new] = ok[won].argmax(axis=1)
        fresh[new] = True
        Z[new] = True
        keep = np.ones(states.size, dtype=bool)
        keep[hit] = False
        states = states[keep]
    return Controller(winning_mask=Z, rank_array=rank, policy_array=policy,
                      sweeps=k)
