"""Independent reference implementations used to pin expected values.

Most of it is deliberately naive (plain loops, sets, Taylor series) so
that agreement with the library is evidence, not tautology.  It also holds
the reference systems the library's solvers and concept evaluation run
on in the tests -- an explicit transition system given by successor lists
and an explicit role given by its pairs -- the per-pair successor lists of
the table abstraction, its per-cell enabled bits, the scalar Proximity relation that the
vectorized kernel is checked against, the safety fixpoint
(``respected_region``), the set-valued controller (``allowed_inputs``),
the sampled rank-decrease check of a controller under the real flow
(``concrete_rank_decrease``, with its own quantizer) and the bundled run's
reroute shape (``reroute_shape``) that only the tests use.  Imports from the library
are limited to the flow, the growth bound, a table's ``boxes``, the
grid's ``HyperRect``, the game objective types that ``objective`` builds
from cell indices, and the AST node types a converter has to
pattern-match.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# dynamics


def dubins_arc(x0, u, t):
    """Closed-form unit-speed arc: exact endpoint of the Dubins ODE."""
    x1, x2, th = float(x0[0]), float(x0[1]), float(x0[2])
    if abs(u) < 1e-12:
        return np.array([x1 + t * math.cos(th), x2 + t * math.sin(th), th])
    return np.array([
        x1 + (math.sin(th + u * t) - math.sin(th)) / u,
        x2 + (math.cos(th) - math.cos(th + u * t)) / u,
        th + u * t,
    ])


def expm_series(A, tol=1e-16):
    """Matrix exponential by scaled-and-squared Taylor series."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = np.abs(A).sum(axis=1).max()
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    B = A / (2 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ B / k
        out = out + term
        if np.abs(term).max() < tol:
            break
    for _ in range(s):
        out = out @ out
    return out


def int_expm_series(A, tau, tol=1e-16):
    """integral_0^tau e^{A s} ds = sum_k tau^{k+1}/(k+1)! A^k, term by term."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    out = np.zeros((n, n))
    term = np.eye(n) * tau
    k = 0
    while np.abs(term).max() >= tol and k < 80:
        out = out + term
        k += 1
        term = term @ A * (tau / (k + 1))
    return out


# ---------------------------------------------------------------------------
# abstraction


def per_cell_boxes(sys, grid_x, grid_u, tol=1e-9):
    """Successor boxes built cell by cell: every cell center is flowed for
    one period under every input and the growth-bound rectangle is turned
    into index ranges.

    Returns ``(lo, ln, blocked)``: ``lo`` and ``ln`` are ``(N, M, d)`` box
    starts and lengths (periodic starts wrapped, 0 when the box covers the
    circle; other starts and ends clipped to the axis), ``blocked`` is
    ``(N, M)``: the rectangle leaves the bounds on a non-periodic dimension.
    This is the construction the table abstraction replaced.
    """
    from kaware.dynamics import flow, growth_matrices

    n, m, d = grid_x.size, grid_u.size, grid_x.ndim
    centers = grid_x.centers()
    eL, iL = growth_matrices(sys.lipschitz, sys.tau)
    radius = eL @ (grid_x.eta / 2) + iL @ sys.dist_halfwidth
    lo = np.zeros((n, m, d), dtype=np.int64)
    ln = np.zeros((n, m, d), dtype=np.int64)
    blocked = np.zeros((n, m), dtype=bool)
    xlo, xhi = grid_x.bounds.lower, grid_x.bounds.upper
    for j in range(m):
        c_out = flow(sys, centers, grid_u.center(j), sys.tau)
        r_lo = c_out - radius
        r_hi = c_out + radius
        for dim in range(d):
            nd_ = int(grid_x.counts[dim])
            eta = grid_x.eta[dim]
            k_lo = np.floor((r_lo[:, dim] - xlo[dim]) / eta - 0.5 + tol).astype(np.int64) + 1
            k_hi = np.ceil((r_hi[:, dim] - xlo[dim]) / eta + 0.5 - tol).astype(np.int64) - 1
            if grid_x.periodic[dim]:
                length = k_hi - k_lo + 1
                lo[:, j, dim] = np.where(length >= nd_, 0, np.mod(k_lo, nd_))
                ln[:, j, dim] = np.minimum(length, nd_)
            else:
                blocked[:, j] |= ((r_lo[:, dim] < xlo[dim] - tol)
                                  | (r_hi[:, dim] > xhi[dim] + tol))
                k_lo = np.clip(k_lo, 0, nd_ - 1)
                k_hi = np.clip(k_hi, 0, nd_ - 1)
                lo[:, j, dim] = k_lo
                ln[:, j, dim] = np.maximum(k_hi - k_lo + 1, 0)
    return lo, ln, blocked


def post(abs_, state, inp):
    """Sorted successor cells of the pair, expanded from the table's box;
    empty if the pair is blocked."""
    lo, hi = abs_.boxes(state, inp)
    counts = abs_.grid_x.counts
    axes = [np.arange(lo[d], hi[d]) % counts[d] for d in range(len(counts))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.sort(np.ravel_multi_index(tuple(m.ravel() for m in mesh),
                                        tuple(counts)))


def summed_area(mask, grid):
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


def box_counts(summed, lo, hi):
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


def controllable_summed(abs_, Z, states):
    """The table's controllability answer, counted box by box: a pair
    qualifies when its box (``boxes``) is nonempty and holds as many cells
    of ``Z`` as it has cells, read off a summed-area table of ``Z``."""
    lo, hi = abs_.boxes(states[:, None], np.arange(abs_.n_inputs))
    size = np.prod(hi - lo, axis=0)
    return (size > 0) & (box_counts(summed_area(Z, abs_.grid_x), lo, hi) == size)


def enabled_bits(abs_):
    """Per state, its pairs' enabled bits packed along the inputs
    (``np.packbits``, little-endian), worked out cell by cell: a pair is
    enabled when the cell's index on every non-periodic dimension lies in
    its row's ``enabled`` range there.  This is the per-cell array (n_states
    × 7 bytes at full scale) the abstraction kept before it factored the
    bits per dimension."""
    grid, m = abs_.grid_x, abs_.n_inputs
    counts = tuple(int(n) for n in grid.counts)
    idx = np.indices(counts).reshape(grid.ndim, -1)
    keyed = [d for d in range(grid.ndim) if d not in abs_.invariant]
    kappa = np.zeros(grid.size, dtype=np.int64)
    for d in keyed:
        kappa = kappa * counts[d] + idx[d]
    rows = kappa[:, None] * m + np.arange(m)
    on = np.ones((grid.size, m), dtype=bool)
    for a, d in enumerate(np.flatnonzero(~grid.periodic)):
        at = idx[d][:, None]
        on &= (abs_.enabled[rows, a, 0] <= at) & (at < abs_.enabled[rows, a, 1])
    return np.packbits(on, axis=1, bitorder="little")


def pair_sizes(abs_):
    """Successor count per (state, input) pair, row-major; 0 if blocked."""
    states = np.arange(abs_.n_states)
    sizes = []
    for u in range(abs_.n_inputs):
        lo, hi = abs_.boxes(states, u)
        sizes.append(np.prod(hi - lo, axis=0))
    return np.stack(sizes, axis=1).reshape(-1)


# ---------------------------------------------------------------------------
# grids


def nearest_point_index(lower, eta, count, x):
    """Argmin over the explicitly enumerated grid points of one dimension."""
    points = [lower + k * eta for k in range(count)]
    return min(range(count), key=lambda k: abs(x - points[k]))


def cell_rect(grid, cell):
    """The cell's rect: its center plus and minus half a cell width."""
    from kaware.grid import HyperRect
    c = grid.center(cell)
    return HyperRect(c - grid.eta / 2, c + grid.eta / 2)


def cells_overlapping_bruteforce(grid, region_lo, region_hi):
    """All cells whose rect has positive-measure overlap with the box, where
    on a non-periodic dimension the last rect reaches the upper bound (the
    trailing remainder of the bounds quantizes to the last cell)."""
    out = []
    for cell in range(grid.size):
        r = cell_rect(grid, cell)
        last = ~grid.periodic & (grid.multi_index(cell) == grid.counts - 1)
        upper = np.where(last, np.maximum(r.upper, grid.bounds.upper), r.upper)
        if all(r.lower[d] < region_hi[d] and region_lo[d] < upper[d]
               for d in range(grid.ndim)):
            out.append(cell)
    return out


def index_interval(grid, dim, lo, hi, tol=1e-9):
    """The scalar rule regions followed before the last cell owned the
    trailing remainder: ``(k_lo, length)`` of the cells whose rect overlaps
    ``[lo, hi]`` on ``dim`` by positive measure (1e-9 relative band), the
    range wrapping on a periodic dimension."""
    eta = grid.eta[dim]
    t1 = (lo - grid.bounds.lower[dim]) / eta
    t2 = (hi - grid.bounds.lower[dim]) / eta
    k_lo = int(np.floor(t1 - 0.5 + tol)) + 1
    k_hi = int(np.ceil(t2 + 0.5 - tol)) - 1
    n = int(grid.counts[dim])
    if grid.periodic[dim]:
        if k_hi - k_lo + 1 >= n:
            return 0, n
        return k_lo % n, max(k_hi - k_lo + 1, 0)
    k_lo = max(k_lo, 0)
    k_hi = min(k_hi, n - 1)
    return k_lo, max(k_hi - k_lo + 1, 0)


def cells_by_index_interval(grid, lo, hi):
    """Sorted flat cells of the product of :func:`index_interval` ranges."""
    cells = [0]
    for d in range(grid.ndim):
        k0, ln = index_interval(grid, d, lo[d], hi[d])
        n = int(grid.counts[d])
        cells = [c * n + (k0 + i) % n for c in cells for i in range(ln)]
    return sorted(cells)


# ---------------------------------------------------------------------------
# games


def objective(n, target, avoid=()):
    """The game objective over ``n`` cells with the given target and avoid
    cell indices."""
    from kaware.ltl import CellSet, GameObjective
    masks = np.zeros((2, n), dtype=bool)
    masks[0, list(target)] = True
    masks[1, list(avoid)] = True
    return GameObjective(CellSet(masks[0]), CellSet(masks[1]))


class ExplicitTransitions:
    """Finite transition system given by successor lists: the reference
    system the synthesis tests solve.  Answers the solvers'
    ``controllable`` hook from its flat successor arrays."""

    def __init__(self, n_states, n_inputs, succ):
        self.n_states = n_states
        self.n_inputs = n_inputs
        self._succ = {k: np.array(sorted(v), dtype=np.int64)
                      for k, v in succ.items()}
        self._flat = None

    def post(self, state, inp):
        return self._succ.get((state, inp), np.empty(0, dtype=np.int64))

    def flat_transitions(self):
        """``(lens, offsets, flat)`` successor arrays, pairs row-major."""
        if self._flat is None:
            lens = np.zeros(self.n_states * self.n_inputs, dtype=np.int64)
            chunks = []
            for (s, u), succ in sorted(self._succ.items()):
                lens[s * self.n_inputs + u] = succ.size
                chunks.append(succ)
            flat = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
            self._flat = (lens, np.concatenate(([0], np.cumsum(lens))), flat)
        return self._flat

    def controllable(self, Z, states, fresh):
        """``(rows, ok)`` as the solver reads it: every position of
        ``states`` is read, and ``ok`` holds, per state and input, whether
        its successors are nonempty and all in ``Z``.  ``fresh`` is
        accepted and not needed."""
        lens, offsets, flat = self.flat_transitions()
        m = self.n_inputs
        pairs = (states[:, None] * m + np.arange(m)).reshape(-1)
        plens = lens[pairs]
        ok = np.zeros(pairs.size, dtype=bool)
        seg = plens[plens > 0]
        if seg.size:
            first = np.cumsum(seg) - seg
            slots = np.repeat(offsets[pairs[plens > 0]] - first, seg) \
                + np.arange(int(seg.sum()))
            ok[plens > 0] = np.logical_and.reduceat(Z[flat[slots]], first)
        return np.arange(states.size), ok.reshape(-1, m)


def dense_controllable(ts, Z, states, fresh=None):
    """The ``controllable`` hook's ``(rows, ok)`` scattered into a dense
    ``(len(states), n_inputs)`` answer, false on the rows it did not read.
    With no ``fresh`` it asks as a first call does, with ``fresh = Z``."""
    rows, ok = ts.controllable(Z, states, Z if fresh is None else fresh)
    out = np.zeros((states.size, ts.n_inputs), dtype=bool)
    out[rows] = ok
    return out


def allowed_inputs(ts, ctrl):
    """The set-valued controller of a solved game: per cell, every input
    controllable in the sweep that won it, as a bool ``(n_states,
    n_inputs)`` array; false on target and losing cells.  The cells of rank
    k >= 1 get the hook's answer to the call the solve made at sweep k:
    goal set ``rank < k``, fresh cells ``rank == k - 1``."""
    rank = ctrl.rank_array
    out = np.zeros((ts.n_states, ts.n_inputs), dtype=bool)
    for k in np.unique(rank[ctrl.winning_mask & (rank > 0)]):
        states = np.flatnonzero(rank == k)
        out[states] = dense_controllable(ts, rank < k, states, rank == k - 1)
    return out


def cpre(ts, Z, avoid=()):
    """Controlled predecessor as the solvers compute it: states outside
    ``avoid`` with an input whose successors all lie in ``Z`` (cell sets);
    a bool mask over states."""
    n = ts.n_states
    Zm = np.zeros(n, dtype=bool)
    Zm[list(Z)] = True
    out = dense_controllable(ts, Zm, np.arange(n)).any(axis=1)
    out[list(avoid)] = False
    return out


def respected_region(ts, forbidden):
    """Greatest fixpoint of CPre: the maximal set from which the cells of
    ``forbidden`` can be avoided forever (the extent of a temporal safety
    concept), read through the solver's ``controllable`` hook."""
    n = ts.n_states
    Z = np.ones(n, dtype=bool)
    Z[list(forbidden)] = False
    while True:
        nxt = Z & dense_controllable(ts, Z, np.arange(n)).any(axis=1)
        if (nxt == Z).all():
            return frozenset(np.flatnonzero(Z).tolist())
        Z = nxt


def reach_avoid_bruteforce(n_states, n_inputs, post, target, avoid):
    """Naive backward induction; returns (winning set, rank dict)."""
    target = set(target)
    avoid = set(avoid)
    win = set(target)
    rank = {s: 0 for s in target}
    k = 0
    while True:
        k += 1
        new = set()
        for s in range(n_states):
            if s in win or s in avoid:
                continue
            for u in range(n_inputs):
                succ = list(post(s, u))
                if succ and all(t in win for t in succ):
                    new.add(s)
                    break
        if not new:
            return win, rank
        for s in new:
            rank[s] = k
        win |= new


def safety_bruteforce(n_states, n_inputs, post, forbidden):
    """Greatest fixpoint by repeated pruning of states with no safe input."""
    alive = set(range(n_states)) - set(forbidden)
    while True:
        keep = set()
        for s in alive:
            for u in range(n_inputs):
                succ = list(post(s, u))
                if succ and all(t in alive for t in succ):
                    keep.add(s)
                    break
        if keep == alive:
            return alive
        alive = keep


def random_game(rng, max_states=50, n_inputs=4):
    """A random sparse transition system as a successor dict."""
    n = int(rng.integers(2, max_states + 1))
    succ = {}
    for s in range(n):
        for u in range(n_inputs):
            if rng.random() < 0.15:
                continue  # blocked pair
            k = int(rng.integers(1, 4))
            succ[(s, u)] = sorted(set(rng.integers(0, n, size=k).tolist()))
    return n, n_inputs, succ


# ---------------------------------------------------------------------------
# bounded LTL over ('op', ...) tuples


def ltl_holds(phi, trace, i=0):
    op = phi[0]
    if op == "true":
        return True
    if op == "p":
        return phi[1] in trace[i]
    if op == "not":
        return not ltl_holds(phi[1], trace, i)
    if op == "and":
        return ltl_holds(phi[1], trace, i) and ltl_holds(phi[2], trace, i)
    if op == "or":
        return ltl_holds(phi[1], trace, i) or ltl_holds(phi[2], trace, i)
    if op == "imp":
        return (not ltl_holds(phi[1], trace, i)) or ltl_holds(phi[2], trace, i)
    if op == "next":
        return i + 1 < len(trace) and ltl_holds(phi[1], trace, i + 1)
    if op == "until":
        # exists j >= i with right at j and left everywhere before it
        return any(
            ltl_holds(phi[2], trace, j)
            and all(ltl_holds(phi[1], trace, k) for k in range(i, j))
            for j in range(i, len(trace))
        )
    if op == "ev":
        return ltl_holds(("until", ("true",), phi[1]), trace, i)
    if op == "alw":
        return all(ltl_holds(phi[1], trace, k) for k in range(i, len(trace)))
    raise ValueError(op)


def check_trace_recursive(phi, trace, at=0):
    """Bounded satisfaction of a library formula at position ``at``, by
    recursion over the positions: each subformula is evaluated again at
    every position an operator above it asks about."""
    from kaware import ltl as m

    if isinstance(phi, m.Top):
        return True
    if isinstance(phi, m.Atomic):
        return phi.name in trace[at]
    if isinstance(phi, m.Not):
        return not check_trace_recursive(phi.arg, trace, at)
    if isinstance(phi, m.And):
        return (check_trace_recursive(phi.left, trace, at)
                and check_trace_recursive(phi.right, trace, at))
    if isinstance(phi, m.Or):
        return (check_trace_recursive(phi.left, trace, at)
                or check_trace_recursive(phi.right, trace, at))
    if isinstance(phi, m.Implies):
        return (not check_trace_recursive(phi.left, trace, at)
                or check_trace_recursive(phi.right, trace, at))
    if isinstance(phi, m.Next):
        return at + 1 < len(trace) and check_trace_recursive(phi.arg, trace, at + 1)
    if isinstance(phi, m.Until):
        for k in range(at, len(trace)):
            if check_trace_recursive(phi.right, trace, k):
                return True
            if not check_trace_recursive(phi.left, trace, k):
                return False
        return False
    if isinstance(phi, m.Eventually):
        return any(check_trace_recursive(phi.arg, trace, k)
                   for k in range(at, len(trace)))
    if isinstance(phi, m.Always):
        return all(check_trace_recursive(phi.arg, trace, k)
                   for k in range(at, len(trace)))
    raise TypeError(f"not a formula: {phi!r}")


def to_tuple_formula(phi):
    """Convert a library formula AST into the oracle's tuple form."""
    from kaware import ltl as m

    if isinstance(phi, m.Top):
        return ("true",)
    if isinstance(phi, m.Atomic):
        return ("p", phi.name)
    if isinstance(phi, m.Not):
        return ("not", to_tuple_formula(phi.arg))
    if isinstance(phi, m.And):
        return ("and", to_tuple_formula(phi.left), to_tuple_formula(phi.right))
    if isinstance(phi, m.Or):
        return ("or", to_tuple_formula(phi.left), to_tuple_formula(phi.right))
    if isinstance(phi, m.Implies):
        return ("imp", to_tuple_formula(phi.left), to_tuple_formula(phi.right))
    if isinstance(phi, m.Next):
        return ("next", to_tuple_formula(phi.arg))
    if isinstance(phi, m.Until):
        return ("until", to_tuple_formula(phi.left), to_tuple_formula(phi.right))
    if isinstance(phi, m.Eventually):
        return ("ev", to_tuple_formula(phi.arg))
    if isinstance(phi, m.Always):
        return ("alw", to_tuple_formula(phi.arg))
    raise TypeError(phi)


def pretty(phi, temporal: bool = True) -> str:
    """Minimal-parenthesis printer of a library formula, so that
    ``parse_ltl(pretty(phi)) == phi`` and, for a concept,
    ``parse_concept(pretty(phi, temporal=False)) == phi``; it exercises the
    parser's precedence and associativity.  ``temporal`` picks the
    spelling of ``Top``."""
    from kaware import ltl as m

    prec = {m.Implies: 1, m.Or: 2, m.And: 3, m.Until: 4, m.Next: 5,
            m.Eventually: 5, m.Always: 5, m.Not: 6, m.Exists: 6, m.Forall: 6,
            m.Top: 7, m.Bottom: 7, m.Atomic: 7}

    def wrap(child, level: int) -> str:
        s = pretty(child, temporal)
        return f"({s})" if prec[type(child)] < level else s

    if isinstance(phi, m.Top):
        return "true" if temporal else "top"
    if isinstance(phi, m.Bottom):
        return "bottom"
    if isinstance(phi, m.Atomic):
        return phi.name
    if isinstance(phi, m.Not):
        return "!" + wrap(phi.arg, 6)
    if isinstance(phi, m.Exists):
        return f"exists {phi.role}.{wrap(phi.arg, 6)}"
    if isinstance(phi, m.Forall):
        return f"forall {phi.role}.{wrap(phi.arg, 6)}"
    if isinstance(phi, m.Next):
        return "X " + wrap(phi.arg, 5)
    if isinstance(phi, m.Eventually):
        return "F " + wrap(phi.arg, 5)
    if isinstance(phi, m.Always):
        return "G " + wrap(phi.arg, 5)
    if isinstance(phi, m.Until):
        # right-associative: the left child needs parens at equal precedence
        return f"{wrap(phi.left, 5)} U {wrap(phi.right, 4)}"
    if isinstance(phi, m.And):
        return f"{wrap(phi.left, 3)} & {wrap(phi.right, 4)}"
    if isinstance(phi, m.Or):
        return f"{wrap(phi.left, 2)} | {wrap(phi.right, 3)}"
    if isinstance(phi, m.Implies):
        return f"{wrap(phi.left, 2)} -> {wrap(phi.right, 1)}"
    raise TypeError(phi)


# ---------------------------------------------------------------------------
# proximity: the scalar relation, and dense sampling


class ExplicitRole:
    """Role given by an explicit pair set (hand-built interpretations)."""

    def __init__(self, pairs):
        self.sources, self.targets = \
            np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T

    def preimage(self, targets):
        found = np.zeros(targets.size, dtype=bool)
        found[self.sources[targets[self.targets]]] = True
        return found


def planar_gap(ra, rb, dim):
    return max(0.0, rb.lower[dim] - ra.upper[dim], ra.lower[dim] - rb.upper[dim])


def _angle_in_interval(phi, lo, hi):
    """Membership of phi in the wrapped closed interval [lo, hi]."""
    width = hi - lo
    if width >= 2 * np.pi:
        return True
    return (phi - lo) % (2 * np.pi) <= width


def directional_max(ra, rb, theta_lo, theta_hi):
    """Max of ``(x1'-x1) cos t + (x2'-x2) sin t`` over both rects and headings.

    The planar offsets range over corner intervals; for fixed offsets the
    heading maximum of ``R cos(t - phi)`` is at an interval endpoint or at
    the critical heading ``phi = atan2(d2, d1)`` when it lies inside.
    """
    best = -np.inf
    for d1 in (rb.lower[0] - ra.upper[0], rb.upper[0] - ra.lower[0]):
        for d2 in (rb.lower[1] - ra.upper[1], rb.upper[1] - ra.lower[1]):
            r = math.hypot(d1, d2)
            if r == 0.0:
                best = max(best, 0.0)
                continue
            phi = math.atan2(d2, d1)
            if _angle_in_interval(phi, theta_lo, theta_hi):
                cand = r
            else:
                cand = r * max(math.cos(theta_lo - phi), math.cos(theta_hi - phi))
            best = max(best, cand)
    return best


def proximity(grid_x, cell, other, max_range):
    """Detection relation, one pair at a time: ``other`` is within range
    and ahead of ``cell`` by more than the grid's 1e-9 band."""
    ra = cell_rect(grid_x, cell)
    rb = cell_rect(grid_x, other)
    gap = math.hypot(planar_gap(ra, rb, 0), planar_gap(ra, rb, 1))
    if gap >= max_range:
        return False
    return directional_max(ra, rb, ra.lower[2], ra.upper[2]) > 1e-9


def proximity_sampled(grid, a, b, max_range, samples=5):
    """Sampled evaluation of the detection relation (5 points per dim).

    Grid cells are identical or interior-disjoint per dimension, so the
    sampled minimum planar distance is exact (endpoints are included).
    The heading maximum is only sampled; callers must exclude pairs whose
    analytic directional maximum sits inside the sampling margin band.
    """
    ra, rb = cell_rect(grid, a), cell_rect(grid, b)
    a1 = np.linspace(ra.lower[0], ra.upper[0], samples)
    a2 = np.linspace(ra.lower[1], ra.upper[1], samples)
    th = np.linspace(ra.lower[2], ra.upper[2], samples)
    b1 = np.linspace(rb.lower[0], rb.upper[0], samples)
    b2 = np.linspace(rb.lower[1], rb.upper[1], samples)
    A1, A2 = np.meshgrid(a1, a2, indexing="ij")
    B1, B2 = np.meshgrid(b1, b2, indexing="ij")
    d1 = B1.reshape(1, -1) - A1.reshape(-1, 1)
    d2 = B2.reshape(1, -1) - A2.reshape(-1, 1)
    dist = float(np.hypot(d1, d2).min())
    direction = (d1[..., None] * np.cos(th) + d2[..., None] * np.sin(th)).max()
    return dist < max_range and float(direction) > 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo abstraction soundness


def mc_soundness(abs_, sys, n_samples, rng, pieces=4):
    """Count containment violations of post() under sampled concrete steps.

    Each sample draws a (state, input) pair, a state inside the cell, and a
    piecewise-constant disturbance with `pieces` pieces in W, integrates one
    period, and checks that the quantized endpoint is a listed successor
    (samples whose endpoint leaves the state space are skipped: the pair is
    blocked or the exit is the abstraction's responsibility elsewhere).
    """
    from kaware.dynamics import flow

    grid_x, grid_u = abs_.grid_x, abs_.grid_u
    violations = 0
    checked = 0
    while checked < n_samples:
        s = int(rng.integers(0, grid_x.size))
        u_idx = int(rng.integers(0, grid_u.size))
        succ = post(abs_, s, u_idx)
        if not succ.size:
            continue
        rect = cell_rect(grid_x, s)
        x = rng.uniform(rect.lower, rect.upper)
        u = grid_u.center(u_idx)
        for _ in range(pieces):
            w = rng.uniform(-sys.dist_halfwidth, sys.dist_halfwidth)
            x = flow(sys, x, u, sys.tau / pieces, disturbance=w)
        inside = np.all(~grid_x.periodic
                        & (x >= grid_x.bounds.lower)
                        & (x <= grid_x.bounds.upper)
                        | grid_x.periodic)
        if not inside:
            continue
        checked += 1
        if grid_x.quantize(x) not in succ:
            violations += 1
    return violations


# ---------------------------------------------------------------------------
# a controller under the real flow


def quantize_points(grid, x):
    """Flat cell of each row of ``x``: the nearest grid point, exact
    midpoints to the lower index, periodic coordinates wrapped first; -1
    for a row outside the state space (past a non-periodic bound by more
    than 1e-9, or not finite)."""
    lo, hi, eta, per = (grid.bounds.lower, grid.bounds.upper, grid.eta,
                        grid.periodic)
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        x = np.where(per, lo + np.mod(x - lo, hi - lo), x)
        inside = np.all(np.isfinite(x) & (per | ((x >= lo - 1e-9)
                                                 & (x <= hi + 1e-9))), axis=-1)
    x = np.where(inside[:, None], x, lo)
    k = np.ceil((x - lo) / eta - 0.5).astype(np.int64)
    k = np.where(per, np.mod(k, grid.counts), np.clip(k, 0, grid.counts - 1))
    return np.where(inside, np.ravel_multi_index(tuple(k.T), tuple(grid.counts)),
                    -1)


def owned_boxes(grid, cells):
    """Per cell, the lower and upper corners of the states that quantize to
    it: its η-rect, cut at a non-periodic bound, where the last cell also
    owns the trailing strip up to the upper bound."""
    lo, hi, eta = grid.bounds.lower, grid.bounds.upper, grid.eta
    k = np.array(np.unravel_index(cells, tuple(grid.counts))).T
    a, b = lo + (k - 0.5) * eta, lo + (k + 0.5) * eta
    fixed = ~grid.periodic
    a = np.where(fixed, np.maximum(a, lo), a)
    b = np.where(fixed, np.where(k == grid.counts - 1, hi, np.minimum(b, hi)), b)
    return a, b


def cell_samples(world, controller, cells, rng, n_random=4):
    """Start states and policy inputs of the winning cells ``cells``: the
    2**n corners of the box of states each cell owns (nudged inside), its
    centre and ``n_random`` uniform points, as ``(x, owner, u)`` rows."""
    grid, grid_u = world.grid_x, world.grid_u
    corners = np.array(list(itertools.product((1e-6, 1 - 1e-6),
                                              repeat=grid.ndim)))
    fixed = np.vstack([corners, np.full((1, grid.ndim), 0.5)])
    a, b = owned_boxes(grid, cells)
    t = np.concatenate([np.broadcast_to(fixed, (cells.size,) + fixed.shape),
                        rng.random((cells.size, n_random, grid.ndim))], axis=1)
    x = (a[:, None] + t * (b - a)[:, None]).reshape(-1, grid.ndim)
    owner = np.repeat(cells, t.shape[1])
    assert (quantize_points(grid, x) == owner).all()
    u = grid_u.bounds.lower + np.array(np.unravel_index(
        controller.policy_array[owner], tuple(grid_u.counts))).T * grid_u.eta
    return x, owner, u


def concrete_rank_decrease(world, controller, rng, n_random=4, pieces=4,
                           block=4096):
    """Sampled falsification (not a proof) of the controller's ranking
    under the real flow: the samples of :func:`cell_samples` in each
    winning non-target cell flow one period under the cell's policy input,
    with ``pieces`` piecewise-constant disturbances drawn from W.
    Each end point must lie in the state space, in a cell of lower rank.

    Returns ``(samples, strip_samples, bad, bad_strip)``: the number of
    samples, how many of them started in a trailing strip (past the last
    η-rect of a non-periodic dimension), and the sorted cells with a
    violating sample that started in the cell's η-rect, and in its strip.
    """
    from kaware.dynamics import flow

    grid, sys = world.grid_x, world.system
    rank = controller.rank_array
    cells = np.flatnonzero(controller.winning_mask & (rank > 0))
    last = grid.bounds.lower + (grid.counts - 0.5) * grid.eta
    samples = strip = 0
    bad, bad_strip = [cells[:0]], [cells[:0]]
    for i in range(0, cells.size, block):
        x, owner, u = cell_samples(world, controller, cells[i:i + block], rng,
                                   n_random)
        in_strip = np.any(~grid.periodic & (x > last), axis=1)
        strip += int(in_strip.sum())
        for _ in range(pieces):
            w = rng.uniform(-sys.dist_halfwidth, sys.dist_halfwidth, size=x.shape)
            x = flow(sys, x, u, sys.tau / pieces, disturbance=w)
        succ = quantize_points(grid, x)
        worse = (succ < 0) | (rank[np.maximum(succ, 0)] >= rank[owner])
        bad.append(owner[worse & ~in_strip])
        bad_strip.append(owner[worse & in_strip])
        samples += owner.size
    return (samples, strip, np.unique(np.concatenate(bad)),
            np.unique(np.concatenate(bad_strip)))


def dense_path_entries(world, controller, boxes, rng, n_random=4,
                       substeps=16, block=4096):
    """Sampled check of the path between sampling instants: from the
    samples of :func:`cell_samples` in each winning non-target cell, the
    flow under the cell's policy input with W = 0, read at ``substeps``
    instants of one period.  A path enters a box when some instant lies
    strictly inside the box's planar (x1, x2) extent while the path's two
    sampling instants both lie outside it.

    Returns ``(samples, entering, cells, deepest)``: the number of samples,
    how many paths enter a box, the sorted cells they start in, and the
    largest planar depth reached inside a box.
    """
    from kaware.dynamics import flow

    grid, sys = world.grid_x, world.system
    rank = controller.rank_array
    cells = np.flatnonzero(controller.winning_mask & (rank > 0))
    lo = np.array([b.lower[:2] for b in boxes])
    hi = np.array([b.upper[:2] for b in boxes])

    def depth(x):
        """Per state and box, how far the state lies inside the box's
        planar extent (the nearest face), negative outside."""
        p = x[:, None, :2]
        return np.minimum(p - lo, hi - p).min(axis=-1)

    samples = entering = 0
    deepest, found = 0.0, [cells[:0]]
    for i in range(0, cells.size, block):
        x, owner, u = cell_samples(world, controller, cells[i:i + block], rng,
                                   n_random)
        start, inside = depth(x), np.zeros((x.shape[0], lo.shape[0]))
        for _ in range(substeps - 1):
            x = flow(sys, x, u, sys.tau / substeps)
            inside = np.maximum(inside, depth(x))
        x = flow(sys, x, u, sys.tau / substeps)
        enters = (inside > 0) & (start <= 0) & (depth(x) <= 0)
        hit = enters.any(axis=1)
        entering += int(hit.sum())
        found.append(owner[hit])
        deepest = max(deepest, float(inside[enters].max(initial=0.0)))
        samples += owner.size
    return samples, entering, np.unique(np.concatenate(found)), deepest


# ---------------------------------------------------------------------------
# the bundled run's reroute shape


def _planar_distance_to_box(pos, box) -> float:
    dx = max(0.0, box.lower[0] - pos[0], pos[0] - box.upper[0])
    dy = max(0.0, box.lower[1] - pos[1], pos[1] - box.upper[1])
    return math.hypot(dx, dy)


def reroute_shape(scenario, trace) -> dict[str, bool]:
    """The approach-then-reroute shape around a run's first detection:
    ``{check name: ok}``, empty when no step detects a sign cell.
    The vehicle heads at the detected sign's street when it detects it and
    ends farther from that street than it was then.  This describes the
    bundled start, which heads north at the middle street; a correct run
    from another start can fail it, so it is no audit requirement."""
    first = next((s for s in trace.steps if s.detected), None)
    if first is None:
        return {}
    grid = scenario.state_grid()
    box = next((sign.street_box for sign in scenario.signs
                if np.isin(first.detected, grid.cells_intersecting(sign.sign_box)).any()),
               None)
    if box is None:
        return {}
    pos = first.state
    dirx = min(max(pos[0], box.lower[0]), box.upper[0]) - pos[0]
    diry = min(max(pos[1], box.lower[1]), box.upper[1]) - pos[1]
    return {
        "pre-detection heading points at the street":
            dirx * math.cos(pos[2]) + diry * math.sin(pos[2]) > 0,
        "post-detection path diverges from the street":
            _planar_distance_to_box(trace.steps[-1].state, box)
            > _planar_distance_to_box(pos, box),
    }
