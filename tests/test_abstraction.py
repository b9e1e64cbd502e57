import dataclasses
import hashlib
import itertools
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaware import abstraction
from kaware.abstraction import Abstraction, _Lookup, _Scratch, build_abstraction
from kaware.dynamics import ContinuousSystem, dubins_car
from kaware.errors import CacheFormatError
from kaware.grid import HyperRect, make_grid
from kaware.ltl import compile_objective, parse_ltl
from kaware.scenario import build_world
from kaware.synthesis import solve_reach_avoid

import oracles
from oracles import ExplicitTransitions, dense_controllable, pair_sizes, post

PI = np.pi


def blocked(abs_):
    """Blocked (state, input) pairs: those with no successor."""
    return pair_sizes(abs_).reshape(abs_.n_states, abs_.n_inputs) == 0


def identity_system(tau=1.0):
    return ContinuousSystem(name="zero", tau=tau,
                            lipschitz=np.zeros((1, 1)),
                            dist_halfwidth=np.zeros(1),
                            field=lambda x, u: np.zeros_like(x))


@pytest.fixture(scope="module")
def small_dubins():
    """Coarse disturbed Dubins abstraction, small enough for brute checks."""
    sys = dubins_car(tau=0.4, dist_halfwidth=[0.02, 0.02, 0.02])
    grid_x = make_grid([0, 0, -PI], [4, 4, PI], [0.2, 0.2, 0.52],
                       periodic=[False, False, True])
    grid_u = make_grid([-2 * PI], [2 * PI], [0.5])
    return sys, build_abstraction(sys, grid_x, grid_u)


def test_identity_flow_interior_cells_are_self_loops():
    sys = identity_system()
    grid_x = make_grid([0.0], [1.0], [0.25])
    grid_u = make_grid([0.0], [0.0], [1.0])
    abs_ = build_abstraction(sys, grid_x, grid_u)
    for cell in range(1, grid_x.size - 1):
        assert post(abs_, cell, 0).tolist() == [cell]
    # the first and last cells' rects poke out of the bounds, so the
    # (conservative) domain-exit rule blocks them
    assert blocked(abs_)[:, 0].tolist() == [True, False, False, False, True]
    assert post(abs_, 0, 0).size == 0


def test_identity_flow_periodic_has_no_edges():
    sys = identity_system()
    grid_x = make_grid([-PI], [PI], [PI / 2], periodic=[True])
    grid_u = make_grid([0.0], [0.0], [1.0])
    abs_ = build_abstraction(sys, grid_x, grid_u)
    assert not blocked(abs_).any()
    for cell in range(grid_x.size):
        assert post(abs_, cell, 0).tolist() == [cell]


def test_dubins_successor_set_hand_example():
    # interior cell centered at the origin, straight-ahead input:
    # reach center (0.2, 0, 0), radius (eta1/2 + tau*eta3/2, ..., eta3/2)
    sys = dubins_car(tau=0.2)
    grid_x = make_grid([-3, -3, -PI], [5, 8, PI], [0.15, 0.15, 0.26],
                       periodic=[False, False, True])
    grid_u = make_grid([0.0], [0.0], [1.0])
    src = grid_x.flat_index([20, 20, 12])
    assert grid_x.center(src) == pytest.approx([0.0, 0.0, 0.0])
    abs_ = build_abstraction(sys, grid_x, grid_u)
    expected = sorted(
        grid_x.flat_index([i, j, 12])
        for i in (21, 22)          # x1 centers 0.15, 0.30
        for j in (19, 20, 21)      # x2 centers -0.15, 0.00, 0.15
    )
    assert post(abs_, src, 0).tolist() == expected


def test_post_matches_reach_rect_bruteforce(small_dubins):
    sys, abs_ = small_dubins
    grid_x = abs_.grid_x
    from kaware.dynamics import reach_over_approx

    eta = grid_x.eta
    rects = [oracles.cell_rect(grid_x, cell) for cell in range(grid_x.size)]
    lower = np.array([rect.lower for rect in rects])
    upper = np.array([rect.upper for rect in rects])
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        s = int(rng.integers(0, abs_.n_states))
        u = int(rng.integers(0, abs_.n_inputs))
        if not post(abs_, s, u).size:
            continue
        checked += 1
        c, r = reach_over_approx(sys, grid_x.center(s),
                                 eta / 2, abs_.grid_u.center(u))
        shrink = 1e-9
        expected = np.zeros(grid_x.size, dtype=bool)
        for shift in (-2 * PI, 0.0, 2 * PI):
            lo = c - r + [0.0, 0.0, shift]
            hi = c + r + [0.0, 0.0, shift]
            expected |= np.all((lower < hi - shrink) & (lo < upper - shrink),
                               axis=1)
        assert post(abs_, s, u).tolist() == np.flatnonzero(expected).tolist()


def test_soundness_monte_carlo(small_dubins):
    sys, abs_ = small_dubins
    rng = np.random.default_rng(23)
    assert oracles.mc_soundness(abs_, sys, 2000, rng) == 0


def test_blocked_pair_has_empty_post(small_dubins):
    _, abs_ = small_dubins
    blocked_pairs = np.argwhere(blocked(abs_))
    assert blocked_pairs.size  # edge cells facing out exist on this map
    s, u = blocked_pairs[0]
    assert post(abs_, int(s), int(u)).size == 0


class FlatTransitions(ExplicitTransitions):
    """An abstraction's successor lists, expanded by ``flat_transitions``,
    behind the explicit system's solver path."""

    def __init__(self, abs_):
        self.n_states, self.n_inputs = abs_.n_states, abs_.n_inputs
        self._flat = abs_.flat_transitions()


def region_cells(grid, lower, upper):
    return frozenset(grid.cells_intersecting(
        HyperRect(lower + [-PI], upper + [PI])).tolist())


def assert_same_controller(ts_a, a, ts_b, b):
    assert a.sweeps == b.sweeps
    assert np.array_equal(a.winning_mask, b.winning_mask)
    assert np.array_equal(a.rank_array, b.rank_array)
    assert np.array_equal(a.policy_array, b.policy_array)
    assert np.array_equal(oracles.allowed_inputs(ts_a, a),
                          oracles.allowed_inputs(ts_b, b))


def test_table_solve_matches_flat_solve(small_dubins, desk_world):
    """The expanded successor lists agree with ``post``, and the
    erosion-table answers of the table and the reduceat answers of those
    lists give the same games: winning set, ranks, policy and allowed
    inputs, on a small map with and without an avoid region and on desk
    with no sign and with every sign known."""
    _, small = small_dubins
    target = region_cells(small.grid_x, [2.6, 2.6], [3.4, 3.4])
    wall = region_cells(small.grid_x, [1.2, 0.0], [1.6, 2.8])
    games = [(small, oracles.objective(small.n_states, target)),
             (small, oracles.objective(small.n_states, target, wall))]
    signs = set().union(*(c for c, _ in desk_world.sign_links))
    for known in (set(), signs):
        games.append((desk_world.abstraction,
                      compile_objective(desk_world.interp, desk_world.sign_links,
                                        known)))
    rng = np.random.default_rng(5)
    for abs_, objective in games:
        flat = FlatTransitions(abs_)
        _, offsets, ids = flat.flat_transitions()
        for _ in range(100):
            s, u = int(rng.integers(abs_.n_states)), int(rng.integers(abs_.n_inputs))
            p = s * abs_.n_inputs + u
            assert post(abs_, s, u).tolist() == sorted(ids[offsets[p]:offsets[p + 1]])
        table = solve_reach_avoid(abs_, objective)
        assert table.winning_mask.sum() > len(objective.target)
        assert_same_controller(abs_, table, flat,
                               solve_reach_avoid(flat, objective))


def test_eventually_objective_solves_like_the_flat_oracle(desk_scenario,
                                                         desk_abstraction):
    """``F Target`` on desk is the game with the Target cells and nothing to
    avoid before a sign is known; the table solve of the compiled objective
    matches the flat solve of that game built from the cells."""
    scenario = dataclasses.replace(desk_scenario, objective=parse_ltl("F Target"))
    world = build_world(scenario, desk_abstraction)
    compiled = compile_objective(world.interp, world.sign_links, set())
    target = np.flatnonzero(world.interp.extent("Target")).tolist()
    game = oracles.objective(desk_abstraction.n_states, target)
    assert compiled == game
    flat = FlatTransitions(desk_abstraction)
    table = solve_reach_avoid(desk_abstraction, compiled)
    assert_same_controller(desk_abstraction, table, flat,
                           solve_reach_avoid(flat, game))
    obstacle = world.interp.extent("Obstacle")
    assert table.winning_mask[obstacle].any()


@pytest.mark.parametrize("case", ["no target", "target is every free cell",
                                  "avoid is every other cell"])
def test_edge_games_solve_like_the_flat_oracle(case, desk_world):
    """Games whose one sweep reads empty arrays, on desk: with no target
    cell nothing is fresh, so no state's cover window meets it and the pair
    lookup reads none; with the target every cell outside the avoid set, or
    the avoid set every cell outside the target, no state is undecided.
    Each solve stops after that sweep with the target, at rank 0, as its
    winning set and no policy input, as the flat solve does."""
    abs_ = desk_world.abstraction
    desk = compile_objective(desk_world.interp, desk_world.sign_links, set())
    target, avoid = desk.target.mask, desk.avoid.mask
    if case == "no target":
        target = np.zeros_like(target)
    elif case == "target is every free cell":
        target = ~avoid
    else:
        avoid = ~target
    game = oracles.objective(abs_.n_states, np.flatnonzero(target),
                             np.flatnonzero(avoid))
    table = solve_reach_avoid(abs_, game)
    assert table.sweeps == 1
    assert np.array_equal(table.winning_mask, target)
    assert (table.rank_array[target] == 0).all()
    assert (table.policy_array == -1).all()
    flat = FlatTransitions(abs_)
    assert_same_controller(abs_, table, flat, solve_reach_avoid(flat, game))


def test_fresh_filter_skips_only_unchanged_states(small_dubins, desk_abstraction,
                                                 full_abstraction):
    """Given the cells added to Z since a call that found none of the
    states' pairs controllable, the table checks only states whose boxes can
    meet them, and answers as if it had checked them all.  At full scale the
    covering windows of the headings next to the seam wrap around it."""
    for abs_ in (small_dubins[1], desk_abstraction, full_abstraction):
        n = abs_.n_states
        rng = np.random.default_rng(11)
        gained = read = checked = 0
        for _ in range(6):
            holes = rng.random(n) < 0.05
            before = ~holes
            states = np.flatnonzero(~dense_controllable(abs_, before, np.arange(n)).any(axis=1))
            fresh = holes & (rng.random(n) < 0.5)
            after = before | fresh
            want = dense_controllable(abs_, after, states)
            read += assert_rows_answer(abs_, after, states, fresh, want).size
            checked += states.size
            gained += int(want.any(axis=1).sum())
        assert gained > 50
        assert read < checked


def test_full_scale_cover_windows_are_circular(full_abstraction):
    """Each heading key's covering window is measured around the ring from
    the key itself: at full scale every key's boxes fit in 11 of the 24
    heading cells, also on the keys whose boxes cross the seam between the
    last heading cell and the first, and the windows take 3 length rows."""
    cover = full_abstraction._lookups[1].lookup
    assert full_abstraction.grid_x.counts[2] == 24
    assert len(cover.lengths) == 3 and (cover.lengths[:, 2] == 11).all()


@pytest.mark.parametrize("scale", ["desk", "full"])
def test_scratch_reuse_answers_like_a_fresh_load(scale, desk_abstraction,
                                                 full_abstraction, tmp_path):
    """The lookups' scratch arrays outlive every call: one abstraction asked
    about growing, shrinking, full and empty goal sets, with and without
    ``fresh``, answers each time as a freshly loaded copy does."""
    abs_ = desk_abstraction if scale == "desk" else full_abstraction
    path = tmp_path / "cache.kaw"
    abs_.save(str(path))
    reused = Abstraction.load(str(path))
    n = abs_.n_states
    rng = np.random.default_rng(13)
    small = rng.random(n) < 0.1
    grown = small | (rng.random(n) < 0.3)
    calls = [(small, None), (grown, grown & ~small), (grown | (rng.random(n) < 0.4), None),
             (small, small), (np.ones(n, dtype=bool), ~small),
             (np.zeros(n, dtype=bool), None), (np.zeros(n, dtype=bool), small),
             (grown, grown)]
    for Z, fresh in calls:
        states = np.flatnonzero(~Z & (rng.random(n) < 0.8))
        got = reused.controllable(Z, states, fresh)
        want = Abstraction.load(str(path)).controllable(Z, states, fresh)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_solves_in_turn_match_solves_alone(small_dubins, desk_world, tmp_path):
    """An abstraction's two lookups read through one workspace that
    outlives every sweep and solve.  Solving desk and the small map in
    turn, each with two goals, gives every game the controller that a
    freshly loaded abstraction gives it solved alone: the same winning
    mask, ranks and policy."""
    _, small = small_dubins
    desk, interp, links = desk_world.abstraction, desk_world.interp, desk_world.sign_links
    signs = set().union(*(c for c, _ in links))
    target = region_cells(small.grid_x, [2.6, 2.6], [3.4, 3.4])
    wall = region_cells(small.grid_x, [1.2, 0.0], [1.6, 2.8])
    games = [(desk, compile_objective(interp, links, set())),
             (small, oracles.objective(small.n_states, target)),
             (desk, compile_objective(interp, links, signs)),
             (small, oracles.objective(small.n_states, target, wall))]
    alone = []
    for i, (abs_, objective) in enumerate(games):
        path = tmp_path / f"{i}.kaw"
        abs_.save(str(path))
        alone.append(solve_reach_avoid(Abstraction.load(str(path)), objective))
    for _ in range(2):
        for (abs_, objective), want in zip(games, alone):
            got = solve_reach_avoid(abs_, objective)
            assert got.sweeps == want.sweeps
            assert np.array_equal(got.winning_mask, want.winning_mask)
            assert np.array_equal(got.rank_array, want.rank_array)
            assert np.array_equal(got.policy_array, want.policy_array)


def held_arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through its attributes
    (cached properties included), tuples and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [a for item in items for a in held_arrays(item, seen)]


def test_full_scale_synthesis_working_set_is_bounded(full_scenario,
                                                     full_abstraction, tmp_path):
    """From loading the cache through writing the controller, full-scale
    synthesis traces under 7 MiB of allocations (13.0 MiB before the
    per-cell index arrays went and the sweep's scratch was reused, 7.2 MiB
    with per-cell enabled bits and a workspace per lookup, 5.6 MiB with
    neither); and no array the abstraction keeps is as large as a per-cell
    index matrix (ndim × n_states intp), which the lookups' tables and the
    enabled bits' parts, broadcast over the grid, stay below.  tracemalloc
    counts numpy's buffers and is deterministic for a given numpy."""
    path = tmp_path / "cache.kaw"
    full_abstraction.save(str(path))
    tracemalloc.start()
    try:
        abs_ = Abstraction.load(str(path))
        world = build_world(full_scenario, abs_)
        objective = compile_objective(world.interp, world.sign_links, set())
        solve_reach_avoid(abs_, objective).export_csv(str(tmp_path / "ctrl.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20
    arrays = held_arrays(abs_)
    assert any(a.size == abs_.n_states for a in arrays)  # the walk reached them
    index_matrix = abs_.grid_x.ndim * abs_.n_states * np.dtype(np.intp).itemsize
    assert max(a.nbytes for a in arrays) < index_matrix


def test_boxes_of_a_state_column_equal_boxes_of_flat_states(desk_abstraction):
    """``boxes`` broadcasts an (N, 1) column of states against the inputs;
    past 8 192 rows numpy 2.4's ``unravel_index`` would get such a column
    wrong, so the answer must equal each input's boxes of the flat states."""
    abs_ = desk_abstraction
    states = np.arange(abs_.n_states)
    assert states.size > 8192
    lo, hi = abs_.boxes(states[:, None], np.arange(abs_.n_inputs))
    for u in range(abs_.n_inputs):
        flat_lo, flat_hi = abs_.boxes(states, u)
        assert np.array_equal(lo[:, :, u], flat_lo) and np.array_equal(hi[:, :, u], flat_hi)


def strip_clipped_rows(abs_):
    """Rows whose box, for some enabled cell, runs past the last cell of a
    non-periodic invariant dimension (into the trailing strip).  ``enabled``
    holds a range per non-periodic dimension."""
    first, stop = abs_.enabled[..., 0], abs_.enabled[..., 1]
    clipped = np.zeros(len(abs_.offset), dtype=bool)
    for a, d in enumerate(np.flatnonzero(~abs_.grid_x.periodic)):
        if d in abs_.invariant:
            last = stop[:, a] - 1 + abs_.offset[:, d] + abs_.length[:, d]
            clipped |= last > abs_.grid_x.counts[d]
    return int((clipped & (first < stop).all(axis=1)).sum())


def assert_rows_answer(abs_, Z, states, fresh, want):
    """``controllable``'s ``(rows, ok)``, scattered into a dense answer,
    equals ``want``; ``rows`` are increasing positions in ``states`` that
    include every state with a controllable pair, and all of them without
    ``fresh``.  Returns ``rows``."""
    rows, ok = abs_.controllable(Z, states, fresh)
    assert ok.shape == (rows.size, abs_.n_inputs)
    assert np.all(np.diff(rows) > 0) and np.all((0 <= rows) & (rows < states.size))
    assert np.isin(np.flatnonzero(want.any(axis=1)), rows).all()
    if fresh is None:
        assert rows.size == states.size
    dense = np.zeros_like(want)
    dense[rows] = ok
    assert np.array_equal(dense, want)
    return rows


def assert_controllable_matches_summed_area(abs_, rng):
    """On random goal sets, the table's answer for every state equals the
    summed-area count of each box, and so does its answer with ``fresh``
    for the states a call without the fresh cells found no pair of."""
    n = abs_.n_states
    every = np.arange(n)
    for holes in (0.0, 0.02, 0.1, 0.4):
        before = rng.random(n) >= holes
        want = oracles.controllable_summed(abs_, before, every)
        assert_rows_answer(abs_, before, every, None, want)
        states = np.flatnonzero(~want.any(axis=1))
        fresh = ~before & (rng.random(n) < 0.5)
        after = before | fresh
        assert_rows_answer(abs_, after, states, fresh,
                           oracles.controllable_summed(abs_, after, states))


DRAWN_DUBINS = dict(
    lower=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    span=st.lists(st.floats(0.5, 4.0), min_size=2, max_size=2),
    eta=st.lists(st.floats(0.15, 1.0), min_size=3, max_size=3),
    u_max=st.floats(0.0, 4.0), eta_u=st.floats(0.3, 3.0),
    tau=st.floats(0.05, 1.5),
    dist=st.lists(st.floats(0.0, 0.2), min_size=3, max_size=3),
    periodic=st.lists(st.booleans(), min_size=2, max_size=2))


def drawn_dubins(lower, span, eta, u_max, eta_u, tau, dist, periodic):
    """A Dubins abstraction; ``periodic`` says whether x1 and the heading
    wrap.  A non-periodic heading is keyed, so whole rows can be blocked.  A
    periodic x1 takes at least one cell."""
    if periodic[0]:
        eta = [min(eta[0], span[0])] + eta[1:]
    sys = dubins_car(tau=tau, dist_halfwidth=dist)
    grid_x = make_grid(lower + [-PI], [lo + s for lo, s in zip(lower, span)] + [PI],
                       eta, periodic=[periodic[0], False, periodic[1]])
    grid_u = make_grid([-u_max], [u_max], [eta_u])
    return sys, build_abstraction(sys, grid_x, grid_u)


# a grid whose boxes reach into the trailing strip (see the test below)
STRIP_GRID = dict(lower=[0.0, 0.0], span=[2.29, 3.83], eta=[0.27, 0.96, 0.52],
                  u_max=1.0, eta_u=0.5, tau=0.5, dist=[0.01, 0.01, 0.01],
                  periodic=[False, True])


@settings(max_examples=30, deadline=None)
@example(**STRIP_GRID)
@given(**DRAWN_DUBINS)
def test_controllable_matches_summed_area_drawn(lower, span, eta, u_max,
                                               eta_u, tau, dist, periodic):
    _, abs_ = drawn_dubins(lower, span, eta, u_max, eta_u, tau, dist, periodic)
    assert_controllable_matches_summed_area(abs_, np.random.default_rng(6))


def test_strip_grid_clips_enabled_boxes():
    assert strip_clipped_rows(drawn_dubins(**STRIP_GRID)[1]) > 0


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_controllable_matches_summed_area_identity(periodic, tau):
    upper = PI if periodic else 1.0
    grid_x = make_grid([-upper], [upper], [upper / 3.3], periodic=[periodic])
    grid_u = make_grid([0.0], [1.0], [0.5])
    abs_ = build_abstraction(identity_system(tau), grid_x, grid_u)
    assert_controllable_matches_summed_area(abs_, np.random.default_rng(7))


def test_controllable_matches_summed_area_many_inputs():
    """A few states under more inputs than one gather block holds: each
    block reads one state at a time."""
    grid_x = make_grid([-1.0], [1.0], [0.3], periodic=[False])
    grid_u = make_grid([0.0], [1.0], [2.5e-5])
    abs_ = build_abstraction(identity_system(0.5), grid_x, grid_u)
    assert abs_.n_inputs > abstraction._GATHER
    assert_controllable_matches_summed_area(abs_, np.random.default_rng(9))


def test_controllable_matches_summed_area_desk(desk_abstraction):
    assert_controllable_matches_summed_area(desk_abstraction,
                                            np.random.default_rng(8))


def lookup_bruteforce(grid, invariant, idx, start, length, mask, key):
    """Per cell (row) and column, as ``_Lookup.read`` answers it: ``mask``
    holds each cell of the box inside the grid, box by box and cell by
    cell."""
    inv = np.isin(np.arange(grid.ndim), invariant)
    counts = tuple(grid.counts)
    out = np.zeros((grid.size, start.shape[1]), dtype=bool)
    for s in range(grid.size):
        for j in range(start.shape[1]):
            k = key[s]
            q = start[k, j] + np.where(inv, idx[:, s], 0)
            ln = np.where(grid.periodic, np.minimum(length[k, j], counts), length[k, j])
            cells = map(np.array, itertools.product(*map(range, q, q + ln)))
            out[s, j] = all(mask[np.ravel_multi_index(np.mod(c, counts), counts)]
                            for c in cells
                            if (grid.periodic | ((0 <= c) & (c < counts))).all())
    return out


def test_lookup_reads_boxes_like_bruteforce():
    """``_Lookup`` erodes by flat shifts over the erosion grid; on random
    grids, boxes and masks each of its answers equals a box checked cell by
    cell.  Two lookups of other boxes, planned in one workspace sized to
    the larger of them, read in turn, as an abstraction's two lookups do."""
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(40):
        d = int(rng.integers(1, 4))
        periodic = rng.random(d) < 0.5
        grid = make_grid(np.zeros(d), rng.integers(2, 7, size=d), np.ones(d), periodic)
        counts = grid.counts
        invariant = tuple(np.flatnonzero(rng.random(d) < 0.5).tolist())
        idx = np.indices(tuple(counts)).reshape(d, -1)
        keys = int(rng.integers(1, 4))
        boxes = []
        for _ in range(2):
            columns = int(rng.integers(1, 5))
            boxes.append((rng.integers(-3, counts + 2, size=(keys, columns, d)),
                          rng.integers(1, 6, size=(keys, columns, d))))
        key = rng.integers(0, keys, size=grid.size).astype(np.int32)
        lookups = [_Lookup.build(grid, invariant, start, length, key)
                   for start, length in boxes]
        work = _Scratch.fit(*lookups)
        plans = [lookup.plan(work) for lookup in lookups]
        for holes in (0.0, 0.2, 0.6):
            mask = rng.random(grid.size) >= holes
            for plan, (start, length) in zip(plans, boxes):
                want = lookup_bruteforce(grid, invariant, idx, start, length, mask, key)
                assert np.array_equal(plan.read(mask, np.arange(grid.size)), want)
                hits += int(want.sum())
    assert hits > 100


def expand(lo, ln, counts):
    axes = [np.mod(lo[d] + np.arange(ln[d]), counts[d]) for d in range(len(counts))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.sort(np.ravel_multi_index(tuple(m.ravel() for m in mesh),
                                        tuple(counts))).tolist()


def assert_matches_per_cell(sys, abs_, rng, samples=100):
    """Every pair's box, block and size, the totals, and ``post`` on sampled
    pairs agree with the per-cell construction."""
    lo, ln, blk = oracles.per_cell_boxes(sys, abs_.grid_x, abs_.grid_u)
    n, m = abs_.n_states, abs_.n_inputs
    sizes = pair_sizes(abs_).reshape(n, m)
    assert np.array_equal(sizes == 0, blk)
    assert np.array_equal(sizes, np.where(blk, 0, ln.prod(axis=2)))
    for u in range(m):
        t_lo, t_hi = abs_.boxes(np.arange(n), u)
        on = ~blk[:, u]
        assert np.array_equal(t_lo.T[on], lo[on, u])
        assert np.array_equal((t_hi - t_lo).T[on], ln[on, u])
    stats = abs_.stats()
    assert stats["transitions"] == int(sizes.sum())
    assert stats["blocked_pairs"] == int(blk.sum())
    for _ in range(samples):
        s, u = int(rng.integers(n)), int(rng.integers(m))
        want = [] if blk[s, u] else expand(lo[s, u], ln[s, u], abs_.grid_x.counts)
        assert post(abs_, s, u).tolist() == want


def test_table_matches_per_cell_construction_desk(desk_scenario, desk_abstraction):
    assert desk_abstraction.offset.shape[0] == 12 * 49
    assert_matches_per_cell(desk_scenario.system(), desk_abstraction,
                            np.random.default_rng(3))


def test_table_matches_per_cell_construction_full(full_scenario):
    sys = full_scenario.system()
    abs_ = build_abstraction(sys, full_scenario.state_grid(),
                             full_scenario.input_grid())
    assert abs_.offset.shape[0] == 24 * 49
    assert_matches_per_cell(sys, abs_, np.random.default_rng(4))


@settings(max_examples=30, deadline=None)
@given(**DRAWN_DUBINS)
def test_table_matches_per_cell_construction_drawn(lower, span, eta, u_max,
                                                   eta_u, tau, dist, periodic):
    sys, abs_ = drawn_dubins(lower, span, eta, u_max, eta_u, tau, dist, periodic)
    assert_matches_per_cell(sys, abs_, np.random.default_rng(5), samples=20)


@pytest.mark.parametrize("case", ["small_dubins", "desk", "desk_heading_not_periodic"])
def test_enabled_bits_match_the_per_cell_formula(case, small_dubins, desk_scenario,
                                                desk_abstraction):
    """The enabled bits are kept as one small part per non-periodic
    dimension; ANDed for every state they give the bytes the per-cell
    formula gives, and no bit past the last input.  On desk with a
    non-periodic heading the heading is keyed and ranged, so its part is
    one range per row key."""
    if case == "small_dubins":
        abs_ = small_dubins[1]
    elif case == "desk":
        abs_ = desk_abstraction
    else:
        g = desk_scenario.state_grid()
        grid_x = make_grid(g.bounds.lower, g.bounds.upper, g.eta, periodic=[False] * 3)
        abs_ = build_abstraction(desk_scenario.system(), grid_x, desk_scenario.input_grid())
        # headings blocked whole: a row's range misses its own heading index
        own = np.arange(abs_.enabled.shape[0]) // abs_.n_inputs
        first, stop = abs_.enabled[:, 2].T
        assert ((own < first) | (own >= stop)).any()
    want = oracles.enabled_bits(abs_)
    got = abs_._enabled_bytes(np.unravel_index(np.arange(abs_.n_states),
                                               tuple(abs_.grid_x.counts)))
    assert np.array_equal(got[:, :want.shape[1]], want)
    assert not got[:, want.shape[1]:].any()
    assert not blocked(abs_).all() and blocked(abs_).any()


def test_stats_consistency(small_dubins):
    _, abs_ = small_dubins
    stats = abs_.stats()
    sizes = pair_sizes(abs_)
    assert stats["transitions"] == int(sizes.sum())
    assert stats["blocked_pairs"] == int((sizes == 0).sum())
    assert stats["n_states"] == abs_.grid_x.size
    assert stats["n_inputs"] == abs_.grid_u.size


def test_cache_roundtrip(small_dubins, tmp_path):
    _, abs_ = small_dubins
    path = tmp_path / "cache.kaw"
    abs_.save(str(path))
    loaded = Abstraction.load(str(path))
    assert loaded.tau == abs_.tau
    assert loaded.fingerprint == abs_.fingerprint
    assert np.array_equal(loaded.grid_x.counts, abs_.grid_x.counts)
    assert np.allclose(loaded.grid_x.eta, abs_.grid_x.eta)
    assert np.array_equal(loaded.grid_u.counts, abs_.grid_u.counts)
    assert np.array_equal(pair_sizes(loaded), pair_sizes(abs_))
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = int(rng.integers(0, abs_.n_states))
        u = int(rng.integers(0, abs_.n_inputs))
        assert post(loaded, s, u).tolist() == post(abs_, s, u).tolist()
    # saving the loaded copy reproduces the file byte for byte
    path2 = tmp_path / "cache2.kaw"
    loaded.save(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "bogus.kaw"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CacheFormatError):
        Abstraction.load(str(path))


def test_cache_bad_version(small_dubins, tmp_path):
    _, abs_ = small_dubins
    path = tmp_path / "cache.kaw"
    abs_.save(str(path))
    data = bytearray(path.read_bytes())
    data[4] = 99  # version byte
    path.write_bytes(bytes(data))
    with pytest.raises(CacheFormatError):
        Abstraction.load(str(path))


def test_cache_rejects_box_length_below_one(small_dubins, tmp_path):
    """Every box has at least one cell on each dimension, so a zero length
    is refused even under a valid checksum."""
    _, abs_ = small_dubins
    path = tmp_path / "cache.kaw"
    abs_.save(str(path))
    body = bytearray(path.read_bytes()[:-4])
    rows, d = abs_.offset.shape
    width = 2 * d + 2 * abs_.enabled.shape[1]
    at = len(body) - 4 * rows * width + 4 * d  # first row's first length
    body[at:at + 4] = (0).to_bytes(4, "little")
    path.write_bytes(bytes(body) + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(CacheFormatError, match="box length below one"):
        Abstraction.load(str(path))


# SHA-256 of the bundled scenarios' cache files (format version 3)
DESK_CACHE = "23be8a612efb2d5f59b4a1214fceef6d13be99370d7edea872a003ce9f4a78d2"
FULL_CACHE = "0374a6da9a5868b84aadb8f60f369f48dcc78cf53133b664bc40e34af05791e4"


def test_bundled_cache_files_are_pinned(desk_abstraction, full_abstraction,
                                        tmp_path):
    """The bundled scenarios' cache files keep their bytes, so a change of
    the format cannot pass unnoticed."""
    for abs_, want in ((desk_abstraction, DESK_CACHE), (full_abstraction, FULL_CACHE)):
        path = tmp_path / "cache.kaw"
        abs_.save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def test_explicit_transitions_surface():
    ts = ExplicitTransitions(3, 2, {(0, 0): [1, 2], (1, 1): [2], (2, 0): [2]})
    assert ts.post(0, 0).tolist() == [1, 2]
    assert ts.post(0, 1).size == 0
    lens, offsets, flat = ts.flat_transitions()
    assert lens.tolist() == [2, 0, 0, 1, 1, 0]
    assert flat.tolist() == [1, 2, 2, 2]
