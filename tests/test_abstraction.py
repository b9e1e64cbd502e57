import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaware.abstraction import Abstraction, _Lookup, build_abstraction
from kaware.dynamics import ContinuousSystem, dubins_car
from kaware.errors import CacheFormatError
from kaware.grid import HyperRect, make_grid
from kaware.ltl import GameObjective, compile_objective
from kaware.synthesis import solve_reach_avoid

import oracles
from oracles import ExplicitTransitions, dense_controllable, pair_sizes, post

PI = np.pi


def blocked(abs_):
    """Blocked (state, input) pairs: those with no successor."""
    return pair_sizes(abs_).reshape(abs_.n_states, abs_.n_inputs) == 0


def identity_system(tau=1.0):
    return ContinuousSystem(name="zero", state_dim=1, tau=tau,
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
        expected = set()
        for shift in (-2 * PI, 0.0, 2 * PI):
            lo = [c[0] - r[0], c[1] - r[1], c[2] - r[2] + shift]
            hi = [c[0] + r[0], c[1] + r[1], c[2] + r[2] + shift]
            for cell in range(grid_x.size):
                rect = oracles.cell_rect(grid_x, cell)
                if all(rect.lower[d] < hi[d] - shrink
                       and lo[d] < rect.upper[d] - shrink
                       for d in range(3)):
                    expected.add(cell)
        assert post(abs_, s, u).tolist() == sorted(expected)


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
    games = [(small, GameObjective(target, frozenset())),
             (small, GameObjective(target, wall))]
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


def test_fresh_filter_skips_only_unchanged_states(small_dubins):
    """Given the cells added to Z since a call that found none of the
    states' pairs controllable, the table checks only states whose boxes can
    meet them, and answers as if it had checked them all."""
    _, abs_ = small_dubins
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


def strip_clipped_rows(abs_):
    """Live rows whose box, for some enabled cell, runs past the last cell
    of a non-periodic invariant dimension (into the trailing strip)."""
    clipped = np.zeros(len(abs_.offset), dtype=bool)
    for a, d in enumerate(abs_.invariant):
        if not abs_.grid_x.periodic[d]:
            last = abs_.enabled[:, a, 1] - 1 + abs_.offset[:, d] + abs_.length[:, d]
            clipped |= last > abs_.grid_x.counts[d]
    return int((clipped & (abs_.length > 0).all(axis=1)).sum())


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
    dist=st.lists(st.floats(0.0, 0.2), min_size=3, max_size=3))


def drawn_dubins(lower, span, eta, u_max, eta_u, tau, dist):
    sys = dubins_car(tau=tau, dist_halfwidth=dist)
    grid_x = make_grid(lower + [-PI], [lo + s for lo, s in zip(lower, span)] + [PI],
                       eta, periodic=[False, False, True])
    grid_u = make_grid([-u_max], [u_max], [eta_u])
    return sys, build_abstraction(sys, grid_x, grid_u)


# a grid whose boxes reach into the trailing strip (see the test below)
STRIP_GRID = dict(lower=[0.0, 0.0], span=[2.29, 3.83], eta=[0.27, 0.96, 0.52],
                  u_max=1.0, eta_u=0.5, tau=0.5, dist=[0.01, 0.01, 0.01])


@settings(max_examples=30, deadline=None)
@example(**STRIP_GRID)
@given(**DRAWN_DUBINS)
def test_controllable_matches_summed_area_drawn(lower, span, eta, u_max,
                                               eta_u, tau, dist):
    _, abs_ = drawn_dubins(lower, span, eta, u_max, eta_u, tau, dist)
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


def test_controllable_matches_summed_area_desk(desk_abstraction):
    assert_controllable_matches_summed_area(desk_abstraction,
                                            np.random.default_rng(8))


def lookup_bruteforce(grid, invariant, idx, start, length, mask, key):
    """Per cell (row) and column, as ``_Lookup.read`` answers it: the box is
    nonempty and ``mask`` holds each of its cells inside the grid, box by
    box and cell by cell."""
    inv = np.isin(np.arange(grid.ndim), invariant)
    counts = tuple(grid.counts)
    out = np.zeros((grid.size, start.shape[1]), dtype=bool)
    for s in range(grid.size):
        for j in range(start.shape[1]):
            k = key[s]
            if (length[k, j] <= 0).any():
                continue
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
    cell."""
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(40):
        d = int(rng.integers(1, 4))
        periodic = rng.random(d) < 0.5
        grid = make_grid(np.zeros(d), rng.integers(2, 7, size=d), np.ones(d), periodic)
        counts = grid.counts
        invariant = tuple(np.flatnonzero(rng.random(d) < 0.5).tolist())
        idx = np.indices(tuple(counts)).reshape(d, -1)
        keys, columns = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        start = rng.integers(-3, counts + 2, size=(keys, columns, d))
        length = rng.integers(0, 6, size=(keys, columns, d)) \
            * (rng.random((keys, columns, 1)) < 0.9)
        lookup = _Lookup.build(grid, invariant, idx, start, length)
        key = rng.integers(0, keys, size=grid.size)
        for holes in (0.0, 0.2, 0.6):
            mask = rng.random(grid.size) >= holes
            want = lookup_bruteforce(grid, invariant, idx, start, length, mask, key)
            assert np.array_equal(lookup.read(mask, np.arange(grid.size), key), want)
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
                                                   eta_u, tau, dist):
    sys, abs_ = drawn_dubins(lower, span, eta, u_max, eta_u, tau, dist)
    assert_matches_per_cell(sys, abs_, np.random.default_rng(5), samples=20)


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


def test_explicit_transitions_surface():
    ts = ExplicitTransitions(3, 2, {(0, 0): [1, 2], (1, 1): [2], (2, 0): [2]})
    assert ts.post(0, 0).tolist() == [1, 2]
    assert ts.post(0, 1).size == 0
    lens, offsets, flat = ts.flat_transitions()
    assert lens.tolist() == [2, 0, 0, 1, 1, 0]
    assert flat.tolist() == [1, 2, 2, 2]
