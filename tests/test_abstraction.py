import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaware.abstraction import (Abstraction, ExplicitTransitions,
                                build_abstraction)
from kaware.dynamics import ContinuousSystem, dubins_car
from kaware.errors import CacheFormatError, InvalidCell
from kaware.grid import HyperRect, make_grid
from kaware.ltl import GameObjective, compile_objective
from kaware.synthesis import solve_reach_avoid

import oracles

PI = np.pi


def blocked(abs_):
    """Blocked (state, input) pairs: those with no successor."""
    return abs_.pair_sizes().reshape(abs_.n_states, abs_.n_inputs) == 0


def identity_system(tau=1.0):
    return ContinuousSystem(name="zero", state_dim=1, input_dim=1, tau=tau,
                            lipschitz=np.zeros((1, 1)),
                            dist_halfwidth=np.zeros(1))


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
        assert abs_.post(cell, 0).tolist() == [cell]
    # the first and last cells' rects poke out of the bounds, so the
    # (conservative) domain-exit rule blocks them
    assert blocked(abs_)[:, 0].tolist() == [True, False, False, False, True]
    assert abs_.post(0, 0).size == 0


def test_identity_flow_periodic_has_no_edges():
    sys = identity_system()
    grid_x = make_grid([-PI], [PI], [PI / 2], periodic=[True])
    grid_u = make_grid([0.0], [0.0], [1.0])
    abs_ = build_abstraction(sys, grid_x, grid_u)
    assert not blocked(abs_).any()
    for cell in range(grid_x.size):
        assert abs_.post(cell, 0).tolist() == [cell]


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
    assert abs_.post(src, 0).tolist() == expected


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
        if not abs_.post(s, u).size:
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
                rect = grid_x.cell_rect(cell)
                if all(rect.lower[d] < hi[d] - shrink
                       and lo[d] < rect.upper[d] - shrink
                       for d in range(3)):
                    expected.add(cell)
        assert abs_.post(s, u).tolist() == sorted(expected)


def test_soundness_monte_carlo(small_dubins):
    sys, abs_ = small_dubins
    rng = np.random.default_rng(23)
    assert oracles.mc_soundness(abs_, sys, 2000, rng) == 0


def test_blocked_pair_has_empty_post(small_dubins):
    _, abs_ = small_dubins
    blocked_pairs = np.argwhere(blocked(abs_))
    assert blocked_pairs.size  # edge cells facing out exist on this map
    s, u = blocked_pairs[0]
    assert abs_.post(int(s), int(u)).size == 0


class FlatTransitions(ExplicitTransitions):
    """An abstraction's successor lists, expanded by ``flat_transitions``,
    behind the explicit system's solver path."""

    def __init__(self, abs_):
        self.n_states, self.n_inputs = abs_.n_states, abs_.n_inputs
        self.post = abs_.post
        self._flat = abs_.flat_transitions()


def region_cells(grid, lower, upper):
    return frozenset(grid.cells_intersecting(
        HyperRect(lower + [-PI], upper + [PI])).tolist())


def assert_same_controller(a, b):
    assert a.sweeps == b.sweeps
    assert np.array_equal(a.winning_mask, b.winning_mask)
    assert np.array_equal(a.rank_array, b.rank_array)
    assert np.array_equal(a.policy_array, b.policy_array)
    assert all(a.allowed(c) == b.allowed(c) for c in range(a.n_states))


def test_table_solve_matches_flat_solve(small_dubins, desk_world):
    """The expanded successor lists agree with ``post``, and the
    summed-area answers of the table and the reduceat answers of those
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
            assert abs_.post(s, u).tolist() == sorted(ids[offsets[p]:offsets[p + 1]])
        table = solve_reach_avoid(abs_, objective)
        assert table.winning_mask.sum() > len(objective.target)
        assert_same_controller(table, solve_reach_avoid(flat, objective))


def test_fresh_filter_skips_only_unchanged_states(small_dubins):
    """Given the cells added to Z since a call that found none of the
    states' pairs controllable, the table checks only states whose boxes can
    meet them, and answers as if it had checked them all."""
    _, abs_ = small_dubins
    n = abs_.n_states
    rng = np.random.default_rng(11)
    gained = 0
    for _ in range(6):
        holes = rng.random(n) < 0.05
        before = ~holes
        states = np.flatnonzero(~abs_.controllable(before, np.arange(n)).any(axis=1))
        fresh = holes & (rng.random(n) < 0.5)
        after = before | fresh
        want = abs_.controllable(after, states)
        assert np.array_equal(abs_.controllable(after, states, fresh), want)
        gained += int(want.any(axis=1).sum())
    assert gained > 50


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
    sizes = abs_.pair_sizes().reshape(n, m)
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
        assert abs_.post(s, u).tolist() == want


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
@given(lower=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       span=st.lists(st.floats(0.5, 4.0), min_size=2, max_size=2),
       eta=st.lists(st.floats(0.15, 1.0), min_size=3, max_size=3),
       u_max=st.floats(0.0, 4.0), eta_u=st.floats(0.3, 3.0),
       tau=st.floats(0.05, 1.5),
       dist=st.lists(st.floats(0.0, 0.2), min_size=3, max_size=3))
def test_table_matches_per_cell_construction_drawn(lower, span, eta, u_max,
                                                   eta_u, tau, dist):
    sys = dubins_car(tau=tau, dist_halfwidth=dist)
    grid_x = make_grid(lower + [-PI], [lo + s for lo, s in zip(lower, span)] + [PI],
                       eta, periodic=[False, False, True])
    grid_u = make_grid([-u_max], [u_max], [eta_u])
    assert_matches_per_cell(sys, build_abstraction(sys, grid_x, grid_u),
                            np.random.default_rng(5), samples=20)


def test_stats_consistency(small_dubins):
    _, abs_ = small_dubins
    stats = abs_.stats()
    sizes = abs_.pair_sizes()
    assert stats["transitions"] == int(sizes.sum())
    assert stats["blocked_pairs"] == int((sizes == 0).sum())
    assert stats["n_states"] == abs_.grid_x.size
    assert stats["n_inputs"] == abs_.grid_u.size


def test_invalid_pair_raises(small_dubins):
    _, abs_ = small_dubins
    with pytest.raises(InvalidCell):
        abs_.post(abs_.n_states, 0)
    with pytest.raises(InvalidCell):
        abs_.post(0, -1)


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
    assert np.array_equal(loaded.pair_sizes(), abs_.pair_sizes())
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = int(rng.integers(0, abs_.n_states))
        u = int(rng.integers(0, abs_.n_inputs))
        assert loaded.post(s, u).tolist() == abs_.post(s, u).tolist()
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
    with pytest.raises(InvalidCell):
        ts.post(3, 0)
