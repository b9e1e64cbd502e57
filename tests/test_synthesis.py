import dataclasses
import hashlib
import json

import numpy as np
import pytest

from kaware.abstraction import build_abstraction
from kaware.errors import OutOfDomain
from kaware.ltl import GameObjective, compile_objective
from kaware.scenario import build_world
from kaware.synthesis import solve_reach_avoid

import oracles
from conftest import DESK_SCENARIO, FULL_SCENARIO, REFS
from oracles import ExplicitTransitions, cpre, respected_region


def won(ctrl):
    return set(np.flatnonzero(ctrl.winning_mask).tolist())


def allowed(ts, ctrl):
    """Per cell, the inputs controllable in the sweep that won it."""
    return [np.flatnonzero(row).tolist()
            for row in oracles.allowed_inputs(ts, ctrl)]


def chain(n=5):
    """Deterministic right-moving chain 0 -> 1 -> ... -> n-1."""
    return ExplicitTransitions(n, 1, {(i, 0): [i + 1] for i in range(n - 1)})


def test_cpre_full_set_is_everything_with_an_input():
    ts = ExplicitTransitions(4, 2, {(0, 0): [1], (1, 1): [2], (2, 0): [3]})
    got = cpre(ts, set(range(4)))
    # state 3 has no unblocked input at all
    assert np.flatnonzero(got).tolist() == [0, 1, 2]


def test_cpre_empty_set_is_empty():
    ts = chain()
    assert not cpre(ts, set()).any()


def test_cpre_hand_graph_with_nondeterminism():
    # input 0 from state 0 may land in 1 or 2; input 1 is deterministic to 1
    ts = ExplicitTransitions(4, 2, {
        (0, 0): [1, 2], (0, 1): [1], (1, 0): [3], (2, 0): [0],
    })
    # Z = {1}: state 0 controls via input 1 only (input 0 may stray to 2)
    got = cpre(ts, {1})
    assert np.flatnonzero(got).tolist() == [0]
    # Z = {1, 2}: now input 0 works too, and nothing else changes
    got2 = cpre(ts, {1, 2})
    assert np.flatnonzero(got2).tolist() == [0]
    # avoid excludes a state even when it could control
    got3 = cpre(ts, {1}, avoid={0})
    assert not got3.any()


def test_chain_ranks():
    ts = chain(5)
    ctrl = solve_reach_avoid(ts, oracles.objective(5, {4}))
    assert [ctrl.rank_array[i] for i in range(5)] == [4, 3, 2, 1, 0]
    assert won(ctrl) == {0, 1, 2, 3, 4}
    for i in range(4):
        assert ctrl.policy(i) == 0


def test_target_everything():
    ts = chain(4)
    ctrl = solve_reach_avoid(ts, oracles.objective(4, range(4)))
    assert won(ctrl) == set(range(4))
    assert all(ctrl.rank_array[i] == 0 for i in range(4))


def test_avoid_cuts_the_chain():
    ts = chain(5)
    ctrl = solve_reach_avoid(ts, oracles.objective(5, {4}, {2}))
    assert won(ctrl) == {3, 4}


def test_overlapping_objective_rejected():
    with pytest.raises(ValueError):
        oracles.objective(2, {1}, {1})


def test_objective_of_another_size_rejected():
    with pytest.raises(ValueError, match="target covers 4 cells, avoid 5"):
        GameObjective(oracles.objective(4, {3}).target,
                      oracles.objective(5, {3}).avoid)
    with pytest.raises(ValueError, match="objective covers 4 cells"):
        solve_reach_avoid(chain(5), oracles.objective(4, {3}))


def test_random_graphs_match_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n, m, succ = oracles.random_game(rng, max_states=30)
        ts = ExplicitTransitions(n, m, succ)
        target = set(int(s) for s in rng.choice(n, size=max(1, n // 5),
                                                replace=False))
        remaining = [s for s in range(n) if s not in target]
        avoid = set(int(s) for s in rng.choice(remaining,
                                               size=max(1, len(remaining) // 5),
                                               replace=False)) \
            if remaining else set()
        ctrl = solve_reach_avoid(ts, oracles.objective(n, target, avoid))
        win, rank = oracles.reach_avoid_bruteforce(
            n, m, ts.post, target, avoid)
        assert won(ctrl) == win
        for s in win:
            assert ctrl.rank_array[s] == rank[s]
        # allowed inputs lead only to strictly lower oracle ranks; the
        # policy is the lowest of them
        sets = allowed(ts, ctrl)
        for s in range(n):
            expect = [] if s not in win or s in target else [
                u for u in range(m)
                if ts.post(s, u).size
                and all(int(t) in rank and rank[int(t)] < rank[s]
                        for t in ts.post(s, u))]
            assert sets[s] == expect
            assert ctrl.policy_array[s] == (expect[0] if expect else -1)


def test_policy_is_rank_decreasing_and_lowest_index():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m, succ = oracles.random_game(rng, max_states=25)
        ts = ExplicitTransitions(n, m, succ)
        target = {0}
        ctrl = solve_reach_avoid(ts, oracles.objective(n, target))
        sets = allowed(ts, ctrl)
        for s in won(ctrl) - target:
            inputs = sets[s]
            assert ctrl.policy(s) == min(inputs)
            for u in inputs:
                succs = ts.post(s, u)
                assert succs.size
                assert all(ctrl.rank_array[t] < ctrl.rank_array[s] for t in succs)


def test_adversarial_rollout_reaches_target_within_rank():
    """Worst-case successor choice still reaches the target in rank steps."""
    rng = np.random.default_rng(19)
    for _ in range(15):
        n, m, succ = oracles.random_game(rng, max_states=25)
        ts = ExplicitTransitions(n, m, succ)
        target = {0, 1} & set(range(n)) or {0}
        avoid = {n - 1} - target
        ctrl = solve_reach_avoid(ts, oracles.objective(n, target, avoid))
        for start in won(ctrl) - target:
            s = start
            for _ in range(ctrl.rank_array[start]):
                if s in target:
                    break
                assert s not in avoid
                succs = ts.post(s, ctrl.policy(s))
                # adversary picks the worst (highest-rank) successor
                s = max(succs, key=lambda t: ctrl.rank_array[int(t)])
            assert s in target


def test_winning_shrinks_when_avoid_grows():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m, succ = oracles.random_game(rng, max_states=30)
        ts = ExplicitTransitions(n, m, succ)
        target = {0}
        small = set(int(s) for s in rng.choice(range(1, n),
                                               size=(n - 1) // 6 or 1,
                                               replace=False))
        extra = set(int(s) for s in rng.choice(range(1, n),
                                               size=(n - 1) // 6 or 1,
                                               replace=False))
        big = small | extra
        w_small = won(solve_reach_avoid(ts, oracles.objective(n, target, small)))
        w_big = won(solve_reach_avoid(ts, oracles.objective(n, target, big)))
        assert w_big <= w_small


def test_respected_region_trivial_cases():
    ts = ExplicitTransitions(3, 1, {(0, 0): [0], (1, 0): [1]})
    # no forbidden cells: the nu-fixpoint keeps self-loop states only
    # (state 2 has no input at all)
    assert respected_region(ts, set()) == {0, 1}
    assert respected_region(ts, set(range(3))) == set()


def test_respected_region_forced_cycle():
    # 4-cycle with forced forward motion; forbidding one cell empties it
    ts = ExplicitTransitions(4, 1, {(i, 0): [(i + 1) % 4] for i in range(4)})
    assert respected_region(ts, set()) == {0, 1, 2, 3}
    assert respected_region(ts, {2}) == set()


def test_respected_region_matches_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n, m, succ = oracles.random_game(rng, max_states=30)
        ts = ExplicitTransitions(n, m, succ)
        forbidden = set(int(s) for s in rng.choice(n, size=n // 4 or 1,
                                                   replace=False))
        got = respected_region(ts, forbidden)
        assert got == oracles.safety_bruteforce(n, m, ts.post, forbidden)


def test_export_csv_deterministic(tmp_path):
    ts = chain(5)
    obj = oracles.objective(5, {4})
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    solve_reach_avoid(ts, obj).export_csv(str(p1))
    solve_reach_avoid(ts, obj).export_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "cell_index,rank,policy_input_index"
    assert lines[1] == "0,4,0"
    assert lines[-1] == "4,0,-1"


@pytest.mark.parametrize("known", ["none", "all"])
def test_desk_controllers_match_benchmark_references(desk_world, known,
                                                     tmp_path):
    """The desk controllers with no sign and with every sign known are
    byte-identical to the benchmark's references."""
    key = hashlib.sha256(DESK_SCENARIO.read_bytes()).hexdigest()
    ref = json.loads(REFS.read_text())[key]
    signs = set().union(*(c for c, _ in desk_world.sign_links))
    objective = compile_objective(desk_world.interp, desk_world.sign_links,
                                  signs if known == "all" else set())
    path = tmp_path / "ctrl.csv"
    solve_reach_avoid(desk_world.abstraction, objective).export_csv(str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ref["controller_all" if known == "all" else "controller"]


def test_full_controller_matches_benchmark_reference(full_scenario,
                                                     full_abstraction, tmp_path):
    """The full-resolution controller with no sign known is byte-identical
    to the benchmark's reference."""
    key = hashlib.sha256(FULL_SCENARIO.read_bytes()).hexdigest()
    world = build_world(full_scenario, full_abstraction)
    objective = compile_objective(world.interp, world.sign_links, set())
    path = tmp_path / "ctrl.csv"
    solve_reach_avoid(full_abstraction, objective).export_csv(str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == json.loads(REFS.read_text())[key]["controller"]


def test_compile_and_solve_write_no_mask_they_read(desk_world):
    """The objective owns copies of the interpretation's memoized extents,
    which stay unchanged and writeable, and the solve leaves the
    objective's masks as compiled."""
    interp, links = desk_world.interp, desk_world.sign_links
    extents = {name: interp.extent(name) for name in ("Obstacle", "Target")}
    before = {name: mask.copy() for name, mask in extents.items()}
    signs = set().union(*(c for c, _ in links))
    objective = compile_objective(interp, links, signs)
    for name, mask in extents.items():
        assert interp.extent(name) is mask and mask.flags.writeable
        assert np.array_equal(mask, before[name])
    compiled = [cells.mask.copy() for cells in (objective.target, objective.avoid)]
    for cells in (objective.target, objective.avoid):
        assert not any(np.shares_memory(cells.mask, m) for m in extents.values())
    solve_reach_avoid(desk_world.abstraction, objective)
    assert np.array_equal(objective.target.mask, compiled[0])
    assert np.array_equal(objective.avoid.mask, compiled[1])


# ---------------------------------------------------------------------------
# the controllers under the real flow (a sampled falsification, not a proof)


def test_quantize_points_matches_grid_quantize(desk_world):
    grid = desk_world.grid_x
    lo, hi, eta = grid.bounds.lower, grid.bounds.upper, grid.eta
    rng = np.random.default_rng(3)
    # points in and around the bounds, the midpoints between grid points,
    # which tie to the lower index, and coordinates that are not finite
    ties = lo + (rng.integers(0, grid.counts, size=(300, 3)) + 0.5) * eta
    x = np.vstack([rng.uniform(lo - 0.5, hi + 0.5, size=(3000, 3)), ties,
                   [[np.nan, 1.0, 0.0], [1.0, 1.0, np.inf], [8.0, 11.0, 7.0]]])
    expected = []
    for p in x:
        try:
            expected.append(grid.quantize(p))
        except OutOfDomain:
            expected.append(-1)
    got = oracles.quantize_points(grid, x).tolist()
    assert got == expected
    assert -1 in got and got.count(-1) < len(got) // 2


@pytest.fixture(scope="module")
def rank_samples(desk_world, desk_controller):
    """``concrete_rank_decrease`` on the two desk controllers and on the no-sign
    controller of the desk copy with W = (0.05, 0.05, 0), seeded."""
    signs = [c for cells, _ in desk_world.sign_links for c in cells]
    scenario = dataclasses.replace(desk_world.scenario,
                                   disturbance=np.array([0.05, 0.05, 0.0]))
    disturbed = build_world(scenario, build_abstraction(
        scenario.system(), scenario.state_grid(), scenario.input_grid()))
    cases = {
        "desk": (desk_world, desk_controller[0]),
        "desk_all_signs": (desk_world, solve_reach_avoid(
            desk_world.abstraction,
            compile_objective(desk_world.interp, desk_world.sign_links, signs))),
        "desk_disturbed": (disturbed, solve_reach_avoid(
            disturbed.abstraction,
            compile_objective(disturbed.interp, disturbed.sign_links, []))),
    }
    return {case: oracles.concrete_rank_decrease(world, ctrl,
                                                 np.random.default_rng(0))
            for case, (world, ctrl) in cases.items()}


# samples: 13 per winning non-target cell
@pytest.mark.parametrize("case,samples", [
    ("desk", 95407), ("desk_all_signs", 81263), ("desk_disturbed", 93015)])
def test_rank_decreases_under_the_real_flow(rank_samples, case, samples):
    """From every sampled state of a winning non-target cell's η-rect, one
    period of the flow under the cell's policy input and a drawn disturbance
    ends in the state space, in a cell of lower rank.  The trailing strips
    of x1 and x2 are sampled too."""
    got, strip, bad, _ = rank_samples[case]
    assert got == samples and strip > 0
    assert bad.tolist() == []


@pytest.mark.xfail(strict=True, reason=(
    "the abstraction bounds a cell's one-period reach from its η-rect, so a "
    "state in the trailing strip past it (y in (10.95, 11] on desk) can leave "
    "the state space under the policy input"))
@pytest.mark.parametrize("case", ["desk", "desk_all_signs", "desk_disturbed"])
def test_rank_decreases_from_the_trailing_strip(rank_samples, case):
    assert rank_samples[case][3].tolist() == []


@pytest.mark.xfail(strict=True, reason=(
    "the guarantee holds at sampling instants: between two instants outside "
    "an obstacle the path can cut its corner (124 of 95 407 samples, in 61 "
    "cells, up to 0.078 m deep)"))
def test_path_between_samples_stays_out_of_the_obstacles(desk_world,
                                                         desk_controller):
    """From every sample ``concrete_rank_decrease`` takes, the no-sign desk
    controller's path, read at 16 instants a period with W = 0, enters no
    ``Obstacle`` box between two sampling instants outside it."""
    samples, entering, _, _ = oracles.dense_path_entries(
        desk_world, desk_controller[0], desk_world.scenario.regions["Obstacle"],
        np.random.default_rng(0))
    assert samples == 95407
    assert entering == 0
