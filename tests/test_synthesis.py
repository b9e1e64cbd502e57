import hashlib
import json
import pathlib

import numpy as np
import pytest

from kaware.ltl import GameObjective, compile_objective
from kaware.synthesis import solve_reach_avoid

import oracles
from conftest import DESK_SCENARIO
from oracles import ExplicitTransitions, cpre, respected_region

REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


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
    ctrl = solve_reach_avoid(ts, GameObjective(frozenset({4}), frozenset()))
    assert [ctrl.rank_array[i] for i in range(5)] == [4, 3, 2, 1, 0]
    assert won(ctrl) == {0, 1, 2, 3, 4}
    for i in range(4):
        assert ctrl.policy(i) == 0


def test_target_everything():
    ts = chain(4)
    ctrl = solve_reach_avoid(ts, GameObjective(frozenset(range(4)),
                                               frozenset()))
    assert won(ctrl) == set(range(4))
    assert all(ctrl.rank_array[i] == 0 for i in range(4))


def test_avoid_cuts_the_chain():
    ts = chain(5)
    ctrl = solve_reach_avoid(ts, GameObjective(frozenset({4}),
                                               frozenset({2})))
    assert won(ctrl) == {3, 4}


def test_overlapping_objective_rejected():
    with pytest.raises(ValueError):
        GameObjective(frozenset({1}), frozenset({1}))


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
        ctrl = solve_reach_avoid(ts, GameObjective(frozenset(target),
                                                   frozenset(avoid)))
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
        ctrl = solve_reach_avoid(ts, GameObjective(frozenset(target),
                                                   frozenset()))
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
        ctrl = solve_reach_avoid(ts, GameObjective(frozenset(target),
                                                   frozenset(avoid)))
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
        w_small = won(solve_reach_avoid(
            ts, GameObjective(frozenset(target), frozenset(small))))
        w_big = won(solve_reach_avoid(
            ts, GameObjective(frozenset(target), frozenset(big))))
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
    obj = GameObjective(frozenset({4}), frozenset())
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
