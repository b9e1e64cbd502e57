import dataclasses
import json
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kaware.runtime
from kaware import (Outcome, build_abstraction, build_world, compile_objective,
                    load_scenario, run_closed_loop, solve_reach_avoid)
from kaware.audit import audit_ok, audit_trace
from kaware.dynamics import reach_over_approx
from kaware.errors import (InitialStateNotWinning, InitialStateOutsideDomain,
                           TraceFormatError)
from kaware.ltl import parse_ltl
from kaware.runtime import read_trace_csv, sensor_step, write_trace_csv

from oracles import proximity

PI = np.pi

MINI_SCENARIO = {
    "name": "mini",
    "system": {
        "model": "dubins_car",
        "tau": 0.5,
        "state_bounds": {"lower": [0, 0, -PI], "upper": [2, 2, PI]},
        "input_bounds": {"lower": [-3.2], "upper": [3.2]},
        "eta_x": [0.5, 0.5, 1.6],
        "eta_u": [1.6],
        "periodic": [False, False, True],
        "disturbance": [0, 0, 0],
    },
    "map": {"regions": {"Target": [{"lower": [0, 0], "upper": [2, 2]}]}},
    "objective": "!Obstacle U Target",
    "initial_state": [1.0, 1.0, 0.0],
    "seed": 0,
    "max_steps": 10,
}


def make_world(tmp_path, overrides=None):
    raw = json.loads(json.dumps(MINI_SCENARIO))
    for key, value in (overrides or {}).items():
        blk = raw
        parts = key.split(".")
        for p in parts[:-1]:
            blk = blk[p]
        blk[parts[-1]] = value
    path = tmp_path / "mini.scn.json"
    path.write_text(json.dumps(raw))
    sc = load_scenario(str(path))
    abs_ = build_abstraction(sc.system(), sc.state_grid(), sc.input_grid())
    return sc, build_world(sc, abs_)


def test_trivial_scenario_reaches_target_immediately(tmp_path):
    sc, world = make_world(tmp_path)
    trace = run_closed_loop(world, seed=0, max_steps=10)
    assert trace.outcome is Outcome.REACHED_TARGET
    assert len(trace.steps) <= 2
    assert trace.resynth_count == 0


def test_initial_state_outside_domain(tmp_path):
    sc, world = make_world(tmp_path, {"initial_state": [-1.0, 0.5, 0.0]})
    with pytest.raises(InitialStateOutsideDomain):
        run_closed_loop(world, seed=0, max_steps=5)


def test_initial_state_not_winning(desk_world, desk_controller,
                                   desk_abstraction):
    controller, objective = desk_controller
    grid = desk_world.grid_x
    dead = ~controller.winning_mask.copy()
    for c in objective.avoid | objective.target:
        dead[c] = False
    cell = int(np.flatnonzero(dead)[0])
    sc2 = dataclasses.replace(desk_world.scenario,
                              initial_state=grid.center(cell))
    world2 = build_world(sc2, desk_abstraction)
    with pytest.raises(InitialStateNotWinning):
        run_closed_loop(world2, seed=0, max_steps=5)


def test_initial_state_in_obstacle_enters_avoid(desk_world, desk_abstraction):
    sc2 = dataclasses.replace(desk_world.scenario,
                              initial_state=np.array([2.4, 5.0, 0.0]))
    world2 = build_world(sc2, desk_abstraction)
    trace = run_closed_loop(world2, seed=0, max_steps=5)
    assert trace.outcome is Outcome.ENTERED_AVOID
    assert len(trace.steps) == 1


@pytest.mark.parametrize("max_steps", [0, 3])
def test_step_limit_ends_on_a_terminal_row(desk_world, desk_trace, max_steps):
    trace = run_closed_loop(desk_world, seed=desk_world.scenario.seed,
                            max_steps=max_steps)
    assert trace.outcome is Outcome.STEP_LIMIT
    assert len(trace.steps) == max_steps + 1
    *moved, last = trace.steps
    assert [s.input_index for s in moved] == \
        [s.input_index for s in desk_trace.steps[:max_steps]]
    assert last.input_index == -1 and last.input_value == 0.0
    ref = desk_trace.steps[max_steps]
    assert (last.cell, last.detected, last.resynthesized) == \
        (ref.cell, ref.detected, ref.resynthesized)


def test_resolve_losing_the_cell_ends_in_synthesis_failed(
        desk_scenario, desk_abstraction, desk_trace, monkeypatch):
    solves = []

    def losing(ts, objective):
        controller = solve_reach_avoid(ts, objective)
        if solves:
            controller.winning_mask[:] = False
        solves.append(objective)
        return controller

    monkeypatch.setattr(kaware.runtime, "solve_reach_avoid", losing)
    world = build_world(desk_scenario, desk_abstraction)
    trace = run_closed_loop(world, seed=desk_scenario.seed,
                            max_steps=desk_scenario.max_steps)
    first = next(s for s in desk_trace.steps if s.resynthesized)
    assert first.step > 0 and len(solves) == 2
    assert trace.outcome is Outcome.SYNTHESIS_FAILED
    assert len(trace.steps) == first.step + 1
    *moved, last = trace.steps
    assert [(s.cell, s.input_index) for s in moved] == \
        [(s.cell, s.input_index) for s in desk_trace.steps[:first.step]]
    assert (last.cell, last.detected, last.resynthesized) == \
        (first.cell, first.detected, True)
    assert last.input_index == -1 and last.input_value == 0.0
    assert trace.resynth_count == 1


def test_desk_run_reaches_target_with_resynthesis(desk_trace):
    assert desk_trace.outcome is Outcome.REACHED_TARGET
    assert desk_trace.resynth_count >= 1
    flagged = [s for s in desk_trace.steps if s.resynthesized]
    assert flagged and all(s.detected for s in flagged)


def test_desk_run_audit_passes(desk_scenario, desk_trace):
    results = audit_trace(desk_scenario, desk_trace)
    assert audit_ok(results), [r for r in results if not r.ok]


def test_audit_catches_inserted_obstacle_visit(desk_scenario, desk_world,
                                               desk_trace):
    obstacle = np.flatnonzero(desk_world.interp.extent("Obstacle")).tolist()
    bad_cell = sorted(obstacle)[len(obstacle) // 2]
    steps = [dataclasses.replace(s) for s in desk_trace.steps]
    mid = len(steps) // 2
    state = desk_world.grid_x.center(bad_cell)
    steps[mid] = dataclasses.replace(steps[mid], state=state, cell=bad_cell)
    corrupted = dataclasses.replace(desk_trace, steps=steps)
    results = audit_trace(desk_scenario, corrupted)
    assert not audit_ok(results)
    assert "no obstacle cell visited" in [r.name for r in results if not r.ok]


@pytest.mark.parametrize("objective,holds", [
    ("!NoEntrySignDetected U Target", False),
    ("F NoEntrySignDetected & F Target", True),
    ("!Obstacle U Target", True),
])
def test_audit_labels_every_objective_atom(desk_scenario, desk_trace,
                                           objective, holds):
    """The run detects signs, so it passes through the derived detection
    zone: the audit labels the steps with every atom the objective names."""
    scenario = dataclasses.replace(desk_scenario, objective=parse_ltl(objective))
    results = {r.name: r.ok for r in audit_trace(scenario, desk_trace)}
    assert results["objective holds on the trace"] is holds


def test_same_seed_reproduces_trace(desk_world, desk_scenario, desk_trace,
                                    tmp_path):
    again = run_closed_loop(desk_world, seed=desk_scenario.seed,
                            max_steps=desk_scenario.max_steps)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(desk_trace, str(p1))
    write_trace_csv(again, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_per_step_soundness_echo(desk_world, desk_trace):
    """With W = {0} the next concrete state stays inside the reach set of
    the current cell and applied input."""
    sys = desk_world.system
    grid = desk_world.grid_x
    assert np.all(sys.dist_halfwidth == 0)
    for prev, nxt in zip(desk_trace.steps, desk_trace.steps[1:]):
        if prev.input_index < 0:
            continue
        c, r = reach_over_approx(sys, grid.center(prev.cell), grid.eta / 2,
                                 desk_world.grid_u.center(prev.input_index))
        d = np.abs(nxt.state - c)
        d[2] = min(d[2], 2 * PI - d[2])
        assert np.all(d <= r + 1e-9)


def test_sensor_step_is_monotone(desk_world, desk_trace):
    interp = desk_world.interp
    signs = interp.extent("NoEntrySign")
    detecting = next(s for s in desk_trace.steps if s.detected)
    known = set()
    newly = sensor_step(interp, signs, detecting.cell, known)
    assert newly == detecting.detected
    again = sensor_step(interp, signs, detecting.cell, known)
    assert again == ()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sensor_step_matches_scalar_proximity(desk_world, data):
    """One kernel call per step returns exactly the sorted undetected sign
    cells the scalar relation detects, and adds them to the known signs."""
    interp, grid = desk_world.interp, desk_world.grid_x
    signs = np.flatnonzero(interp.extent("NoEntrySign")).tolist()
    zone = np.flatnonzero(interp.extent("NoEntrySignDetected")).tolist()
    cell = data.draw(st.one_of(st.integers(0, grid.size - 1),
                               st.sampled_from(zone)))
    known = data.draw(st.sets(st.sampled_from(signs)))
    grown = set(known)
    newly = sensor_step(interp, interp.extent("NoEntrySign"), cell, grown)
    rng = desk_world.scenario.proximity_range
    assert newly == tuple(s for s in signs if s not in known
                          and proximity(grid, cell, s, rng))
    assert grown == known | set(newly)


def test_trace_csv_roundtrip(desk_trace, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(desk_trace, str(path))
    text = path.read_text()
    assert text.startswith(f"# seed={desk_trace.seed}\n")
    assert "step,time,x1,x2,x3,cell," in text.splitlines()[1]
    back = read_trace_csv(str(path))
    assert back.seed == desk_trace.seed
    assert back.outcome == desk_trace.outcome
    assert back.resynth_count == desk_trace.resynth_count
    assert len(back.steps) == len(desk_trace.steps)
    for a, b in zip(back.steps, desk_trace.steps):
        assert a.step == b.step
        assert a.cell == b.cell
        assert a.input_index == b.input_index
        assert a.detected == b.detected
        assert a.resynthesized == b.resynthesized
        assert np.allclose(a.state, b.state, rtol=1e-8)


def test_trace_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nonsense\n1,2,3\n")
    with pytest.raises(TraceFormatError):
        read_trace_csv(str(path))


def test_trace_csv_rejects_missing_outcome(desk_trace, tmp_path):
    path = tmp_path / "no_outcome.csv"
    write_trace_csv(desk_trace, str(path))
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ","
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError):
        read_trace_csv(str(path))


# ---------------------------------------------------------------------------
# controller memo


def _trace_bytes(trace, path):
    write_trace_csv(trace, str(path))
    return path.read_bytes()


def test_controller_memo_solves_each_objective_once(
        desk_scenario, desk_abstraction, desk_trace, monkeypatch, tmp_path):
    solved = []

    def counting(ts, objective):
        solved.append((id(ts), objective.target, objective.avoid))
        return solve_reach_avoid(ts, objective)

    monkeypatch.setattr(kaware.runtime, "solve_reach_avoid", counting)
    world = build_world(desk_scenario, desk_abstraction)
    run = dict(seed=desk_scenario.seed, max_steps=desk_scenario.max_steps)
    reference = _trace_bytes(desk_trace, tmp_path / "ref.csv")

    first = run_closed_loop(world, **run)
    # the objectives of the run: no sign known, then one per detection
    known, objectives = set(), []
    for knew in [()] + [s.detected for s in first.steps if s.resynthesized]:
        known.update(knew)
        obj = compile_objective(world.interp, world.sign_links, known)
        objectives.append((id(desk_abstraction), obj.target, obj.avoid))
    assert len(set(objectives)) < len(objectives)   # a detection changed nothing
    assert len(solved) == len(set(solved))
    assert set(solved) == set(objectives)
    assert _trace_bytes(first, tmp_path / "first.csv") == reference

    # a second run meets only knowledge states already solved
    second = run_closed_loop(world, **run)
    assert len(solved) == len(set(objectives))
    assert second.resynth_count == first.resynth_count
    assert _trace_bytes(second, tmp_path / "second.csv") == reference

    # another abstraction object shares the memo but none of its entries
    other = dataclasses.replace(desk_abstraction)
    third = run_closed_loop(dataclasses.replace(world, abstraction=other), **run)
    assert len(solved) == 2 * len(set(objectives))
    assert all(key[0] == id(other) for key in solved[len(set(objectives)):])
    assert _trace_bytes(third, tmp_path / "third.csv") == reference


def test_each_detection_logs_one_debug_record(desk_scenario, desk_abstraction,
                                              caplog):
    world = build_world(desk_scenario, desk_abstraction)
    with caplog.at_level(logging.DEBUG, logger="kaware"):
        trace = run_closed_loop(world, seed=desk_scenario.seed,
                                max_steps=desk_scenario.max_steps)
    records = [r for r in caplog.records if r.name == "kaware"]
    flagged = [s for s in trace.steps if s.resynthesized]
    assert len(records) == len(flagged) >= 2
    for rec, st in zip(records, flagged):
        assert rec.levelno == logging.DEBUG
        assert rec.getMessage().startswith(
            f"step {st.step}: detected {len(st.detected)} cells "
            f"({';'.join(map(str, st.detected))}); objective ")
    first, *later = [r.getMessage() for r in records]
    assert first.endswith(" s)")
    assert "objective changed; controller solved (" in first
    assert any(m.endswith("objective unchanged; controller reused")
               for m in later)
