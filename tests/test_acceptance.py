"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion (written through pytest's
output capture, so the lines show up in any run) and asserts the same
condition, so the suite doubles as a human-readable report:

    pytest tests/test_acceptance.py
"""

import hashlib
import itertools
import sys
import time

import numpy as np
import pytest

from kaware import (Outcome, build_abstraction, build_world, compile_objective,
                    load_scenario, parse_ltl, run_closed_loop,
                    solve_reach_avoid)
from kaware.abstraction import ExplicitTransitions
from kaware.audit import audit_trace
from kaware.cli import main
from kaware.dynamics import dubins_car, flow, wrap_angles
from kaware.grid import make_grid
from kaware.ltl import GameObjective, check_trace
from kaware.runtime import write_trace_csv

import oracles
from conftest import DESK_SCENARIO, FULL_SCENARIO

PI = np.pi


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"[criterion {num}] {status}  {name}{suffix}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # stay visible under pytest capture
        print(line, file=sys.__stdout__)
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_input_grid_cardinality():
    grid = make_grid([-2 * PI], [2 * PI], [0.26])
    _report(1, "input grid over [-2pi, 2pi] with eta 0.26 has 49 points",
            grid.size == 49, f"got {grid.size}")


def test_criterion_2_state_grid_cardinality_reproducible():
    # documented convention: lower + k*eta points, periodic dims snapped;
    # [0,8] x [0,11] x [-pi,pi) at (0.15, 0.15, 0.26) gives 54 * 74 * 24
    grids = [make_grid([0, 0, -PI], [8, 11, PI], [0.15, 0.15, 0.26],
                       periodic=[False, False, True]) for _ in range(2)]
    sizes = {g.size for g in grids}
    counts = grids[0].counts.tolist()
    ok = sizes == {95904} and counts == [54, 74, 24]
    _report(2, "state grid count is 95904 and bit-stable across builds",
            ok, f"counts {counts}, size {sizes}")


def test_criterion_3_abstraction_soundness_monte_carlo(desk_scenario,
                                                       desk_abstraction):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    violations = oracles.mc_soundness(desk_abstraction, desk_scenario.system(),
                                      10_000, rng)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120
    _report(3, "10^4 Monte-Carlo samples: 0 containment violations",
            ok, f"{violations} violations, {elapsed:.1f} s")


def test_criterion_4_fixpoint_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(200):
        n, m, succ = oracles.random_game(rng, max_states=50, n_inputs=4)
        ts = ExplicitTransitions(n, m, succ)
        target = set(int(s) for s in rng.choice(n, size=max(1, n // 6),
                                                replace=False))
        rest = [s for s in range(n) if s not in target]
        avoid = set(int(s) for s in
                    rng.choice(rest, size=len(rest) // 6, replace=False)) \
            if rest else set()
        ctrl = solve_reach_avoid(ts, GameObjective(frozenset(target),
                                                   frozenset(avoid)))
        win, rank = oracles.reach_avoid_bruteforce(n, m, ts.post, target,
                                                   avoid)
        if ctrl.winning != win or any(ctrl.rank(s) != rank[s] for s in win):
            mismatches += 1
        from kaware.synthesis import respected_region
        forbidden = avoid | target if rng.random() < 0.3 else avoid
        if respected_region(ts, forbidden) != \
                oracles.safety_bruteforce(n, m, ts.post, forbidden):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30
    _report(4, "200 random games match brute-force backward induction",
            ok, f"{mismatches} mismatches, {elapsed:.1f} s")


ACCEPTANCE_FORMULAS = [
    "!a U b",
    "a U b",
    "G a",
    "F b",
    "G (a -> X b)",
    "a U (b U a)",
    "F a & G !b",
    "X X a",
    "G (a -> F b)",
    "!(a U b) | F a",
]


def test_criterion_5_ltl_checker_oracle_equivalence():
    formulas = [parse_ltl(t) for t in ACCEPTANCE_FORMULAS]
    tuples = [oracles.to_tuple_formula(f) for f in formulas]
    letters = [set(), {"a"}, {"b"}, {"a", "b"}]
    mism = 0
    for trace in itertools.product(letters, repeat=6):
        trace = list(trace)
        for phi, tup in zip(formulas, tuples):
            if check_trace(phi, trace) != oracles.ltl_holds(tup, trace):
                mism += 1
    _report(5, "all 4^6 traces x 10 formulas match the direct evaluator",
            mism == 0, f"{mism} mismatches")


def test_criterion_6_dynamics_accuracy():
    sys = dubins_car(tau=0.2)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        x0 = rng.uniform([0, 0, -PI], [8, 11, PI])
        u = rng.uniform(-2 * PI, 2 * PI)
        got = flow(sys, x0, [u], 0.2)
        exp = wrap_angles(sys, oracles.dubins_arc(x0, u, 0.2))
        d = np.abs(got - exp)
        d[2] = min(d[2], 2 * PI - d[2])
        worst = max(worst, float(d.max()))
    _report(6, "integrator vs closed-form arc, inf-norm error < 1e-6",
            worst < 1e-6, f"worst {worst:.2e}")


def test_criterion_7_end_to_end_urban_run():
    scenario = load_scenario(str(DESK_SCENARIO))
    t0 = time.perf_counter()
    abstraction = build_abstraction(scenario.system(), scenario.state_grid(),
                                    scenario.input_grid())
    t_abs = time.perf_counter() - t0
    world = build_world(scenario, abstraction)

    t0 = time.perf_counter()
    objective = compile_objective(world.interp, world.sign_links, set())
    solve_reach_avoid(abstraction, objective)
    t_solve_initial = time.perf_counter() - t0

    all_signs = set().union(*(c for c, _ in world.sign_links))
    t0 = time.perf_counter()
    solve_reach_avoid(abstraction,
                      compile_objective(world.interp, world.sign_links,
                                        all_signs))
    t_solve_full = time.perf_counter() - t0

    t0 = time.perf_counter()
    trace = run_closed_loop(world, seed=scenario.seed,
                            max_steps=scenario.max_steps)
    t_run = time.perf_counter() - t0

    _report("7a", "run terminates with ReachedTarget",
            trace.outcome is Outcome.REACHED_TARGET, trace.outcome.value)
    _report("7b", "at least one mid-run re-synthesis",
            trace.resynth_count >= 1, f"{trace.resynth_count} events")

    obstacle = world.interp.extent("Obstacle")
    obstacle_hits = [s.step for s in trace.steps if s.cell in obstacle]
    street_hits = []
    for sign_cells, street_cells in world.sign_links:
        det = next((s.step for s in trace.steps
                    if set(s.detected) & sign_cells), None)
        if det is not None:
            street_hits += [s.step for s in trace.steps
                            if s.step >= det and s.cell in street_cells]
    _report("7c", "no obstacle cells, no activated street cells",
            not obstacle_hits and not street_hits,
            f"obstacle {obstacle_hits}, street {street_hits}")

    results = {r.name: r.ok for r in audit_trace(scenario, trace)}
    heading_ok = results.get("pre-detection heading points at the street")
    diverge_ok = results.get("post-detection path diverges from the street")
    _report("7d", "auditor confirms approach-then-reroute shape",
            bool(heading_ok) and bool(diverge_ok),
            f"heading {heading_ok}, diverges {diverge_ok}")

    budget_ok = t_abs < 60 and t_solve_initial < 20 and t_solve_full < 20 \
        and t_run < 180
    _report("7e", "runtime budgets met",
            budget_ok,
            f"abstraction {t_abs:.1f} s, synth {t_solve_initial:.1f}/"
            f"{t_solve_full:.1f} s, run {t_run:.1f} s")


# SHA-256 of the full-resolution default-seed trace and all-signs controller
FULL_TRACE = "aaa68a97c35730ba70f8197eb5e87ee1388e275bc9d2eceb285dad564e3ba0fa"
FULL_CONTROLLER_ALL = \
    "4795aa7b3fe6ff913d104d4aebdfbfcfda2c283b06070023ac31d7824da8b7e8"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.slow
def test_criterion_7_full_scale_urban_mission(tmp_path, capsys):
    """The full-resolution mission through the command line: abstract,
    simulate, audit, and synthesize with every sign known."""
    scn = str(FULL_SCENARIO)
    cache, trace, ctrl = (tmp_path / f for f in ("urban.kaw", "trace.csv",
                                                 "ctrl.csv"))
    t0 = time.perf_counter()
    assert main(["abstract", scn, "-o", str(cache)]) == 0
    assert main(["simulate", scn, "--cache", str(cache), "-o", str(trace)]) == 0
    reached = "outcome: ReachedTarget" in capsys.readouterr().out
    audit_code = main(["check", str(trace), scn])
    passes = capsys.readouterr().out.count("PASS  ")
    assert main(["synthesize", scn, "--cache", str(cache), "--known-signs",
                 "all", "-o", str(ctrl)]) == 0
    elapsed = time.perf_counter() - t0
    trace_ok = _sha256(trace) == FULL_TRACE
    ctrl_ok = _sha256(ctrl) == FULL_CONTROLLER_ALL
    _report("7f", "full-scale mission: ReachedTarget, audit 10/10, pinned "
            "trace and all-signs controller",
            reached and audit_code == 0 and passes == 10 and trace_ok and ctrl_ok,
            f"reached {reached}, audit {passes}/10, trace {trace_ok}, "
            f"controller {ctrl_ok}, {elapsed:.1f} s")


def test_criterion_8_pipeline_determinism(tmp_path):
    scenario = load_scenario(str(DESK_SCENARIO))

    def pipeline(tag):
        abstraction = build_abstraction(scenario.system(),
                                        scenario.state_grid(),
                                        scenario.input_grid())
        world = build_world(scenario, abstraction)
        objective = compile_objective(world.interp, world.sign_links, set())
        controller = solve_reach_avoid(abstraction, objective)
        ctrl_path = tmp_path / f"controller_{tag}.csv"
        controller.export_csv(str(ctrl_path))
        trace = run_closed_loop(world, seed=scenario.seed,
                                max_steps=scenario.max_steps)
        trace_path = tmp_path / f"trace_{tag}.csv"
        write_trace_csv(trace, str(trace_path))
        return ctrl_path.read_bytes(), trace_path.read_bytes()

    c1, t1 = pipeline("a")
    c2, t2 = pipeline("b")
    _report(8, "repeated pipeline: byte-identical controller and trace CSVs",
            c1 == c2 and t1 == t2,
            f"controller equal {c1 == c2}, trace equal {t1 == t2}")


def test_criterion_9_monotonicity_suite(desk_world, desk_trace):
    rng = np.random.default_rng(2024)
    graph_ok = True
    for _ in range(40):
        n, m, succ = oracles.random_game(rng, max_states=40)
        ts = ExplicitTransitions(n, m, succ)
        small = set(int(s) for s in rng.choice(range(1, n),
                                               size=(n - 1) // 6 or 1,
                                               replace=False))
        big = small | set(int(s) for s in rng.choice(range(1, n),
                                                     size=(n - 1) // 6 or 1,
                                                     replace=False))
        w1 = solve_reach_avoid(ts, GameObjective(frozenset({0}),
                                                 frozenset(small))).winning
        w2 = solve_reach_avoid(ts, GameObjective(frozenset({0}),
                                                 frozenset(big))).winning
        if not w2 <= w1:
            graph_ok = False

    all_signs = set().union(*(c for c, _ in desk_world.sign_links))
    w_none = solve_reach_avoid(
        desk_world.abstraction,
        compile_objective(desk_world.interp, desk_world.sign_links,
                          set())).winning
    w_all = solve_reach_avoid(
        desk_world.abstraction,
        compile_objective(desk_world.interp, desk_world.sign_links,
                          all_signs)).winning
    signs_ok = w_all <= w_none

    known = set()
    trace_ok = True
    for s in desk_trace.steps:
        if set(s.detected) & known:
            trace_ok = False
        known |= set(s.detected)

    _report(9, "avoid-set and known-sign monotonicity",
            graph_ok and signs_ok and trace_ok,
            f"graphs {graph_ok}, signs {signs_ok}, trace {trace_ok}")
