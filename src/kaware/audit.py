"""Independent trace auditor.

Works from the trace CSV and the scenario alone (never the controller or
the abstraction cache), so it is a genuine second opinion on a logged
run: timing and quantization bookkeeping, detection monotonicity, no cell
outside the objective's safe part nor on an activated street, and on a run
that reached the target, bounded-LTL satisfaction of the objective and a
final cell in its goal; :func:`~kaware.ltl.reach_avoid` gives both parts,
as to the game.  Each check is a requirement on every correct run, from
any start: a FAIL (exit 1 from ``kaware check``) means the run broke one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .ltl import check_trace, eval_concept, propositions, reach_avoid
from .runtime import Outcome, Trace
from .scenario import Scenario


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def audit_trace(scenario: Scenario, trace: Trace) -> list[CheckResult]:
    grid_x = scenario.state_grid()
    interp, links = scenario.ground(grid_x)
    safe, goal = reach_avoid(interp.objective)
    # membership by np.isin: a trace cell outside the grid lies in no set
    cells = np.array([s.cell for s in trace.steps])
    unsafe = np.isin(cells, np.flatnonzero(~eval_concept(interp, safe)))
    in_goal = np.isin(cells, np.flatnonzero(eval_concept(interp, goal)))
    results: list[CheckResult] = []

    def add(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, ok, detail))

    # timing and quantization bookkeeping
    bad_time = [s.step for s in trace.steps
                if abs(s.time - s.step * scenario.tau) > 1e-6]
    add("times are step*tau", not bad_time, f"bad steps {bad_time[:5]}")

    def quantized(state):
        try:
            return grid_x.quantize(state)
        except OutOfDomain:  # a state outside the state space matches no cell
            return None

    bad_cell = [s.step for s in trace.steps if quantized(s.state) != s.cell]
    add("cells match quantized states", not bad_cell, f"bad steps {bad_cell[:5]}")

    # detection bookkeeping: no cell is detected in two steps
    detected = np.concatenate([np.unique(np.asarray(s.detected, dtype=np.int64))
                               for s in trace.steps])
    add("known signs grow monotonically",
        np.unique(detected).size == detected.size)
    add("resynth flag iff new detection",
        all(s.resynthesized == bool(s.detected) for s in trace.steps))

    # the objective's safe part over the whole run
    hits = [s.step for s, hit in zip(trace.steps, unsafe) if hit]
    add("no unsafe cell visited", not hits, f"steps {hits[:5]}")

    # street avoidance after each sign's first detection
    street_ok = True
    detail = ""
    for (sign_cells, street_cells), sign in zip(links, scenario.signs):
        det_step = None
        for s, on_street in zip(trace.steps, np.isin(cells, street_cells)):
            if det_step is None and np.isin(s.detected, sign_cells).any():
                det_step = s.step
            if det_step is not None and s.step >= det_step and on_street:
                street_ok = False
                detail = f"{sign.name} street entered at step {s.step}"
                break
    add("no activated street visited", street_ok, detail)

    # bounded-LTL audit of the mission objective
    if trace.outcome is Outcome.REACHED_TARGET:
        props = [set() for _ in trace.steps]
        for name in propositions(scenario.objective):
            inside = np.isin(cells, np.flatnonzero(interp.extent(name)))
            for p in np.flatnonzero(inside):
                props[p].add(name)
        add("objective holds on the trace",
            check_trace(scenario.objective, props))
        add("final cell is a goal cell", bool(in_goal[-1]))

    return results


def audit_ok(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)
