"""Independent trace auditor.

Works from the trace CSV and the scenario alone (never the controller or
the abstraction cache), so it is a genuine second opinion on a logged
run: timing and quantization bookkeeping, detection monotonicity, no cell
outside the objective's safe part nor on an activated street, and on a run
that reached the target, bounded-LTL satisfaction of the objective and a
final cell in its goal; :func:`~kaware.ltl.reach_avoid` gives both parts,
as to the game.  Each check is a requirement on every correct run, from
any start: a FAIL (exit 1 from ``kaware check``) means the run broke one.

Every cell set is read as its mask over the state grid's ``n`` cells.  A
trace cell or detected id outside ``[0, n)`` lies in no set: it is not
unsafe, on a street, a sign or a goal, and holds no proposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .ltl import check_trace, eval_concept, propositions, reach_avoid
from .runtime import Outcome, Trace
from .scenario import Scenario


def _member(mask: np.ndarray, ids) -> np.ndarray:
    """``mask[ids]``, False for an id outside ``[0, mask.size)``."""
    ids = np.asarray(ids, dtype=np.int64)
    inside = (ids >= 0) & (ids < mask.size)
    out = np.zeros(ids.shape, dtype=bool)
    out[inside] = mask[ids[inside]]
    return out


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def audit_trace(scenario: Scenario, trace: Trace) -> list[CheckResult]:
    grid_x = scenario.state_grid()
    interp, links = scenario.ground(grid_x)
    safe, goal = reach_avoid(interp.objective)
    cells = np.array([s.cell for s in trace.steps], dtype=np.int64)
    unsafe = _member(~eval_concept(interp, safe), cells)
    in_goal = _member(eval_concept(interp, goal), cells)
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
    detected = [set(s.detected) for s in trace.steps]
    add("known signs grow monotonically",
        sum(map(len, detected)) == len(set().union(*detected)))
    add("resynth flag iff new detection",
        all(s.resynthesized == bool(s.detected) for s in trace.steps))

    # the objective's safe part over the whole run
    hits = [s.step for s, hit in zip(trace.steps, unsafe) if hit]
    add("no unsafe cell visited", not hits, f"steps {hits[:5]}")

    # street avoidance after each sign's first detection
    street_ok = True
    detail = ""
    for (sign_cells, street_cells), sign in zip(links, scenario.signs):
        signs = set(sign_cells.tolist())
        street = np.zeros(grid_x.size, dtype=bool)
        street[street_cells] = True
        det_step = None
        for s, on_street in zip(trace.steps, _member(street, cells)):
            if det_step is None and not signs.isdisjoint(s.detected):
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
            for p in np.flatnonzero(_member(interp.extent(name), cells)):
                props[p].add(name)
        add("objective holds on the trace",
            check_trace(scenario.objective, props))
        add("final cell is a goal cell", bool(in_goal[-1]))

    return results


def audit_ok(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)
