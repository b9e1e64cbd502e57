"""Independent trace auditor.

Works from the trace CSV and the scenario alone (never the controller or
the abstraction cache), so it is a genuine second opinion on a logged
run: timing and quantization bookkeeping, obstacle and activated-street
avoidance, detection monotonicity, bounded-LTL satisfaction of the
mission objective, and the reroute shape around the first detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import knowledge
from .grid import _TOL
from .ltl import check_trace, propositions
from .runtime import Outcome, Trace
from .scenario import Scenario


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _planar_distance_to_box(pos, box) -> float:
    dx = max(0.0, box.lower[0] - pos[0], pos[0] - box.upper[0])
    dy = max(0.0, box.lower[1] - pos[1], pos[1] - box.upper[1])
    return math.hypot(dx, dy)


def audit_trace(scenario: Scenario, trace: Trace) -> list[CheckResult]:
    grid_x = scenario.state_grid()
    kb = scenario.knowledge_base()
    interp = knowledge.assemble_interpretation(
        kb, scenario.all_regions(), grid_x)
    # membership by np.isin: a trace cell outside the grid lies in no set
    cells = np.array([s.cell for s in trace.steps])
    in_obstacle = np.isin(cells, np.flatnonzero(interp.extent("Obstacle")))
    in_target = np.isin(cells, np.flatnonzero(interp.extent("Target")))
    links = [(grid_x.cells_intersecting(sign.sign_box),
              grid_x.cells_intersecting(sign.street_box), sign)
             for sign in scenario.signs]
    results: list[CheckResult] = []

    def add(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, ok, detail))

    # timing and quantization bookkeeping
    bad_time = [s.step for s in trace.steps
                if abs(s.time - s.step * scenario.tau) > 1e-6]
    add("times are step*tau", not bad_time, f"bad steps {bad_time[:5]}")
    # a state outside the state space matches no cell
    bad_cell = [s.step for s in trace.steps
                if not grid_x.bounds.contains(grid_x.wrap(s.state), tol=_TOL)
                or grid_x.quantize(s.state) != s.cell]
    add("cells match quantized states", not bad_cell, f"bad steps {bad_cell[:5]}")

    # detection bookkeeping: no cell is detected in two steps
    detected = np.concatenate([np.unique(np.asarray(s.detected, dtype=np.int64))
                               for s in trace.steps])
    add("known signs grow monotonically",
        np.unique(detected).size == detected.size)
    add("resynth flag iff new detection",
        all(s.resynthesized == bool(s.detected) for s in trace.steps))

    # obstacle avoidance over the whole run
    hits = [s.step for s, hit in zip(trace.steps, in_obstacle) if hit]
    add("no obstacle cell visited", not hits, f"steps {hits[:5]}")

    # street avoidance after each sign's first detection
    street_ok = True
    detail = ""
    for sign_cells, street_cells, sign in links:
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
        add("final cell is a target cell", bool(in_target[-1]))

    # reroute shape around the first detection
    first_det = next((s for s in trace.steps if s.detected), None)
    if first_det is not None:
        street_box = None
        for sign_cells, _, sign in links:
            if np.isin(first_det.detected, sign_cells).any():
                street_box = sign.street_box
                break
        if street_box is not None:
            pos = first_det.state
            near = (min(max(pos[0], street_box.lower[0]), street_box.upper[0]),
                    min(max(pos[1], street_box.lower[1]), street_box.upper[1]))
            dirx, diry = near[0] - pos[0], near[1] - pos[1]
            heading_toward = (dirx * math.cos(pos[2])
                              + diry * math.sin(pos[2])) > 0
            add("pre-detection heading points at the street", heading_toward)
            d0 = _planar_distance_to_box(pos, street_box)
            d_end = _planar_distance_to_box(trace.steps[-1].state, street_box)
            add("post-detection path diverges from the street", d_end > d0,
                f"distance {d0:.3f} -> {d_end:.3f}")

    return results


def audit_ok(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)
