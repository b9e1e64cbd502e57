"""The desk_missions workload, run as one child process of perfbench/run.py.

Sets up an abstraction (build, save, load, build_world), solves the no-sign
game before, inside and after the batch, and runs a batch of closed-loop
missions one after another from start states drawn from the seed.  Writes
a JSON result; the parent process turns it into metrics.

    python perfbench/missions.py SCENARIO WORKDIR SEED OUT.json [SPANS.json RUN_ID]
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import traceback

import numpy as np

MISSIONS = 3
# the start band below the signs, 0.5 clear of the side walls (x in
# [0.5, 7.5] on the desk map); the heading is free
START_MARGIN = 0.5
START_Y = (0.5, 2.2)
MAX_DRAWS = 1000
# audit_trace's reroute-shape checks describe the bundled start (heading
# north at the mid street); from a drawn start a correct run can fail them,
# so they are recorded but not required
SHAPE_CHECKS = ("pre-detection heading points at the street",
                "post-detection path diverges from the street")


def draw_starts(seed: int, winning, grid_x) -> list[tuple[list[float], int]]:
    """One start per x-stratum of the band, in a seed-shuffled order, each
    redrawn until the no-sign controller wins its cell.  Stratifying x keeps
    the mix of routes (and so of re-syntheses) alike from seed to seed."""
    rng = np.random.default_rng(seed)
    x0 = float(grid_x.bounds.lower[0]) + START_MARGIN
    width = (float(grid_x.bounds.upper[0]) - START_MARGIN - x0) / MISSIONS
    starts = []
    for k in rng.permutation(MISSIONS):
        for _ in range(MAX_DRAWS):
            x = [x0 + width * (k + rng.random()),
                 rng.uniform(*START_Y), rng.uniform(-math.pi, math.pi)]
            if winning[grid_x.quantize(np.array(x))]:
                break
        else:
            raise RuntimeError(f"no winning start found in stratum {k}")
        starts.append((x, int(rng.integers(2**31))))
    return starts


def run(scenario_path: str, workdir: str, seed: int) -> dict:
    import kaware
    from kaware.audit import audit_trace

    out: dict = {"missions": []}
    cache = os.path.join(workdir, "missions.kaw")
    t0 = time.perf_counter()
    scenario = kaware.load_scenario(scenario_path)
    built = kaware.build_abstraction(scenario.system(), scenario.state_grid(),
                                     scenario.input_grid())
    built.save(cache)
    world = kaware.build_world(scenario, kaware.Abstraction.load(cache))
    out["setup_s"] = time.perf_counter() - t0
    stats = built.stats()
    del built
    out["transitions"] = stats["transitions"]
    out["blocked_pairs"] = stats["blocked_pairs"]
    out["cache_bytes"] = os.path.getsize(cache)

    ctrl_path = os.path.join(workdir, "missions_controller.csv")
    out["synthesize_s"], out["controller_sha256"] = [], []

    def synthesize():
        t0 = time.perf_counter()
        objective = kaware.compile_objective(world.interp, world.sign_links, set())
        controller = kaware.solve_reach_avoid(world.abstraction, objective)
        controller.export_csv(ctrl_path)
        out["synthesize_s"].append(time.perf_counter() - t0)
        with open(ctrl_path, "rb") as fh:
            out["controller_sha256"].append(hashlib.sha256(fh.read()).hexdigest())
        return controller

    # the no-sign solve is timed before, inside and after the batch, so that
    # its median spans the run rather than one moment of it
    controller = synthesize()
    starts = draw_starts(seed, controller.winning_mask, world.grid_x)
    for i, (x, sim_seed) in enumerate(starts):
        if i == len(starts) // 2:
            synthesize()
        mission = {"start": x, "seed": sim_seed}
        out["missions"].append(mission)
        started = dataclasses.replace(scenario, initial_state=np.array(x))
        try:
            t0 = time.perf_counter()
            trace = kaware.run_closed_loop(dataclasses.replace(world, scenario=started),
                                           seed=sim_seed, max_steps=scenario.max_steps)
            mission["wall_s"] = time.perf_counter() - t0
            mission.update(steps=len(trace.steps), resyntheses=trace.resynth_count,
                           outcome=trace.outcome.value)
            audit = audit_trace(scenario, trace)
            failed = [r.name for r in audit if not r.ok and r.name not in SHAPE_CHECKS]
            mission["shape_checks_failed"] = [r.name for r in audit
                                              if not r.ok and r.name in SHAPE_CHECKS]
            if trace.outcome is not kaware.Outcome.REACHED_TARGET:
                failed.append(f"outcome {trace.outcome.value}")
            mission["ok"] = not failed
            mission["detail"] = "; ".join(failed)
        except Exception as exc:  # a failed mission is counted, the batch goes on
            mission["ok"] = False
            mission["detail"] = "".join(traceback.format_exception_only(exc)).strip()
    synthesize()
    return out


def main(argv: list[str]) -> int:
    scenario_path, workdir, seed, out_path = argv[:4]
    tracer = None
    if len(argv) > 4:
        from tracer import Tracer
        tracer = Tracer(argv[5])
        tracer.install()
    try:
        result = run(scenario_path, workdir, int(seed))
    finally:
        if tracer is not None:
            tracer.dump(argv[4])
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
