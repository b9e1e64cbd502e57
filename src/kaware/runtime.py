"""Closed-loop execution: sense, re-synthesize on knowledge change, act.

Each sampling step quantizes the concrete state, runs the detection
relation against the undetected sign cells, and on a new detection
recompiles the objective and re-solves the game, unless the world has
already solved that objective.  It then applies the policy input,
integrates the disturbed dynamics for one period, and wraps the state on
the grid's periodic dimensions.  The disturbance realization is piecewise
constant per period, drawn uniformly from W by a seeded generator, so runs
are bit-reproducible.  When W = {0} nothing is drawn: the disturbance is
zero, no generator is made, and the seed changes nothing but the trace's
seed line.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import flow
from .errors import (InitialStateNotWinning, InitialStateOutsideDomain,
                     OutOfDomain, TraceFormatError)
from .ltl import compile_objective
from .synthesis import solve_reach_avoid

log = logging.getLogger("kaware")


class Outcome(enum.Enum):
    REACHED_TARGET = "ReachedTarget"
    ENTERED_AVOID = "EnteredAvoid"
    SYNTHESIS_FAILED = "SynthesisFailed"
    STEP_LIMIT = "StepLimit"


@dataclass
class TraceStep:
    step: int
    time: float
    state: np.ndarray
    cell: int
    input_index: int          # -1 on the terminal row
    input_value: float
    detected: tuple[int, ...]
    resynthesized: bool


@dataclass
class Trace:
    seed: int
    steps: list[TraceStep]
    outcome: Outcome

    @property
    def resynth_count(self) -> int:
        """Rows whose detection re-synthesized, the terminal row included."""
        return sum(1 for s in self.steps if s.resynthesized)


def sensor_step(interp, sign_extent: np.ndarray, cell: int,
                known: set[int]) -> tuple[int, ...]:
    """Detect the cells of the ``sign_extent`` mask not yet in ``known``
    that are in proximity of the current cell, and add them to ``known``;
    knowledge only grows.  Returns the newly detected cells, sorted."""
    role = interp.roles["Proximity"]
    undetected = sign_extent.copy()
    undetected[list(known)] = False
    candidates = np.flatnonzero(undetected)
    newly = tuple(candidates[role.relate([cell], candidates)[0]].tolist())
    known.update(newly)
    return newly


def _controller_for(world, objective):
    """The world's controller for ``objective``, solved on a memo miss.

    Returns ``(controller, seconds)``; ``seconds`` is None on a hit.  Only
    an entry solved on ``world.abstraction`` itself is a hit.
    """
    hit = world.controllers.get(objective)
    if hit is not None and hit[0] is world.abstraction:
        return hit[1], None
    t0 = time.perf_counter()
    controller = solve_reach_avoid(world.abstraction, objective)
    world.controllers[objective] = (world.abstraction, controller)
    return controller, time.perf_counter() - t0


def run_closed_loop(world, seed: int, max_steps: int) -> Trace:
    """Run the knowledge-aware control loop until target entry, avoid
    entry, synthesis failure, or the step limit.

    ``world`` is a prepared :class:`~kaware.scenario.World` bundling the
    system, grids, abstraction, interpretation, and sign/street links.
    """
    grid_x, grid_u = world.grid_x, world.grid_u
    sys = world.system
    try:
        grid_x.quantize(world.initial_state)
    except OutOfDomain:
        raise InitialStateOutsideDomain(f"initial state {world.initial_state.tolist()}"
                                        " outside the state space") from None
    if seed < 0:
        # the error np.random.default_rng gives, whether or not one is made
        raise ValueError("expected non-negative integer")
    # W = {0} draws nothing, so the run never imports numpy.random
    rng = np.random.default_rng(seed) if sys.dist_halfwidth.any() else None
    known: set[int] = set()
    sign_extent = world.interp.extent("NoEntrySign")
    objective = compile_objective(world.interp, world.sign_links, known)
    controller, _ = _controller_for(world, objective)
    steps: list[TraceStep] = []
    x = np.asarray(world.initial_state, dtype=float)
    outcome = Outcome.STEP_LIMIT

    for i in range(max_steps + 1):
        cell = grid_x.quantize(x)
        newly, resynth = (), False
        if cell in objective.avoid:
            outcome = Outcome.ENTERED_AVOID
            break
        if cell in objective.target:
            outcome = Outcome.REACHED_TARGET
            break
        if i == 0 and not controller.winning_mask[cell]:
            raise InitialStateNotWinning(
                f"initial cell {cell} outside the winning region")
        newly = sensor_step(world.interp, sign_extent, cell, known)
        resynth = bool(newly)
        if resynth:
            previous = objective
            objective = compile_objective(world.interp, world.sign_links, known)
            controller, solve_s = _controller_for(world, objective)
            # the arguments cost a join over every detected cell; build them
            # only for a record that will be emitted
            if log.isEnabledFor(logging.DEBUG):
                log.debug("step %d: detected %d cells (%s); objective %s; "
                          "controller %s", i, len(newly), ";".join(map(str, newly)),
                          "unchanged" if objective == previous else "changed",
                          "reused" if solve_s is None else
                          f"solved ({controller.sweeps} sweeps, {solve_s:.3f} s)")
        if not controller.winning_mask[cell]:
            if i == 0:
                raise InitialStateNotWinning(
                    f"initial cell {cell} left the winning region when the "
                    f"{len(newly)} sign cells detected at step 0 shrank it")
            outcome = Outcome.SYNTHESIS_FAILED
            break
        if i == max_steps:
            break
        u_idx = controller.policy(cell)
        u = grid_u.center(u_idx)
        w = (np.zeros_like(sys.dist_halfwidth) if rng is None else
             rng.uniform(-sys.dist_halfwidth, sys.dist_halfwidth))
        steps.append(TraceStep(i, i * sys.tau, x, cell, u_idx, float(u[0]),
                               newly, resynth))
        x = grid_x.wrap(flow(sys, x, u, sys.tau, disturbance=w))
    if max_steps >= 0:
        # the terminal row: the state the run ended in, with no input
        steps.append(TraceStep(i, i * sys.tau, x, cell, -1, 0.0,
                               newly, resynth))

    return Trace(seed=seed, steps=steps, outcome=outcome)


# ---------------------------------------------------------------------------
# trace CSV

_COLUMNS = "step,time,x1,x2,x3,cell,input_index,u_value,detected,resynth,outcome_at_end"
_N_FIELDS = _COLUMNS.count(",") + 1


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_trace_csv(trace: Trace, path: str):
    lines = [f"# seed={trace.seed}", _COLUMNS]
    last = len(trace.steps) - 1
    for idx, st in enumerate(trace.steps):
        detected = ";".join(str(c) for c in st.detected)
        outcome = trace.outcome.value if idx == last else ""
        lines.append(",".join([
            str(st.step), _fmt(st.time),
            _fmt(st.state[0]), _fmt(st.state[1]), _fmt(st.state[2]),
            str(st.cell), str(st.input_index), _fmt(st.input_value),
            detected, "1" if st.resynthesized else "0", outcome,
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path: str) -> Trace:
    """Read a trace written by :func:`write_trace_csv`; anything else
    raises :class:`TraceFormatError`."""
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except (OSError, ValueError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    steps, outcome = [], None
    where = "seed line"
    try:
        if not lines or not lines[0].startswith("# seed="):
            raise TraceFormatError(f"{path}: missing seed line")
        seed = int(lines.pop(0).split("=", 1)[1])
        if not lines or lines[0] != _COLUMNS:
            raise TraceFormatError(f"{path}: missing or unexpected trace header row")
        for row, ln in enumerate(lines[1:], 1):
            where = f"row {row}"
            parts = ln.split(",")
            if len(parts) != _N_FIELDS:
                raise ValueError(f"{len(parts)} fields, expected {_N_FIELDS}")
            detected = tuple(int(c) for c in parts[8].split(";") if c)
            step, cell, u_idx = (int(parts[i]) for i in (0, 5, 6))
            reals = [float(parts[i]) for i in (1, 2, 3, 4, 7)]
            # every number must fit the int64 and float64 arrays it feeds
            if (not np.all(np.isfinite(reals))
                    or max(map(abs, (step, cell, u_idx) + detected)) >= 2**63):
                raise ValueError("number out of range")
            steps.append(TraceStep(
                step=step, time=reals[0], state=np.array(reals[1:4]),
                cell=cell, input_index=u_idx, input_value=reals[4],
                detected=detected, resynthesized=parts[9] == "1"))
            if parts[10]:
                outcome = Outcome(parts[10])
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {where}: {exc}") from None
    if outcome is None:
        raise TraceFormatError(f"{path}: trace has no outcome marker")
    return Trace(seed=seed, steps=steps, outcome=outcome)
