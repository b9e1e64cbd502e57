"""Command-line pipeline: abstract -> synthesize -> simulate -> render/check."""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from .abstraction import Abstraction, build_abstraction
from .audit import audit_ok, audit_trace
from .errors import (CacheFormatError, KawareError, ScenarioParseError,
                     ScenarioValidationError, TraceFormatError)
from .ltl import compile_objective
from .render import render_svg
from .runtime import read_trace_csv, run_closed_loop, write_trace_csv
from .scenario import build_world, load_scenario
from .synthesis import solve_reach_avoid

log = logging.getLogger("kaware")


def cmd_abstract(args) -> int:
    scenario = load_scenario(args.scenario)
    t0 = time.perf_counter()
    try:
        abs_ = build_abstraction(scenario.system(), scenario.state_grid(),
                                 scenario.input_grid())
    except OverflowError as exc:
        raise ScenarioValidationError("system.tau", str(exc)) from None
    built = time.perf_counter() - t0
    abs_.save(args.output)
    stats = abs_.stats()
    print(f"states: {stats['n_states']}")
    print(f"inputs: {stats['n_inputs']}")
    print(f"transitions: {stats['transitions']}")
    print(f"blocked pairs: {stats['blocked_pairs']}")
    print(f"build time: {built:.2f} s")
    return 0


def cmd_synthesize(args) -> int:
    scenario = load_scenario(args.scenario)
    world = build_world(scenario, Abstraction.load(args.cache))
    known = [c for cells, _ in world.sign_links for c in cells] \
        if args.known_signs == "all" else []
    objective = compile_objective(world.interp, world.sign_links, known)
    t0 = time.perf_counter()
    controller = solve_reach_avoid(world.abstraction, objective)
    solved = time.perf_counter() - t0
    n_win = int(controller.winning_mask.sum())
    print(f"target cells: {len(objective.target)}")
    print(f"avoid cells: {len(objective.avoid)}")
    print(f"winning cells: {n_win}")
    print(f"solve time: {solved:.2f} s")
    controller.export_csv(args.output)
    print(f"controller written to {args.output}")
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    if seed < 0:
        raise ScenarioValidationError("--seed", "must not be negative")
    world = build_world(scenario, Abstraction.load(args.cache))
    trace = run_closed_loop(world, seed=seed, max_steps=scenario.max_steps)
    write_trace_csv(trace, args.output)
    print(f"outcome: {trace.outcome.value}")
    print(f"steps: {len(trace.steps)}")
    print(f"resyntheses: {trace.resynth_count}")
    print(f"trace written to {args.output}")
    return 0


def cmd_render(args) -> int:
    scenario = load_scenario(args.scenario)
    trace = read_trace_csv(args.trace)
    svg = render_svg(scenario, trace)
    with open(args.output, "w") as fh:
        fh.write(svg)
    print(f"rendered to {args.output}")
    return 0


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    trace = read_trace_csv(args.trace)
    results = audit_trace(scenario, trace)
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        suffix = f"  ({r.detail})" if r.detail and not r.ok else ""
        print(f"{mark}  {r.name}{suffix}")
    return 0 if audit_ok(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaware",
        description="knowledge-aware abstraction-based controller synthesis")
    parser.add_argument("--log-level", choices=["error", "info", "debug"],
                        default="info")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abstract", help="build and cache the finite abstraction")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("synthesize", help="solve the reach-avoid game")
    p.add_argument("scenario")
    p.add_argument("--cache", required=True)
    p.add_argument("--known-signs", choices=["all", "none"], default="none")
    p.add_argument("-o", "--output", default="controller.csv")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="run the closed loop and log a trace")
    p.add_argument("scenario")
    p.add_argument("--cache", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="draw the map and trajectory as SVG")
    p.add_argument("trace")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("check", help="independently audit a logged trace")
    p.add_argument("trace")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_check)
    return parser


def _check_writable(path: str):
    """Raise the ``OSError`` that writing ``path`` would raise, before any
    work is done; the file is neither created nor truncated."""
    try:
        os.close(os.open(path, os.O_WRONLY))
    except FileNotFoundError:
        parent = os.path.dirname(path) or "."
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig only adds a handler to a root logger that has none, so
    # the level is set on the kaware logger itself, on every call
    logging.basicConfig()
    log.setLevel(args.log_level.upper())
    try:
        if "output" in args:
            _check_writable(args.output)
        return args.func(args)
    except (ScenarioParseError, TraceFormatError) as exc:
        print(f"error:parse: {exc}", file=sys.stderr)
        return 2
    except ScenarioValidationError as exc:
        print(f"error:validation: {exc}", file=sys.stderr)
        return 2
    except CacheFormatError as exc:
        print(f"error:cache: {exc}", file=sys.stderr)
        return 2
    except (KawareError, OSError) as exc:
        # every input is read behind a typed error, so an OSError here is
        # an output that could not be written
        print(f"error:runtime: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error:runtime: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
