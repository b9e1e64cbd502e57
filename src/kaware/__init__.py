"""Knowledge-aware abstraction-based controller synthesis.

Pipeline: discretize the continuous system into a finite transition
system, translate the knowledge base plus the mission objective into a
reach-avoid game, solve it, and simulate the closed loop with online
re-synthesis on detection events.
"""

from .abstraction import Abstraction, build_abstraction
from .dynamics import ContinuousSystem, dubins_car, flow, reach_over_approx
from .grid import Grid, HyperRect, make_grid
from .knowledge import Interpretation, assemble_interpretation
from .ltl import (GameObjective, check_trace, compile_objective, eval_concept,
                  parse_concept, parse_ltl)
from .runtime import Outcome, Trace, run_closed_loop
from .scenario import Scenario, World, build_world, load_scenario
from .synthesis import Controller, solve_reach_avoid

# the cache no longer uses varint coding; the module stays loaded with the
# package while the benchmark's per-layer spans still wrap its functions
from . import varint  # noqa: F401

__all__ = [
    "Abstraction", "build_abstraction",
    "ContinuousSystem", "dubins_car", "flow", "reach_over_approx",
    "Grid", "HyperRect", "make_grid",
    "Interpretation", "assemble_interpretation",
    "eval_concept", "parse_concept",
    "GameObjective", "check_trace", "compile_objective", "parse_ltl",
    "Outcome", "Trace", "run_closed_loop",
    "Scenario", "World", "build_world", "load_scenario",
    "Controller", "solve_reach_avoid",
]

__version__ = "0.1.0"
