"""Scenario files: JSON schema, validation, and the prepared World bundle.

A scenario declares the system block (model, sampling time, bounds,
discretization, disturbance), the map (concept regions plus no-entry
signs, each linked to exactly one street region; the signs alone make up
the ``NoEntrySign`` concept, and every concept name takes its cells from
one source: its region boxes, the signs, or one axiom), the knowledge section
(role range, TBox axioms), the mission objective, and the run parameters.
A ``concept`` axiom defines its name by a concept formula; a ``temporal``
axiom is parsed and name-checked, then dropped: it does not shape the
game, whose only avoid cells beyond the objective's unsafe cells are the
streets of the detected ``map.signs`` signs.
Region boxes may omit trailing dimensions; missing dimensions default to
the full range (a planar box means "all headings").  Every number is a
finite JSON number, read by one reader: a boolean or a numeric string
such as ``"0.5"`` is a validation error.  ``periodic`` takes JSON
booleans, and the scenario's and the signs' names take strings.

:func:`load_scenario` alone decides which concept and role names exist: it
checks each axiom's names as it reads the axiom, and the objective's
against the same names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import knowledge
from .abstraction import INDEX_LIMIT, fingerprint
from .dynamics import ContinuousSystem, dubins_car
from .errors import (CacheFormatError, LtlSyntaxError, ScenarioParseError,
                     ScenarioValidationError)
from .grid import Grid, HyperRect, make_grid
from .ltl import (Formula, eval_concept, mentions, parse_concept, parse_ltl,
                  propositions, reach_avoid)


@dataclass
class Sign:
    name: str
    sign_box: HyperRect
    street_box: HyperRect


@dataclass
class Scenario:
    name: str
    tau: float
    state_bounds: HyperRect
    input_bounds: HyperRect
    eta_x: np.ndarray
    eta_u: np.ndarray
    periodic: np.ndarray
    disturbance: np.ndarray
    regions: dict[str, list[HyperRect]]
    signs: list[Sign]
    proximity_range: float
    definitions: dict[str, Formula]  # the concept axioms, in file order
    objective: Formula
    initial_state: np.ndarray
    seed: int
    max_steps: int

    # ---- derived builders -------------------------------------------------

    def state_grid(self) -> Grid:
        return make_grid(self.state_bounds.lower, self.state_bounds.upper,
                         self.eta_x, self.periodic)

    def input_grid(self) -> Grid:
        return make_grid(self.input_bounds.lower, self.input_bounds.upper,
                         self.eta_u)

    def system(self) -> ContinuousSystem:
        return dubins_car(tau=self.tau, dist_halfwidth=self.disturbance)

    def ground(self, grid_x: Grid) -> tuple[knowledge.Interpretation,
                                            list[tuple[np.ndarray, np.ndarray]]]:
        """The interpretation over ``grid_x`` with the objective, whose goal
        must hold in some cell, and each sign's sorted cells with its street's.
        ``NoEntrySign`` holds exactly the signs' boxes, each region its own."""
        boxes = {**self.regions, "NoEntrySign": [s.sign_box for s in self.signs]}
        roles = {"Proximity": knowledge.ProximityRole(grid_x, self.proximity_range)}
        interp = knowledge.assemble_interpretation(boxes, roles, self.definitions,
                                                   grid_x)
        interp.objective = self.objective
        if not eval_concept(interp, reach_avoid(self.objective)[1]).any():
            raise ScenarioValidationError("objective", "the goal holds in no cell")
        links = [(grid_x.cells_intersecting(s.sign_box),
                  grid_x.cells_intersecting(s.street_box)) for s in self.signs]
        return interp, links


@dataclass
class World:
    """Everything the control loop needs, built once per scenario.

    ``sign_links`` pairs each sign's sorted cell indices with its street's;
    the ``NoEntrySign`` extent is the union of their sign cells.
    ``controllers`` memoizes solved games by their ``GameObjective``, which
    hashes as its two cell masks, each entry tagged with the abstraction it
    was solved on.
    ``dataclasses.replace`` copies share it, so a later run that reaches
    the same knowledge state reuses the controller.
    """

    scenario: Scenario
    system: ContinuousSystem
    grid_x: Grid
    grid_u: Grid
    abstraction: object
    interp: knowledge.Interpretation
    sign_links: list[tuple[np.ndarray, np.ndarray]]
    controllers: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def initial_state(self) -> np.ndarray:
        return self.scenario.initial_state


def build_world(scenario: Scenario, abstraction) -> World:
    """The scenario grounded on ``abstraction``'s grid; an abstraction built
    for other dynamics raises ``CacheFormatError``."""
    system, grid_x = scenario.system(), abstraction.grid_x
    if abstraction.fingerprint != fingerprint(system, scenario.state_grid(),
                                              scenario.input_grid()):
        raise CacheFormatError("cache was built for other dynamics: the model, "
                               "tau, disturbance or grids differ from the "
                               "scenario's")
    interp, links = scenario.ground(grid_x)
    return World(scenario=scenario, system=system,
                 grid_x=grid_x, grid_u=abstraction.grid_u,
                 abstraction=abstraction, interp=interp, sign_links=links)


# ---------------------------------------------------------------------------
# loading


def _reals(value, where: str, n=None):
    """A JSON number as a finite float or, with ``n``, a list of ``n`` of
    them as a float array.  A boolean or a numeric string is no number."""
    items = [value] if n is None else value
    if (n is not None and not (isinstance(value, list) and len(value) == n)
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in items)):
        kind = "a number" if n is None else f"a list of {n} numbers"
        raise ScenarioValidationError(where, f"needs {kind}, got {value!r}")
    try:
        nums = np.asarray(items, dtype=float)
    except OverflowError:  # an integer past the float range
        raise ScenarioValidationError(where, "needs finite numbers") from None
    if not np.all(np.isfinite(nums)):
        raise ScenarioValidationError(where, "needs finite numbers")
    return nums if n is not None else float(nums[0])


def _box(entry, where: str, bounds: HyperRect | None = None) -> HyperRect:
    """The box ``entry``; within ``bounds`` it may omit trailing dimensions,
    which take the full range, and must meet the bounds."""
    lower = _require(entry, "lower", where)
    lo = _reals(lower, f"{where}.lower", len(_typed(lower, list, f"{where}.lower")))
    hi = _reals(_require(entry, "upper", where), f"{where}.upper", len(lo))
    if bounds is not None:
        if len(lo) > bounds.ndim:
            raise ScenarioValidationError(where, "box has too many dimensions")
        lo = np.concatenate([lo, bounds.lower[len(lo):]])
        hi = np.concatenate([hi, bounds.upper[len(hi):]])
    try:
        rect = HyperRect(lo, hi)
    except ValueError as exc:
        raise ScenarioValidationError(where, str(exc)) from None
    if (bounds is not None and not rect.intersects(bounds)
            and not np.array_equal(rect.lower, rect.upper)):
        raise ScenarioValidationError(where, "box does not intersect the state bounds")
    return rect


def _require(mapping, key, where):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ScenarioValidationError(f"{where}.{key}", "missing field") from None


def _integer(value, where: str) -> int:
    """``value`` as an int: a JSON number with no fractional part."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ScenarioValidationError(where, f"needs an integer, got {value!r}")
    return int(value)


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind, where: str):
    if not isinstance(value, kind):
        raise ScenarioValidationError(where, f"needs {_KINDS[kind]}")
    return value


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None

    sysblk = _require(raw, "system", "scenario")
    model = _require(sysblk, "model", "system")
    if model != "dubins_car":
        raise ScenarioValidationError("system.model", f"unknown model {model!r}")
    bounds = []
    for key, ndim in (("state_bounds", 3), ("input_bounds", 1)):
        rect = _box(_require(sysblk, key, "system"), f"system.{key}")
        if rect.ndim != ndim:
            raise ScenarioValidationError(f"system.{key}",
                                          f"the model needs {ndim}-dimensional bounds")
        bounds.append(rect)
    state_bounds, input_bounds = bounds
    tau = _reals(_require(sysblk, "tau", "system"), "system.tau")
    if tau <= 0:
        raise ScenarioValidationError("system.tau", "must be positive")
    nx = state_bounds.ndim
    eta_x = _reals(_require(sysblk, "eta_x", "system"), "system.eta_x", nx)
    eta_u = _reals(_require(sysblk, "eta_u", "system"), "system.eta_u",
                   input_bounds.ndim)
    for key, eta in (("eta_x", eta_x), ("eta_u", eta_u)):
        if not np.all(eta > 0):
            raise ScenarioValidationError(f"system.{key}",
                                          "entries must be positive")
    periodic = sysblk.get("periodic", [False] * nx)
    if not (isinstance(periodic, list) and len(periodic) == nx
            and all(isinstance(p, bool) for p in periodic)):
        raise ScenarioValidationError("system.periodic",
                                      f"needs a list of {nx} booleans")
    periodic = np.array(periodic)
    disturbance = _reals(sysblk.get("disturbance", [0.0] * nx),
                         "system.disturbance", nx)
    if np.any(disturbance < 0):
        raise ScenarioValidationError("system.disturbance",
                                      "half-widths must be non-negative")

    mapblk = _require(raw, "map", "scenario")
    # where each concept name takes its cells from: one source per name.  The
    # game forbids the streets of the signs in map.signs, so the sensor's
    # NoEntrySign concept holds exactly those signs' boxes
    sources = {"NoEntrySign": "map.signs"}
    regions: dict[str, list[HyperRect]] = {}
    for name, boxes in _typed(_require(mapblk, "regions", "map"), dict,
                              "map.regions").items():
        if name in sources:
            raise ScenarioValidationError(
                f"map.regions.{name}", f"{name} takes its cells from {sources[name]}")
        sources[name] = f"map.regions.{name}"
        regions[name] = [
            _box(b, f"map.regions.{name}[{i}]", state_bounds)
            for i, b in enumerate(_typed(boxes, list, f"map.regions.{name}"))
        ]
    signs = []
    for i, s in enumerate(_typed(mapblk.get("signs", []), list, "map.signs")):
        if "street" not in _typed(s, dict, f"map.signs[{i}]"):
            raise ScenarioValidationError(f"map.signs[{i}]",
                                          "sign must link exactly one street region")
        signs.append(Sign(
            name=_typed(s.get("name", f"sign{i}"), str, f"map.signs[{i}].name"),
            sign_box=_box(_require(s, "sign", f"map.signs[{i}]"),
                          f"map.signs[{i}].sign", state_bounds),
            street_box=_box(s["street"], f"map.signs[{i}].street", state_bounds),
        ))

    kblk = _typed(raw.get("knowledge", {}), dict, "knowledge")
    proximity_range = _reals(kblk.get("proximity_range", 2.0),
                             "knowledge.proximity_range")
    if proximity_range <= 0:
        raise ScenarioValidationError("knowledge.proximity_range",
                                      "must be positive")
    # the names an axiom may use: the roles, the concepts with boxes and
    # the names of earlier concept axioms
    roles, concepts = {"Proximity"}, set(sources)
    definitions: dict[str, Formula] = {}
    for i, ax in enumerate(_typed(kblk.get("tbox", []), list, "knowledge.tbox")):
        where = f"knowledge.tbox[{i}]"
        name = _typed(_require(_typed(ax, dict, where), "define", where), str,
                      f"{where}.define")
        if name in sources:
            raise ScenarioValidationError(
                f"{where}.define", f"{name} takes its cells from {sources[name]}")
        sources[name] = where
        kind = "concept" if "concept" in ax else "temporal"
        if kind not in ax:
            raise ScenarioValidationError(where, "need 'concept' or 'temporal'")
        parse = parse_concept if kind == "concept" else parse_ltl
        try:
            body = parse(_typed(ax[kind], str, f"{where}.{kind}"))
        except LtlSyntaxError as exc:
            raise ScenarioParseError(f"{where}.{kind}: {exc}") from None
        for is_role, used in mentions(body):
            if used not in (roles if is_role else concepts):
                raise ScenarioValidationError(
                    where, f"undeclared concept or role {used}")
        if kind == "concept":
            concepts.add(name)
            definitions[name] = body

    try:
        objective = parse_ltl(_typed(_require(raw, "objective", "scenario"),
                                     str, "objective"))
        reach_avoid(objective)
    except LtlSyntaxError as exc:
        raise ScenarioParseError(f"objective: {exc}") from None
    except ValueError as exc:
        raise ScenarioValidationError("objective", str(exc)) from None
    undeclared = sorted(propositions(objective) - concepts)
    if undeclared:
        raise ScenarioValidationError("objective",
                                      f"undeclared concept {undeclared[0]}")

    initial_state = _reals(_require(raw, "initial_state", "scenario"),
                           "initial_state", nx)
    seed = _integer(raw.get("seed", 0), "seed")
    max_steps = _integer(raw.get("max_steps", 500), "max_steps")
    if seed < 0 or max_steps < 0:
        raise ScenarioValidationError("seed" if seed < 0 else "max_steps",
                                      "must not be negative")

    scenario = Scenario(
        name=_typed(raw.get("name", "scenario"), str, "name"),
        tau=tau,
        state_bounds=state_bounds,
        input_bounds=input_bounds,
        eta_x=eta_x,
        eta_u=eta_u,
        periodic=periodic,
        disturbance=disturbance,
        regions=regions,
        signs=signs,
        proximity_range=proximity_range,
        definitions=definitions,
        objective=objective,
        initial_state=initial_state,
        seed=seed,
        max_steps=max_steps,
    )
    for key, grid_of in (("eta_x", scenario.state_grid),
                         ("eta_u", scenario.input_grid)):
        try:
            cells = grid_of().size
        except (ValueError, OverflowError) as exc:
            raise ScenarioValidationError(f"system.{key}",
                                          f"no grid fits the bounds: {exc}") from None
        if key == "eta_x" and cells >= INDEX_LIMIT:
            raise ScenarioValidationError("system.eta_x", f"the grid has {cells} "
                                          "cells; the limit is 2**30 - 1")
    return scenario
