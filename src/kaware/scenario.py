"""Scenario files: JSON schema, validation, and the prepared World bundle.

A scenario declares the system block (model, sampling time, bounds,
discretization, disturbance), the map (concept regions plus no-entry
signs, each linked to exactly one street region), the knowledge section
(declared concepts, role range, TBox axioms), the mission objective, and
the run parameters.  Region boxes may omit trailing dimensions; missing
dimensions default to the full range (a planar box means "all headings").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import knowledge
from .dynamics import ContinuousSystem, dubins_car
from .errors import ScenarioParseError, ScenarioValidationError
from .grid import Grid, HyperRect, make_grid
from .ltl import LtlFormula, parse_ltl
from .errors import LtlSyntaxError


@dataclass
class Sign:
    name: str
    sign_box: HyperRect
    street_box: HyperRect


@dataclass
class Scenario:
    name: str
    model: str
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
    tbox: list
    objective_text: str
    objective: LtlFormula
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
        if self.model != "dubins_car":
            raise ScenarioValidationError("system.model",
                                          f"unknown model {self.model!r}")
        return dubins_car(tau=self.tau, dist_halfwidth=self.disturbance)

    def knowledge_base(self) -> knowledge.KnowledgeBase:
        return knowledge.KnowledgeBase(
            atomic_concepts=set(self.regions)
            | {"Target", "Obstacle", "NoEntrySign"},
            roles={"Proximity": self.proximity_range},
            tbox=list(self.tbox),
        )

    def all_regions(self) -> dict[str, list[HyperRect]]:
        out = {k: list(v) for k, v in self.regions.items()}
        out.setdefault("NoEntrySign", [])
        out["NoEntrySign"].extend(s.sign_box for s in self.signs)
        return out


@dataclass
class World:
    """Everything the control loop needs, built once per scenario.

    ``controllers`` memoizes solved games by compiled objective ``(target,
    avoid)``, each entry tagged with the abstraction it was solved on.
    ``dataclasses.replace`` copies share it, so a later run that reaches
    the same knowledge state reuses the controller.
    """

    scenario: Scenario
    system: ContinuousSystem
    grid_x: Grid
    grid_u: Grid
    abstraction: object
    interp: knowledge.Interpretation
    sign_links: list[tuple[frozenset, frozenset]]
    sign_concept: str = "NoEntrySign"
    street_extents: list[frozenset] = field(default_factory=list)
    controllers: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def initial_state(self) -> np.ndarray:
        return self.scenario.initial_state


def build_world(scenario: Scenario, abstraction) -> World:
    grid_x = abstraction.grid_x
    grid_u = abstraction.grid_u
    kb = scenario.knowledge_base()
    interp = knowledge.assemble_interpretation(kb, scenario.all_regions(), grid_x)
    links = []
    streets = []
    for sign in scenario.signs:
        sign_cells = frozenset(grid_x.cells_intersecting(sign.sign_box).tolist())
        street_cells = frozenset(grid_x.cells_intersecting(sign.street_box).tolist())
        links.append((sign_cells, street_cells))
        streets.append(street_cells)
    return World(scenario=scenario, system=scenario.system(),
                 grid_x=grid_x, grid_u=grid_u, abstraction=abstraction,
                 interp=interp, sign_links=links, street_extents=streets)


# ---------------------------------------------------------------------------
# loading


def _box(entry, bounds: HyperRect, where: str) -> HyperRect:
    try:
        lo = [float(v) for v in entry["lower"]]
        hi = [float(v) for v in entry["upper"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioValidationError(where, f"bad box: {exc}") from None
    if len(lo) != len(hi):
        raise ScenarioValidationError(where, "lower/upper length mismatch")
    if len(lo) > bounds.ndim:
        raise ScenarioValidationError(where, "box has too many dimensions")
    # pad missing trailing dimensions with the full range
    for d in range(len(lo), bounds.ndim):
        lo.append(float(bounds.lower[d]))
        hi.append(float(bounds.upper[d]))
    rect = HyperRect(lo, hi)
    if not rect.intersects(bounds) and not np.array_equal(rect.lower, rect.upper):
        raise ScenarioValidationError(where, "box does not intersect the state bounds")
    return rect


def _require(mapping, key, where):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise ScenarioValidationError(f"{where}.{key}", "missing field") from None


def _bounds(sysblk, key: str) -> HyperRect:
    where = f"system.{key}"
    blk = _require(sysblk, key, "system")
    try:
        return HyperRect(_require(blk, "lower", where),
                         _require(blk, "upper", where))
    except (TypeError, ValueError) as exc:
        raise ScenarioValidationError(where, str(exc)) from None


def _vector(sysblk, key: str, n: int, dtype=float, default=None) -> np.ndarray:
    """A per-dimension entry of the system block, checked to have ``n``
    entries."""
    where = f"system.{key}"
    value = (_require(sysblk, key, "system") if default is None
             else sysblk.get(key, default))
    try:
        vec = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ScenarioValidationError(where, str(exc)) from None
    if vec.shape != (n,):
        raise ScenarioValidationError(where, f"needs {n} entries, one per dimension")
    return vec


def _number(value, where: str, kind=float):
    """``value`` as a finite number of type ``kind``."""
    try:
        num = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioValidationError(where, f"needs a number, got {value!r}") from None
    if not np.isfinite(num):
        raise ScenarioValidationError(where, "needs a finite number")
    return num


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioValidationError(where, "needs an object")
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
    state_bounds = _bounds(sysblk, "state_bounds")
    input_bounds = _bounds(sysblk, "input_bounds")
    tau = _number(_require(sysblk, "tau", "system"), "system.tau")
    if tau <= 0:
        raise ScenarioValidationError("system.tau", "must be positive")
    nx = state_bounds.ndim
    eta_x = _vector(sysblk, "eta_x", nx)
    eta_u = _vector(sysblk, "eta_u", input_bounds.ndim)
    for key, eta in (("eta_x", eta_x), ("eta_u", eta_u)):
        if not np.all(eta > 0):
            raise ScenarioValidationError(f"system.{key}",
                                          "entries must be positive")
    periodic = _vector(sysblk, "periodic", nx, bool, default=[False] * nx)
    disturbance = _vector(sysblk, "disturbance", nx, default=[0.0] * nx)
    if np.any(disturbance < 0):
        raise ScenarioValidationError("system.disturbance",
                                      "half-widths must be non-negative")

    mapblk = _require(raw, "map", "scenario")
    regions: dict[str, list[HyperRect]] = {}
    for name, boxes in _object(_require(mapblk, "regions", "map"),
                               "map.regions").items():
        if not isinstance(boxes, list):
            raise ScenarioValidationError(f"map.regions.{name}",
                                          "needs a list of boxes")
        regions[name] = [
            _box(b, state_bounds, f"map.regions.{name}[{i}]")
            for i, b in enumerate(boxes)
        ]
    signs = []
    for i, s in enumerate(mapblk.get("signs", [])):
        if "street" not in s:
            raise ScenarioValidationError(f"map.signs[{i}]",
                                          "sign must link exactly one street region")
        signs.append(Sign(
            name=s.get("name", f"sign{i}"),
            sign_box=_box(_require(s, "sign", f"map.signs[{i}]"),
                          state_bounds, f"map.signs[{i}].sign"),
            street_box=_box(s["street"], state_bounds, f"map.signs[{i}].street"),
        ))

    kblk = _object(raw.get("knowledge", {}), "knowledge")
    proximity_range = _number(kblk.get("proximity_range", 2.0),
                              "knowledge.proximity_range")
    if proximity_range <= 0:
        raise ScenarioValidationError("knowledge.proximity_range",
                                      "must be positive")
    tbox = []
    for i, ax in enumerate(kblk.get("tbox", [])):
        name = _require(ax, "define", f"knowledge.tbox[{i}]")
        if "concept" in ax:
            try:
                c = knowledge.parse_concept(ax["concept"])
            except LtlSyntaxError as exc:
                raise ScenarioParseError(
                    f"knowledge.tbox[{i}].concept: {exc}") from None
            tbox.append(knowledge.Equivalence(name, c))
        elif "temporal" in ax:
            try:
                phi = parse_ltl(ax["temporal"])
            except LtlSyntaxError as exc:
                raise ScenarioParseError(
                    f"knowledge.tbox[{i}].temporal: {exc}") from None
            tbox.append(knowledge.TemporalEquivalence(name, phi))
        else:
            raise ScenarioValidationError(f"knowledge.tbox[{i}]",
                                          "need 'concept' or 'temporal'")

    objective_text = _require(raw, "objective", "scenario")
    try:
        objective = parse_ltl(objective_text)
    except LtlSyntaxError as exc:
        raise ScenarioParseError(f"objective: {exc}") from None

    try:
        initial_state = np.asarray(_require(raw, "initial_state", "scenario"),
                                   dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioValidationError("initial_state", str(exc)) from None
    if initial_state.shape != (state_bounds.ndim,):
        raise ScenarioValidationError("initial_state", "dimension mismatch")
    if not np.all(np.isfinite(initial_state)):
        raise ScenarioValidationError("initial_state", "needs finite numbers")
    seed = _number(raw.get("seed", 0), "seed", int)
    max_steps = _number(raw.get("max_steps", 500), "max_steps", int)
    if seed < 0 or max_steps < 0:
        raise ScenarioValidationError("seed" if seed < 0 else "max_steps",
                                      "must not be negative")
    if "Target" not in regions:
        raise ScenarioValidationError("map.regions", "a Target region is required")

    return Scenario(
        name=raw.get("name", "scenario"),
        model=_require(sysblk, "model", "system"),
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
        tbox=tbox,
        objective_text=objective_text,
        objective=objective,
        initial_state=initial_state,
        seed=seed,
        max_steps=max_steps,
    )
