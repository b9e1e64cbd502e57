import copy
import hashlib
import json
import logging
import os
import pathlib
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kaware
from kaware.abstraction import Abstraction, _grid_fields
from kaware.cli import main
from kaware.errors import (CacheFormatError, ScenarioParseError,
                           ScenarioValidationError)
from kaware.ltl import MAX_DEPTH, compile_objective, parse_ltl
from kaware.scenario import build_world, load_scenario

from conftest import DESK_SCENARIO, FULL_SCENARIO, REFS

PI = np.pi


# ---------------------------------------------------------------------------
# scenario loading


def test_bundled_urban_scenario_loads(full_scenario):
    sc = full_scenario
    assert sc.name == "urban"
    assert sc.tau == 0.2
    assert sc.eta_u.tolist() == [0.26]
    assert sc.eta_x.tolist() == [0.15, 0.15, 0.26]
    assert sc.input_grid().size == 49
    assert len(sc.signs) == 2
    assert {s.name for s in sc.signs} == {"mid_street", "left_street"}
    assert sc.objective == parse_ltl("!Obstacle U Target")


def test_bundled_desk_scenario_loads(desk_scenario):
    assert desk_scenario.eta_x.tolist() == [0.3, 0.3, 0.52]
    assert desk_scenario.tau == 0.5
    assert desk_scenario.input_grid().size == 49


def test_planar_boxes_get_full_heading_range(full_scenario):
    box = full_scenario.regions["Target"][0]
    assert box.ndim == 3
    assert box.lower[2] == pytest.approx(-PI)
    assert box.upper[2] == pytest.approx(PI)


def _mutate(base_path, tmp_path, mutate):
    """Write an edited copy of a scenario; an infinite float is written as
    ``Infinity``, which the loader's JSON reader accepts."""
    raw = json.loads(base_path.read_text())
    mutate(raw)
    out = tmp_path / "mutant.scn.json"
    out.write_text(json.dumps(raw))
    return str(out)


def test_obstacle_in_the_trailing_strip_is_avoided(tmp_path):
    """On desk the last rect along x ends at 7.95; states in (7.95, 8]
    quantize to it, so an obstacle there covers it."""
    path = _mutate(DESK_SCENARIO, tmp_path, lambda raw: raw["map"]["regions"][
        "Obstacle"].append({"lower": [7.96, 0.0], "upper": [8.0, 11.0]}))
    sc = load_scenario(path)
    grid = sc.state_grid()
    interp = sc.ground(grid)[0]
    avoid = compile_objective(interp, [], set()).avoid
    assert grid.quantize([7.98, 5.0, 0.0]) == 11754
    assert 11754 in avoid
    assert len(avoid) == 3240 + 37 * 12  # every y and heading at the last x


def test_cli_runs_an_obstacle_reaching_the_float_limit(cli_artifacts, tmp_path):
    """JSON has no infinity, so the largest floats stand for it; such an
    obstacle covers the cells it would cover from the bounds on."""
    def corner(lower_x, upper_y):
        return lambda raw: raw["map"]["regions"]["Obstacle"].append(
            {"lower": [lower_x, 0.0], "upper": [0.5, upper_y]})

    huge = _mutate(DESK_SCENARIO, tmp_path, corner(-1.7e308, 1.7e308))
    assert main(["synthesize", huge, "--cache", str(cli_artifacts["cache"]),
                 "-o", str(tmp_path / "c.csv")]) == 0
    near = load_scenario(_mutate(DESK_SCENARIO, tmp_path, corner(0.0, 11.0)))
    grid = near.state_grid()
    assert np.array_equal(
        grid.cells_intersecting(load_scenario(huge).regions["Obstacle"][-1]),
        grid.cells_intersecting(near.regions["Obstacle"][-1]))


def test_target_outside_bounds_rejected(tmp_path):
    def mutate(raw):
        raw["map"]["regions"]["Target"] = [
            {"lower": [9.0, 12.0], "upper": [10.0, 13.0]}]
    path = _mutate(DESK_SCENARIO, tmp_path, mutate)
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(path)
    assert "Target" in exc.value.field


def test_unparsable_objective_rejected(tmp_path):
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw.update(objective="!Obstacle U U"))
    with pytest.raises(ScenarioParseError) as exc:
        load_scenario(path)
    assert "objective" in str(exc.value)


def test_bad_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.scn.json"
    path.write_text('{"name": "x", }')
    with pytest.raises(ScenarioParseError) as exc:
        load_scenario(str(path))
    assert "line" in str(exc.value)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ScenarioParseError):
        load_scenario(str(tmp_path / "nope.scn.json"))


def test_sign_requires_street_link(tmp_path):
    def mutate(raw):
        del raw["map"]["signs"][0]["street"]
    path = _mutate(DESK_SCENARIO, tmp_path, mutate)
    with pytest.raises(ScenarioValidationError):
        load_scenario(path)


def test_negative_disturbance_rejected(tmp_path):
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw["system"].update(disturbance=[-0.1, 0, 0]))
    with pytest.raises(ScenarioValidationError):
        load_scenario(path)


def test_missing_target_region_rejected(tmp_path):
    def mutate(raw):
        del raw["map"]["regions"]["Target"]
    path = _mutate(DESK_SCENARIO, tmp_path, mutate)
    with pytest.raises(ScenarioValidationError):
        load_scenario(path)


def test_nonpositive_tau_rejected(tmp_path):
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw["system"].update(tau=0.0))
    with pytest.raises(ScenarioValidationError):
        load_scenario(path)


@pytest.mark.parametrize("key,value", [
    ("eta_x", [0.0, 0.3, 0.52]),
    ("eta_x", [0.3, -0.3, 0.52]),
    ("eta_u", [0.0]),
    ("eta_x", [0.3, 0.3]),
    ("eta_u", [0.26, 0.26]),
    ("periodic", [False, True]),
    ("disturbance", [0.0, 0.0, 0.0, 0.0]),
    ("state_bounds", {"lower": [0.0, 0.0], "upper": [8.0, 8.0, 3.14]}),
    ("input_bounds", {"lower": [-6.28, 0.0], "upper": [6.28]}),
    ("state_bounds", {"lower": [0.0, 0.0], "upper": [8.0, 11.0]}),
    ("input_bounds", {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}),
    ("eta_x", [0.3, 0.3, 100.0]),
    ("eta_u", [1e-300]),
    ("tau", 1e20),
    ("tau", 1e300),
    ("disturbance", [1e300, 0.0, 0.0]),
])
def test_cli_rejects_bad_dimension_entries(tmp_path, capsys, key, value):
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw["system"].update({key: value}))
    out = tmp_path / "c.kaw"
    code = main(["abstract", path, "-o", str(out)])
    assert code == 2
    assert f"error:validation: system.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_blames_tau_for_flowed_centres_beyond_the_table(tmp_path, capsys):
    """A reach set whose flowed centre already lies beyond the table's
    index range is τ's doing, whatever the disturbance."""
    path = _mutate(DESK_SCENARIO, tmp_path, lambda raw: raw["system"].update(
        tau=1e20, disturbance=[0.1, 0.0, 0.0]))
    assert main(["abstract", path, "-o", str(tmp_path / "c.kaw")]) == 2
    assert "error:validation: system.tau: a reach set" in capsys.readouterr().err


def _objective(text):
    return lambda raw: raw.update(objective=text)


@pytest.mark.parametrize("where,mutate", [
    ("system.tau", lambda raw: raw["system"].update(tau="abc")),
    ("initial_state", lambda raw: raw.update(initial_state=["a", 1, 2])),
    ("knowledge.proximity_range",
     lambda raw: raw["knowledge"].update(proximity_range="x")),
    ("seed", lambda raw: raw.update(seed="x")),
    ("max_steps", lambda raw: raw.update(max_steps="x")),
    ("map.regions", lambda raw: raw["map"].update(regions=[1, 2])),
    ("seed", lambda raw: raw.update(seed=-1)),
    ("map.signs", lambda raw: raw["map"].update(signs=5)),
    ("map.signs[0]", lambda raw: raw["map"].update(signs=[1])),
    ("objective", lambda raw: raw.update(objective=5)),
    ("knowledge.tbox", lambda raw: raw["knowledge"].update(tbox=5)),
    ("knowledge.tbox[0].define",
     lambda raw: raw["knowledge"]["tbox"][0].update(define=5)),
    ("knowledge.tbox[0].concept",
     lambda raw: raw["knowledge"]["tbox"][0].update(concept=5)),
    ("knowledge.tbox[1].temporal",
     lambda raw: raw["knowledge"]["tbox"][1].update(temporal=["G", "A"])),
    ("knowledge.tbox", lambda raw: raw["knowledge"]["tbox"][0].update(
        concept="Nope")),
    ("knowledge.tbox", lambda raw: raw["knowledge"]["tbox"][0].update(
        concept="exists Foo.Target")),
    ("system.state_bounds",
     lambda raw: raw["system"]["state_bounds"]["upper"].__setitem__(2, 1e400)),
    ("system.input_bounds",
     lambda raw: raw["system"]["input_bounds"]["lower"].__setitem__(0, float("nan"))),
    ("map.regions.Target[0]",
     lambda raw: raw["map"]["regions"]["Target"][0]["lower"].__setitem__(0, 6.0)),
    ("map.signs[0].street",
     lambda raw: raw["map"]["signs"][0]["street"]["upper"].__setitem__(1, 1e400)),
    ("system.disturbance",
     lambda raw: raw["system"].update(disturbance=[0.0, 1e400, 0.0])),
    ("objective", lambda raw: raw.update(objective="!Nowhere U Target")),
    ("knowledge.tbox[1]", lambda raw: raw["knowledge"]["tbox"][1].update(
        temporal="G (Nowhere -> G !NoEntrySign)")),
    ("knowledge.tbox[1].define", lambda raw: raw["knowledge"]["tbox"][1].update(
        define="NoEntrySignDetected")),
    ("system.eta_x", lambda raw: raw["system"]["state_bounds"].update(
        upper=[1e12, 1e12, PI])),
    # NoEntrySign holds exactly the map.signs boxes: a region would add
    # cells no street is linked to, an axiom would replace the boxes
    ("map.regions.NoEntrySign", lambda raw: raw["map"]["regions"].update(
        NoEntrySign=[{"lower": [3.0, 1.8], "upper": [3.4, 2.2]}])),
    ("knowledge.tbox[0].define", lambda raw: raw["knowledge"]["tbox"].insert(
        0, {"define": "NoEntrySign", "concept": "Obstacle"})),
    # a name takes its cells from its boxes or from one axiom: an axiom on a
    # region name would drop the region's boxes from the game and the audit
    ("knowledge.tbox[2].define", lambda raw: raw["knowledge"]["tbox"].append(
        {"define": "Obstacle", "concept": "bottom"})),
    ("knowledge.tbox[0].define", lambda raw: raw["knowledge"]["tbox"].insert(
        0, {"define": "Target", "concept": "top"})),
    ("knowledge.tbox[2].define", lambda raw: raw["knowledge"]["tbox"].append(
        {"define": "Target", "temporal": "F Obstacle"})),
    # the game is reach-avoid: an objective outside the fragment has none
    ("objective: not a reach-avoid objective", _objective("G Obstacle")),
    ("objective: not a reach-avoid objective", _objective("X Target")),
    ("objective: not a reach-avoid objective", _objective("F G Target")),
    ("objective: not a reach-avoid objective", _objective("Obstacle U F Target")),
    ("objective: not a reach-avoid objective", _objective("G !Obstacle")),
    ("objective: not a reach-avoid objective",
     _objective("G !Obstacle | F Target")),
    # only the map's regions and NoEntrySign are declared
    ("objective: undeclared concept Obstacle",
     lambda raw: raw["map"]["regions"].pop("Obstacle")),
    # a goal that holds in no cell leaves no game to win
    ("objective: the goal holds in no cell",
     _objective("!Obstacle U (Target & Obstacle)")),
    # an axiom may use only the names of earlier concept axioms, and a
    # temporal axiom's name is no concept
    ("knowledge.tbox[0]: undeclared concept or role NoEntrySignDetected",
     lambda raw: raw["knowledge"]["tbox"].reverse()),
    ("objective: undeclared concept NoEntrySignRespected",
     _objective("!Obstacle U (Target & NoEntrySignRespected)")),
    ("knowledge.tbox[2]: undeclared concept or role NoEntrySignRespected",
     lambda raw: raw["knowledge"]["tbox"].append(
         {"define": "Respecting", "concept": "NoEntrySignRespected"})),
    # seed and max_steps are whole numbers, not strings or booleans
    ("max_steps: needs an integer", lambda raw: raw.update(max_steps=2.7)),
    ("seed: needs an integer", lambda raw: raw.update(seed="5")),
    ("seed: needs an integer", lambda raw: raw.update(seed=True)),
    # every other number is a JSON number too, and periodic takes booleans
    ("system.tau", lambda raw: raw["system"].update(tau=True)),
    ("system.tau", lambda raw: raw["system"].update(tau="0.5")),
    ("knowledge.proximity_range",
     lambda raw: raw["knowledge"].update(proximity_range=True)),
    ("system.periodic",
     lambda raw: raw["system"].update(periodic=["false", "false", "true"])),
    ("system.periodic", lambda raw: raw["system"].update(periodic=[0, 0, 1])),
    ("map.regions.Target[0]",
     lambda raw: raw["map"]["regions"]["Target"][0]["lower"].__setitem__(0, True)),
    ("initial_state", lambda raw: raw.update(initial_state=["3.7", "1.0", "1.5"])),
    ("system.eta_x",
     lambda raw: raw["system"].update(eta_x=["0.3", "0.3", "0.52"])),
    ("map.signs[0].name", lambda raw: raw["map"]["signs"][0].update(name=[1])),
    ("name", lambda raw: raw.update(name=5)),
    ("system.tau", lambda raw: raw["system"].update(tau=10**400)),
], ids=["tau", "initial_state", "proximity_range", "seed", "max_steps",
        "regions", "negative_seed", "signs", "sign_entry", "objective", "tbox",
        "define", "concept", "temporal", "undeclared_atom",
        "undeclared_role", "infinite_state_bound", "nan_input_bound",
        "inverted_target", "infinite_street", "infinite_disturbance",
        "undeclared_objective_atom", "undeclared_temporal_atom",
        "defined_twice", "huge_state_grid", "sign_region", "sign_axiom",
        "obstacle_axiom", "region_axiom", "temporal_region_axiom",
        "always_only_objective", "next_objective", "eventually_always_objective",
        "until_eventually_objective", "safety_objective", "or_objective",
        "objective_atom_without_region", "empty_goal", "later_definition",
        "temporal_name_objective", "temporal_name_concept", "fractional_max_steps",
        "string_seed", "bool_seed", "bool_tau", "string_tau",
        "bool_proximity_range", "string_periodic", "number_periodic",
        "bool_box_corner", "string_initial_state", "string_eta_x",
        "list_sign_name", "number_name", "huge_integer_tau"])
def test_cli_rejects_ill_typed_scenario_fields(cli_artifacts, tmp_path, capsys,
                                               where, mutate):
    """``synthesize`` both loads and grounds the scenario: a field that only
    the grounding can judge, such as an empty goal, is refused too."""
    path = _mutate(DESK_SCENARIO, tmp_path, mutate)
    out = tmp_path / "c.csv"
    code = main(["synthesize", path, "--cache", str(cli_artifacts["cache"]),
                 "-o", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error:validation: {where}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where,mutate", [
    ("objective", _objective("(" * 600 + "Target" + ")" * 600)),
    ("objective", _objective("!" * 2000 + "Target")),
    ("objective", _objective("G " * 2000 + "Target")),
    ("knowledge.tbox[0].concept", lambda raw: raw["knowledge"]["tbox"][0].update(
        concept="!" * 2000 + "Target")),
    ("objective", _objective(" & ".join(["Target"] * 5000))),
    ("objective", _objective(" -> ".join(["Target"] * 3000))),
    ("objective", _objective("!" * 900 + "Target")),
], ids=["parentheses", "not", "always", "concept_not", "and_chain",
        "implies_chain", "not_900"])
def test_cli_rejects_deeply_nested_formulas(tmp_path, capsys, where, mutate):
    path = _mutate(DESK_SCENARIO, tmp_path, mutate)
    code = main(["abstract", path, "-o", str(tmp_path / "c.kaw")])
    assert code == 2
    assert f"error:parse: {where}: formula nested too deeply" in \
        capsys.readouterr().err


@pytest.mark.parametrize("objective", [
    "G (" + "!" * (MAX_DEPTH - 3) + "Obstacle) & F Target",
    "!Obstacle U (" + " & ".join(["Target"] * (MAX_DEPTH - 1)) + ")",
], ids=["always", "and_chain"])
def test_cli_runs_a_formula_at_the_nesting_bound(cli_artifacts, tmp_path, objective):
    path = _mutate(DESK_SCENARIO, tmp_path, _objective(objective))
    assert main(["abstract", path, "-o", str(tmp_path / "c.kaw")]) == 0
    assert main(["synthesize", path, "--cache", str(cli_artifacts["cache"]),
                 "-o", str(tmp_path / "c.csv")]) == 0
    assert main(["check", str(cli_artifacts["trace"]), path]) in (0, 1)


def test_objective_may_name_a_defined_concept(tmp_path):
    path = _mutate(DESK_SCENARIO, tmp_path, lambda raw: raw.update(
        objective="!Obstacle U (Target & !NoEntrySignDetected)"))
    assert load_scenario(path).objective == parse_ltl(
        "!Obstacle U (Target & !NoEntrySignDetected)")


def test_seed_and_max_steps_take_any_whole_number(tmp_path):
    big = 10**400  # no float holds it
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw.update(seed=7.0, max_steps=big))
    sc = load_scenario(path)
    assert (sc.seed, sc.max_steps) == (7, big)
    assert type(sc.seed) is int


def _where(path):
    """A JSON path as a ``ScenarioValidationError`` field names it."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path).lstrip(".")


def test_every_mistyped_leaf_is_refused_at_its_field(tmp_path):
    """A number leaf as a string or a boolean, and a boolean leaf as a
    number or a string, is refused at the leaf or a field that holds it."""
    raw = json.loads(DESK_SCENARIO.read_text())
    for path in list(_nodes(raw)):
        owner = raw
        for key in path[:-1]:
            owner = owner[key]
        value = owner[path[-1]]
        if isinstance(value, bool):
            retypes = [0, "true"]
        elif isinstance(value, (int, float)):
            retypes = [str(value), True]
        else:
            continue
        for retype in retypes:
            owner[path[-1]] = retype
            out = tmp_path / "leaf.scn.json"
            out.write_text(json.dumps(raw))
            owner[path[-1]] = value
            with pytest.raises(ScenarioValidationError) as err:
                load_scenario(str(out))
            assert _where(path).startswith(err.value.field), (path, retype)


def test_initial_state_dimension_mismatch(tmp_path):
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw.update(initial_state=[1.0, 2.0]))
    with pytest.raises(ScenarioValidationError):
        load_scenario(path)


# ---------------------------------------------------------------------------
# command-line pipeline (in-process)


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cache = d / "desk.kaw"
    controller = d / "controller.csv"
    trace = d / "trace.csv"
    scn = str(DESK_SCENARIO)
    assert main(["abstract", scn, "-o", str(cache)]) == 0
    assert main(["synthesize", scn, "--cache", str(cache),
                 "-o", str(controller)]) == 0
    assert main(["simulate", scn, "--cache", str(cache),
                 "-o", str(trace)]) == 0
    return {"dir": d, "cache": cache, "controller": controller,
            "trace": trace, "scn": scn}


def test_cli_pipeline_outputs_exist(cli_artifacts):
    assert cli_artifacts["cache"].stat().st_size > 0
    header = cli_artifacts["controller"].read_text().splitlines()[0]
    assert header == "cell_index,rank,policy_input_index"
    assert cli_artifacts["trace"].read_text().startswith("# seed=")


def test_cli_check_passes_on_genuine_trace(cli_artifacts):
    assert main(["check", str(cli_artifacts["trace"]),
                 cli_artifacts["scn"]]) == 0


def test_cli_check_passes_a_correct_run_from_a_south_facing_start(
        cli_artifacts, tmp_path, capsys):
    """From this start the vehicle heads away from the middle street when
    it detects the sign, and the run still reaches the target: the audit
    passes each of its eight checks."""
    def start(raw):
        raw["initial_state"] = [0.9, 2.1, -3.141592653589793]
    scn = _mutate(DESK_SCENARIO, tmp_path, start)
    trace = tmp_path / "trace.csv"
    assert main(["simulate", scn, "--cache", str(cli_artifacts["cache"]),
                 "-o", str(trace)]) == 0
    assert "outcome: ReachedTarget" in capsys.readouterr().out
    assert main(["check", str(trace), scn]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(ln.startswith("PASS") for ln in lines)


def test_cli_check_fails_on_corrupted_trace(cli_artifacts, tmp_path):
    sc = load_scenario(cli_artifacts["scn"])
    grid = sc.state_grid()
    # teleport one mid-trace row into an obstacle block
    lines = cli_artifacts["trace"].read_text().splitlines()
    row = len(lines) // 2
    parts = lines[row].split(",")
    bad_state = [2.4, 5.0, float(parts[4])]
    bad_cell = grid.quantize(bad_state)
    parts[2], parts[3] = "2.4", "5"
    parts[5] = str(bad_cell)
    lines[row] = ",".join(parts)
    corrupted = tmp_path / "corrupted.csv"
    corrupted.write_text("\n".join(lines) + "\n")
    assert main(["check", str(corrupted), cli_artifacts["scn"]]) == 1


# SHA-256 of the desk map rendered with its default-seed trace, and of the
# default-seed trace on the desk map with no signs
DESK_SVG = "2bf0eaa28a9aa53640b8cf6bda7677aab8f0f3f5a15a7c5f367d1217709a7e15"
DESK_NO_SIGN_TRACE = \
    "92e15645f05ff158fb25135c6fd85a9f7c35fdbd6d4c73c120f057458f5e7284"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_render(cli_artifacts, tmp_path):
    out = tmp_path / "out.svg"
    assert main(["render", str(cli_artifacts["trace"]),
                 cli_artifacts["scn"], "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert _sha256(out) == DESK_SVG


def test_cli_desk_trace_matches_benchmark_reference(cli_artifacts):
    """The default-seed desk trace is the benchmark's reference trace, read
    from refs.json by the scenario's SHA-256."""
    key = hashlib.sha256(DESK_SCENARIO.read_bytes()).hexdigest()
    ref = json.loads(REFS.read_text())[key]
    assert _sha256(cli_artifacts["trace"]) == ref["trace"]


# SHA-256 of the seed 1, 2 and 3 traces on desk with the disturbance half
# widths [0.05, 0.05, 0]
DESK_DISTURBED_TRACES = {
    1: "124146e4fdb432644ef009c278f13bd531bdad432d5d1142718b864f52fdaa4b",
    2: "765e3ffdaf19dab67f7f15955a106759b5457109335f73903d9e0d494a80045e",
    3: "b5f3e0a7340a56ec6905637fdf2fddcd2cf7dc5ef3f4880648d9f9d13a2ea849",
}


def test_cli_disturbed_desk_traces_are_pinned(tmp_path, capsys):
    """With W != {0} the run draws its disturbance from the seeded
    generator: each seed writes its pinned trace, reaches the target in
    29 steps and passes the audit's eight checks."""
    path = _mutate(DESK_SCENARIO, tmp_path, lambda raw: raw["system"].update(
        disturbance=[0.05, 0.05, 0]))
    cache = tmp_path / "w.kaw"
    assert main(["abstract", path, "-o", str(cache)]) == 0
    for seed, digest in DESK_DISTURBED_TRACES.items():
        trace = tmp_path / f"trace{seed}.csv"
        capsys.readouterr()
        assert main(["simulate", path, "--cache", str(cache), "--seed",
                     str(seed), "-o", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "steps: 29" in out and "outcome: ReachedTarget" in out
        assert _sha256(trace) == digest
        assert main(["check", str(trace), path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and all(ln.startswith("PASS") for ln in lines)


def test_cli_desk_without_signs_detects_nothing(cli_artifacts, tmp_path,
                                                capsys):
    """With no sign the NoEntrySign extent is empty: the default-seed run
    never re-synthesizes, writes the pinned trace and passes the audit."""
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw["map"].update(signs=[]))
    trace = tmp_path / "trace.csv"
    assert main(["simulate", path, "--cache", str(cli_artifacts["cache"]),
                 "-o", str(trace)]) == 0
    assert "resyntheses: 0" in capsys.readouterr().out
    assert _sha256(trace) == DESK_NO_SIGN_TRACE
    assert main(["check", str(trace), path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(ln.startswith("PASS") for ln in lines)


def test_cli_obstacle_defined_by_an_axiom_gives_the_bundled_run(cli_artifacts,
                                                                 tmp_path):
    """A name with no boxes may be defined: desk with its obstacle boxes
    named ``Wall`` and ``Obstacle = Wall`` solves the bundled game."""
    def wall(raw):
        raw["map"]["regions"]["Wall"] = raw["map"]["regions"].pop("Obstacle")
        raw["knowledge"]["tbox"].append({"define": "Obstacle", "concept": "Wall"})
    path = _mutate(DESK_SCENARIO, tmp_path, wall)
    cache = str(cli_artifacts["cache"])
    controller, trace = tmp_path / "controller.csv", tmp_path / "trace.csv"
    assert main(["synthesize", path, "--cache", cache, "-o", str(controller)]) == 0
    assert main(["simulate", path, "--cache", cache, "-o", str(trace)]) == 0
    ref = json.loads(REFS.read_text())[_sha256(DESK_SCENARIO)]
    assert _sha256(controller) == ref["controller"]
    assert _sha256(trace) == ref["trace"]


def test_cli_objective_decides_the_game_whatever_the_regions_are_named(
        cli_artifacts, tmp_path, capsys):
    """Desk with its obstacle boxes named ``Wall`` and the objective
    ``!Wall U Target``, or with its target named ``Goal`` and the objective
    ``!Obstacle U Goal``, solves the bundled game, runs the bundled trace,
    passes the audit's eight checks and renders the bundled picture, walls
    included."""
    def renamed(old, new, objective):
        def mutate(raw):
            raw["map"]["regions"][new] = raw["map"]["regions"].pop(old)
            raw["objective"] = objective
        return mutate

    ref = json.loads(REFS.read_text())[_sha256(DESK_SCENARIO)]
    cache = str(cli_artifacts["cache"])
    for mutate in (renamed("Obstacle", "Wall", "!Wall U Target"),
                   renamed("Target", "Goal", "!Obstacle U Goal")):
        path = _mutate(DESK_SCENARIO, tmp_path, mutate)
        controller, trace, svg = (tmp_path / f for f in (
            "controller.csv", "trace.csv", "trace.svg"))
        assert main(["synthesize", path, "--cache", cache,
                     "-o", str(controller)]) == 0
        assert main(["simulate", path, "--cache", cache, "-o", str(trace)]) == 0
        assert _sha256(controller) == ref["controller"]
        assert _sha256(trace) == ref["trace"]
        capsys.readouterr()
        assert main(["check", str(trace), path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and all(ln.startswith("PASS") for ln in lines)
        assert main(["render", str(trace), path, "-o", str(svg)]) == 0
        assert svg.read_text().count('fill="#777777"') > 0
        assert _sha256(svg) == DESK_SVG


@pytest.mark.parametrize("objective,bundled", [
    ("G !Obstacle & F Target", True),
    ("F Target & G !Obstacle", True),
    ("!Target U Obstacle", False),
])
def test_cli_each_form_of_the_objective_gives_its_game(cli_artifacts, tmp_path,
                                                       objective, bundled):
    """``G A & F B`` is ``A U (A & B)``, the bundled game when A is
    ``!Obstacle``; swapping the roles of the regions changes the game."""
    path = _mutate(DESK_SCENARIO, tmp_path, _objective(objective))
    controller = tmp_path / "controller.csv"
    assert main(["synthesize", path, "--cache", str(cli_artifacts["cache"]),
                 "-o", str(controller)]) == 0
    ref = json.loads(REFS.read_text())[_sha256(DESK_SCENARIO)]
    assert (_sha256(controller) == ref["controller"]) is bundled


def test_cli_check_rejects_an_objective_outside_the_fragment(cli_artifacts,
                                                             tmp_path, capsys):
    path = _mutate(DESK_SCENARIO, tmp_path, _objective("G Obstacle"))
    assert main(["check", str(cli_artifacts["trace"]), path]) == 2
    err = capsys.readouterr().err
    assert "error:validation: objective: not a reach-avoid objective" in err
    assert "Traceback" not in err


def test_cli_render_draws_the_sensor_zone_without_a_detection_axiom(
        cli_artifacts, tmp_path):
    """The zone is the Proximity preimage of the signs, whatever the tbox
    defines: desk with no axioms renders the bundled picture."""
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw["knowledge"].update(tbox=[]))
    out = tmp_path / "out.svg"
    assert main(["render", str(cli_artifacts["trace"]), path, "-o", str(out)]) == 0
    assert _sha256(out) == DESK_SVG


def test_cli_log_level_silences_the_swallowed_target_warning(cli_artifacts,
                                                             tmp_path):
    """An avoid set that covers the whole target is reported through the
    ``kaware`` logger: one record at the default level, and none at
    ``--log-level error``; the game is still solved."""
    path = _mutate(DESK_SCENARIO, tmp_path, _objective("!Obstacle U Obstacle"))
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(kaware.__file__).parents[1]))
    for level, err in (("info", "WARNING:kaware:avoid set covers the whole "
                                "target region\n"),
                       ("error", "")):
        run = subprocess.run([sys.executable, "-m", "kaware.cli", "--log-level",
                              level, "synthesize", path, "--cache",
                              str(cli_artifacts["cache"]), "-o",
                              str(tmp_path / "ctrl.csv")],
                             env=env, capture_output=True, text=True, timeout=300)
        assert (run.returncode, run.stderr) == (0, err)


def test_cli_log_level_holds_for_each_call_in_one_process(cli_artifacts,
                                                           tmp_path, caplog):
    """Each ``main`` call sets the ``kaware`` logger's level, whatever an
    earlier call in the same process set; the logger's level is restored
    afterwards."""
    path = _mutate(DESK_SCENARIO, tmp_path, _objective("!Obstacle U Obstacle"))
    argv = ["synthesize", path, "--cache", str(cli_artifacts["cache"]),
            "-o", str(tmp_path / "ctrl.csv")]
    warning = ("kaware", "WARNING", "avoid set covers the whole target region")
    kaware_log = logging.getLogger("kaware")
    level = kaware_log.level
    try:
        for flag, records in (("info", [warning]), ("error", []),
                              ("debug", [warning]), ("error", [])):
            caplog.clear()
            assert main(["--log-level", flag] + argv) == 0
            assert [(r.name, r.levelname, r.getMessage())
                    for r in caplog.records] == records, flag
    finally:
        kaware_log.setLevel(level)


@pytest.mark.parametrize("command", ["simulate", "check", "render"])
def test_cli_refuses_a_goal_that_holds_in_no_cell(cli_artifacts, tmp_path,
                                                  capsys, command):
    """Every command that grounds the scenario refuses an empty goal before
    it writes anything; ``simulate`` does not run into a losing start."""
    path = _mutate(DESK_SCENARIO, tmp_path,
                   _objective("!Obstacle U (Target & Obstacle)"))
    out = tmp_path / "out"
    argv = {"simulate": ["simulate", path, "--cache", str(cli_artifacts["cache"]),
                         "-o", str(out)],
            "check": ["check", str(cli_artifacts["trace"]), path],
            "render": ["render", str(cli_artifacts["trace"]), path,
                       "-o", str(out)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:validation: objective: the goal holds in no cell" in captured.err
    assert captured.out == "" and not out.exists()


def test_world_sign_links_are_the_scenario_grounding(desk_scenario, desk_world):
    _, links = desk_scenario.ground(desk_world.grid_x)
    assert len(links) == len(desk_world.sign_links) == 2
    for (sign, street), (w_sign, w_street) in zip(links, desk_world.sign_links):
        assert np.array_equal(sign, w_sign) and np.array_equal(street, w_street)


def _two_field_row(lines):
    lines[3] = "1,2"
    return lines


def _field(at, value):
    """An edit that sets field ``at`` of the second step row to ``value``."""
    def edit(lines):
        parts = lines[3].split(",")
        parts[at] = value
        lines[3] = ",".join(parts)
        return lines
    return edit


def test_cli_check_fails_a_state_outside_the_state_space(cli_artifacts, tmp_path,
                                                         capsys):
    lines = _field(2, "100")(cli_artifacts["trace"].read_text().splitlines())
    trace = tmp_path / "outside.csv"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), cli_artifacts["scn"]]) == 1
    assert "FAIL  cells match quantized states" in capsys.readouterr().out


def _rows(edits):
    """An edit that sets, for each ``step: {field: value}`` of ``edits``,
    the fields of that step's row."""
    def edit(lines):
        for step, fields in edits.items():
            parts = lines[step + 2].split(",")
            for at, value in fields.items():
                parts[at] = value
            lines[step + 2] = ",".join(parts)
        return lines
    return edit


def _check_fails(cli_artifacts, tmp_path, capsys, edit):
    """Exit code and FAIL lines of ``check`` on an edited desk trace; every
    other line is a PASS and nothing reaches stderr."""
    trace = tmp_path / "edited.csv"
    lines = edit(cli_artifacts["trace"].read_text().splitlines())
    trace.write_text("\n".join(lines) + "\n")
    code = main(["check", str(trace), cli_artifacts["scn"]])
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert captured.err == "" and len(out) == 8
    assert all(ln.startswith(("PASS  ", "FAIL  ")) for ln in out)
    return code, [ln for ln in out if ln.startswith("FAIL")]


@pytest.mark.parametrize("cell", [-1, 11988, 2**62])
def test_cli_check_a_cell_outside_the_grid_fails_only_quantization(
        cli_artifacts, tmp_path, capsys, cell):
    """A trace cell outside ``[0, n)`` (desk: n = 11 988) lies in no cell
    set: it is neither unsafe nor a goal, and no membership test raises."""
    assert _check_fails(cli_artifacts, tmp_path, capsys, _rows({1: {5: str(cell)}})) \
        == (1, ["FAIL  cells match quantized states  (bad steps [1])"])


def _first_detection(cli_artifacts):
    """The step of the desk trace's first detection and one cell it detected."""
    rows = cli_artifacts["trace"].read_text().splitlines()[2:]
    step, detected = next((int(r.split(",")[0]), r.split(",")[8])
                          for r in rows if r.split(",")[8])
    return step, int(detected.split(";")[0])


def test_cli_check_a_sign_cell_detected_twice_fails(cli_artifacts, tmp_path, capsys):
    step, sign_cell = _first_detection(cli_artifacts)
    later = {step + 2: {8: str(sign_cell), 9: "1"}}
    assert _check_fails(cli_artifacts, tmp_path, capsys, _rows(later)) \
        == (1, ["FAIL  known signs grow monotonically"])


@pytest.mark.parametrize("ids", [[-7, 11988, 2**62], [-2**62, -1]])
def test_cli_check_a_detected_id_outside_the_grid_detects_no_sign(
        cli_artifacts, tmp_path, capsys, ids):
    step, _ = _first_detection(cli_artifacts)
    edit = _rows({step + 2: {8: ";".join(map(str, ids)), 9: "1"}})
    assert _check_fails(cli_artifacts, tmp_path, capsys, edit) == (0, [])


@pytest.mark.parametrize("before", [True, False])
def test_cli_check_a_street_is_avoided_only_after_its_sign_is_detected(
        cli_artifacts, tmp_path, capsys, before):
    """A state moved onto the street of the first detected sign, one step
    before that detection passes, and three steps after it fails."""
    step, sign_cell = _first_detection(cli_artifacts)
    sc = load_scenario(cli_artifacts["scn"])
    grid = sc.state_grid()
    (_, street_cells), sign = next(
        (link, s) for link, s in zip(sc.ground(grid)[1], sc.signs)
        if sign_cell in link[0])
    cell = int(street_cells[street_cells.size // 2])
    visit = step - 1 if before else step + 3
    x = [f"{v:.9g}" for v in grid.center(cell)]
    edit = _rows({visit: {2: x[0], 3: x[1], 4: x[2], 5: str(cell)}})
    expected = [] if before else [
        f"FAIL  no activated street visited  ({sign.name} street entered at "
        f"step {visit})"]
    assert _check_fails(cli_artifacts, tmp_path, capsys, edit) \
        == (int(not before), expected)


# edits of a genuine trace (seed line, header, rows); None: no file at all
TRACE_DEFECTS = {
    "missing_file": None,
    "row_with_two_fields": _two_field_row,
    "cut_after_two_rows": lambda lines: lines[:4],
    "non_numeric_field": _field(2, "abc"),
    "infinite_state": _field(3, "inf"),
    "nan_state": _field(3, "nan"),
    "detected_cell_past_int64": _field(8, "99999999999999999999999"),
    "bad_header": lambda lines: [lines[0], "step,time"] + lines[2:],
    "missing_seed_line": lambda lines: lines[1:],
}


@pytest.mark.parametrize("defect", sorted(TRACE_DEFECTS))
@pytest.mark.parametrize("command", ["check", "render"])
def test_cli_trace_format_error_exit_code(cli_artifacts, tmp_path, capsys,
                                          command, defect):
    trace = tmp_path / "trace.csv"
    edit = TRACE_DEFECTS[defect]
    if edit is not None:
        lines = cli_artifacts["trace"].read_text().splitlines()
        trace.write_text("\n".join(edit(lines)) + "\n")
    argv = [command, str(trace), cli_artifacts["scn"]]
    if command == "render":
        argv += ["-o", str(tmp_path / "trace.svg")]
    assert main(argv) == 2
    assert "error:parse:" in capsys.readouterr().err


@pytest.mark.parametrize("command,code,kind", [
    ("abstract", 3, "runtime"), ("synthesize", 3, "runtime"),
    ("simulate", 3, "runtime"), ("render", 3, "runtime"),
    ("simulate --seed -1", 2, "validation"),
    # a missing cache or trace is not read: the output is checked first
    ("synthesize no cache", 3, "runtime"), ("simulate no cache", 3, "runtime"),
    ("render no trace", 3, "runtime"),
])
def test_cli_output_and_seed_errors_exit_code(cli_artifacts, tmp_path, capsys,
                                              command, code, kind):
    scn, cache = cli_artifacts["scn"], str(cli_artifacts["cache"])
    out = str(tmp_path / "no" / "such" / "dir" / "out")
    missing = str(tmp_path / "missing")
    argv = {
        "abstract": ["abstract", scn, "-o", out],
        "synthesize": ["synthesize", scn, "--cache", cache, "-o", out],
        "simulate": ["simulate", scn, "--cache", cache, "-o", out],
        "render": ["render", str(cli_artifacts["trace"]), scn, "-o", out],
        "synthesize no cache": ["synthesize", scn, "--cache", missing, "-o", out],
        "simulate no cache": ["simulate", scn, "--cache", missing, "-o", out],
        "render no trace": ["render", missing, scn, "-o", out],
        "simulate --seed -1": ["simulate", scn, "--cache", cache, "--seed", "-1",
                               "-o", str(tmp_path / "trace.csv")],
    }[command]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert f"error:{kind}:" in captured.err
    # the output is checked before the cache is loaded or a game solved
    assert captured.out == ""


def test_cli_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr("kaware.cli.build_abstraction", exhausted)
    code = main(["abstract", str(DESK_SCENARIO), "-o", str(tmp_path / "c.kaw")])
    assert code == 3
    assert "error:runtime:" in capsys.readouterr().err


def _assert_out_of_memory(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "error:runtime: out of memory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("disturbance", [[3e8, 3e8, 0.0], [0.0, 0.0, 1e9]])
@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_cli_huge_reach_boxes_run_out_of_memory(tmp_path, capsys, command,
                                                disturbance):
    """Reach boxes inside the table's int32 range pass ``abstract``, but
    erosion tables past the int64 range are out of memory at the first
    solve (exit 3), not a traceback."""
    def mutate(raw):
        raw["system"]["disturbance"] = disturbance
    scn = _mutate(DESK_SCENARIO, tmp_path, mutate)
    cache = str(tmp_path / "c.kaw")
    assert main(["abstract", scn, "-o", cache]) == 0
    capsys.readouterr()
    _assert_out_of_memory([command, scn, "--cache", cache,
                           "-o", str(tmp_path / "out.csv")], capsys)


def test_cli_cache_of_huge_boxes_runs_out_of_memory(cli_artifacts, tmp_path,
                                                    capsys):
    """A desk cache whose x1 and x2 box lengths are 2**30 - 1, under a
    valid checksum, loads, and its first solve is out of memory."""
    abs_ = Abstraction.load(str(cli_artifacts["cache"]))
    body = cli_artifacts["cache"].read_bytes()[:-4]
    rows, d = abs_.offset.shape
    width = 2 * d + 2 * abs_.enabled.shape[1]
    at = len(body) - 4 * rows * width
    table = np.frombuffer(body, "<i4", rows * width, at).reshape(rows, width).copy()
    table[:, d:d + 2] = 2**30 - 1
    body = body[:at] + table.tobytes()
    cache = tmp_path / "huge.kaw"
    cache.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    _assert_out_of_memory(["synthesize", cli_artifacts["scn"], "--cache", str(cache),
                           "-o", str(tmp_path / "ctrl.csv")], capsys)


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scn.json"
    bad.write_text("{")
    code = main(["abstract", str(bad), "-o", str(tmp_path / "c.kaw")])
    assert code == 2
    assert "error:parse:" in capsys.readouterr().err


def test_cli_validation_error_exit_code(tmp_path, capsys):
    def mutate(raw):
        raw["system"]["tau"] = -1
    path = _mutate(DESK_SCENARIO, tmp_path, mutate)
    code = main(["abstract", path, "-o", str(tmp_path / "c.kaw")])
    assert code == 2
    assert "error:validation:" in capsys.readouterr().err


def test_cli_cache_mismatch_exit_code(cli_artifacts, tmp_path, capsys):
    # the desk cache does not fit the full-resolution scenario
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("earlier output\n")
    for out in (kept, absent):
        code = main(["synthesize", str(FULL_SCENARIO),
                     "--cache", str(cli_artifacts["cache"]), "-o", str(out)])
        assert code == 2
        assert "error:cache:" in capsys.readouterr().err
    # a run that fails neither truncates nor creates its output
    assert kept.read_text() == "earlier output\n"
    assert not absent.exists()


def test_build_world_refuses_an_abstraction_for_other_dynamics(
        desk_abstraction, tmp_path):
    """A library caller gets the check the CLI makes: the desk abstraction
    does not fit the desk copy with W = (0.05, 0.05, 0)."""
    path = _mutate(DESK_SCENARIO, tmp_path, lambda raw: raw["system"].update(
        disturbance=[0.05, 0.05, 0]))
    with pytest.raises(CacheFormatError, match="built for other dynamics"):
        build_world(load_scenario(path), desk_abstraction)


def test_cli_bad_cache_file_exit_code(tmp_path, capsys):
    bogus = tmp_path / "bogus.kaw"
    bogus.write_bytes(b"NOPE" + b"\x00" * 32)
    code = main(["synthesize", str(DESK_SCENARIO), "--cache", str(bogus),
                 "-o", str(tmp_path / "ctrl.csv")])
    assert code == 2


@pytest.mark.parametrize("system", [{"tau": 0.25}, {"eta_u": [0.261]},
                                    {"disturbance": [0.01, 0.01, 0.0]}])
def test_cli_cache_for_other_dynamics_exit_code(cli_artifacts, tmp_path,
                                                capsys, system):
    # same state grid size as the desk cache, other tau, input grid or
    # disturbance
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw["system"].update(system))
    code = main(["synthesize", path, "--cache", str(cli_artifacts["cache"]),
                 "-o", str(tmp_path / "ctrl.csv")])
    assert code == 2
    assert "error:cache:" in capsys.readouterr().err


def test_cli_version_1_cache_exit_code(cli_artifacts, tmp_path, capsys):
    # a cache of the first format: same magic, version byte 1
    blob = bytearray(cli_artifacts["cache"].read_bytes())
    blob[4] = 1
    old = tmp_path / "v1.kaw"
    old.write_bytes(bytes(blob))
    code = main(["synthesize", cli_artifacts["scn"], "--cache", str(old),
                 "-o", str(tmp_path / "ctrl.csv")])
    assert code == 2
    assert "error:cache: unsupported cache version 1" in capsys.readouterr().err


def test_cli_version_2_cache_exit_code(cli_artifacts, tmp_path, capsys):
    """A cache of the second format, whose dynamics fingerprint and trailer
    were SHA-256 digests (32 bytes each, where version 3 has CRC-32s), is
    refused by its version.  The file is rebuilt from the version-3 one
    and is byte for byte the desk cache that format wrote."""
    blob = cli_artifacts["cache"].read_bytes()
    abs_ = Abstraction.load(str(cli_artifacts["cache"]))
    # magic, version and tau, then both grids; the fingerprint follows
    at = 4 + 9 + sum(1 + 33 * g.ndim for g in (abs_.grid_x, abs_.grid_u))
    system = load_scenario(cli_artifacts["scn"]).system()
    h = hashlib.sha256(system.name.encode())
    for arr in ([system.tau], system.lipschitz, system.dist_halfwidth,
                *_grid_fields(abs_.grid_x), *_grid_fields(abs_.grid_u)):
        h.update(np.asarray(arr, dtype="<f8").tobytes())
    body = blob[:4] + bytes([2]) + blob[5:at] + h.digest() + blob[at + 4:-4]
    body += hashlib.sha256(body).digest()
    assert hashlib.sha256(body).hexdigest() == \
        "c4ac56ff1f0cbeeed48958ed504d071067075de54923b36aaf294b51d022dac4"
    old = tmp_path / "v2.kaw"
    old.write_bytes(body)
    code = main(["synthesize", cli_artifacts["scn"], "--cache", str(old),
                 "-o", str(tmp_path / "ctrl.csv")])
    assert code == 2
    assert "error:cache: unsupported cache version 2" in capsys.readouterr().err


def test_cli_desk_commands_load_no_openssl(tmp_path):
    """No desk command loads ``numpy.random`` or OpenSSL (``_hashlib``),
    which ``numpy.random`` imports through ``secrets``: together about
    6 MB of RSS.  ``abstract`` and ``synthesize`` checksum and
    fingerprint the cache with zlib's CRC-32, and ``simulate`` makes no
    generator when W = {0}.  Nor does any load ``numpy.ma`` (1.3 MB),
    which numpy 2's ``np.unique`` imports: ``check`` looks its cells up
    in masks.  A module that ``import numpy`` alone loads (numpy 1.x
    loads ``numpy.random`` and ``numpy.ma``) is not judged."""
    modules = ("numpy.random", "_hashlib", "numpy.ma")
    script = (
        "import sys\n"
        "import numpy\n"
        "def loaded():\n"
        f"    print(*[m for m in {modules!r} if m in sys.modules])\n"
        "loaded()\n"
        "from kaware.cli import main\n"
        "scn, out = sys.argv[1], sys.argv[2]\n"
        "cache, trace = out + '/c.kaw', out + '/trace.csv'\n"
        "assert main(['abstract', scn, '-o', cache]) == 0\n"
        "assert main(['synthesize', scn, '--cache', cache,\n"
        "             '-o', out + '/ctrl.csv']) == 0\n"
        "assert main(['simulate', scn, '--cache', cache, '-o', trace]) == 0\n"
        "assert main(['render', trace, scn, '-o', out + '/run.svg']) == 0\n"
        "assert main(['check', trace, scn]) == 0\n"
        "loaded()\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(kaware.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script, str(DESK_SCENARIO), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    before, after = (set(ln.split()) for ln in
                     (run.stdout.splitlines()[0], run.stdout.splitlines()[-1]))
    judged = [m for m in modules if m not in before]
    if not judged:
        pytest.skip(f"import numpy alone loads {sorted(before)}")
    assert [m for m in judged if m in after] == []


def test_cli_truncated_desk_cache_exit_code(cli_artifacts, tmp_path, capsys):
    blob = cli_artifacts["cache"].read_bytes()
    cut = tmp_path / "cut.kaw"
    cut.write_bytes(blob[:len(blob) // 2])
    code = main(["synthesize", cli_artifacts["scn"], "--cache", str(cut),
                 "-o", str(tmp_path / "ctrl.csv")])
    assert code == 2
    assert "error:cache:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def coarse_cache(tmp_path_factory):
    """A coarse desk scenario and its (small) cache."""
    d = tmp_path_factory.mktemp("coarse")
    path = _mutate(DESK_SCENARIO, d, lambda raw: raw["system"].update(
        eta_x=[1.0, 1.0, 1.6], eta_u=[1.6]))
    cache = d / "coarse.kaw"
    assert main(["abstract", path, "-o", str(cache)]) == 0
    return path, cache.read_bytes(), d


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_cache_cut_anywhere_is_a_cache_error(coarse_cache, capsys, data):
    path, blob, d = coarse_cache
    cut = d / "cut.kaw"
    cut.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    code = main(["synthesize", path, "--cache", str(cut),
                 "-o", str(d / "ctrl.csv")])
    assert code == 2
    assert "error:cache:" in capsys.readouterr().err


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_cache_flipped_byte_is_a_cache_error(coarse_cache, capsys, data):
    path, blob, d = coarse_cache
    at = data.draw(st.integers(0, len(blob) - 1))
    flipped = d / "flipped.kaw"
    flipped.write_bytes(blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))])
                        + blob[at + 1:])
    code = main(["synthesize", path, "--cache", str(flipped),
                 "-o", str(d / "ctrl.csv")])
    assert code == 2
    assert "error:cache:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the exit-code contract under fuzzed scenarios and traces: exit 0 or 2, and
# exit 1 only from `check` after a FAIL line; an exception escaping `main`
# fails the test


def _allowed(command, code, out):
    return code in (0, 2) or (command == "check" and code == 1
                              and "\nFAIL" in "\n" + out)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert _allowed(argv[0], code, out), (argv[0], code, out)
    return code


# JSON retypes, and scale factors for a number (inf * 0 gives NaN)
_RETYPES = [None, True, 0, -1, 0.5, "0.5", "x", "", [], {}, [1.0, "a"],
            [True, 1.0, 2.0], {"lower": [1]}]
_SCALES = [0.0, -1.0, 0.5, 1.1, 2.0, float("inf"), float("-inf"), float("nan")]
_TEXTS = ["Target", "Nowhere", "!Target", "G Obstacle", "exists Proximity.Nowhere",
          "(", "NoEntrySignDetected", "NoEntrySignRespected"]


def _nodes(node, path=()):
    """Paths to every value below the JSON ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


@st.composite
def scenario_mutants(draw, raw):
    """Drop, retype or perturb one to three values of the scenario."""
    raw = copy.deepcopy(raw)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(raw))))
        owner = raw
        for key in path[:-1]:
            owner = owner[key]
        key, value = path[-1], owner[path[-1]]
        action = draw(st.sampled_from(["drop", "retype", "perturb"]))
        if action == "drop":
            del owner[key]
        elif action == "retype":
            owner[key] = copy.deepcopy(draw(st.sampled_from(_RETYPES)))
        elif isinstance(value, bool):
            owner[key] = not value
        elif isinstance(value, (int, float)):
            owner[key] = value * draw(st.sampled_from(_SCALES))
        elif isinstance(value, str):
            owner[key] = draw(st.sampled_from(_TEXTS + [value[:-1], value + "x"]))
        elif isinstance(value, list) and value:
            del value[draw(st.integers(0, len(value) - 1))]
    return raw


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzzed_scenario_keeps_the_exit_code_contract(coarse_cache,
                                                          cli_artifacts,
                                                          capsys, data):
    path, _, d = coarse_cache
    with open(path) as fh:
        raw = data.draw(scenario_mutants(json.load(fh)))
    mutant = d / "fuzzed.scn.json"
    mutant.write_text(json.dumps(raw))
    cache = str(d / "fuzzed.kaw")
    if _run(capsys, ["abstract", str(mutant), "-o", cache]) == 0:
        _run(capsys, ["synthesize", str(mutant), "--cache", cache,
                      "-o", str(d / "ctrl.csv")])
    trace = str(cli_artifacts["trace"])
    _run(capsys, ["check", trace, str(mutant)])
    _run(capsys, ["render", trace, str(mutant), "-o", str(d / "fuzzed.svg")])


# replacements for one field of a trace row
_FIELDS = ["", "x", "-1", "0", "1.5", "-0", "1e400", "inf", "nan", "-inf",
           "99999999999999999999999", "1;2", "1;x", ";", "ReachedTarget",
           "EnteredAvoid", "Nope", "1", "12000", "-12000"]


@st.composite
def trace_mutants(draw, text):
    """Cut the trace, drop rows, or garble one field."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["cut", "drop", "garble"]))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if kind == "drop":
        keep = draw(st.lists(st.booleans(), min_size=len(lines),
                             max_size=len(lines)))
        lines = [ln for ln, k in zip(lines, keep) if k]
    else:
        row = draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split(",")
        at = draw(st.integers(0, len(fields) - 1))
        fields[at] = draw(st.sampled_from(_FIELDS) | st.integers().map(str)
                          | st.floats().map(repr))
        lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzzed_trace_keeps_the_exit_code_contract(cli_artifacts, tmp_path,
                                                       capsys, data):
    trace = tmp_path / "mutant.csv"
    trace.write_text(data.draw(trace_mutants(cli_artifacts["trace"].read_text())))
    scn = cli_artifacts["scn"]
    _run(capsys, ["check", str(trace), scn])
    _run(capsys, ["render", str(trace), scn, "-o", str(tmp_path / "t.svg")])
