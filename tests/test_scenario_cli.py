import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kaware.cli import main
from kaware.errors import ScenarioParseError, ScenarioValidationError
from kaware.knowledge import assemble_interpretation
from kaware.ltl import MAX_DEPTH, compile_objective, parse_ltl
from kaware.scenario import load_scenario

from conftest import DESK_SCENARIO, FULL_SCENARIO

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
    """Write an edited copy of a scenario; the string ``"1e400"`` is written
    as that number literal, which JSON reads as infinity."""
    raw = json.loads(base_path.read_text())
    mutate(raw)
    out = tmp_path / "mutant.scn.json"
    out.write_text(json.dumps(raw).replace('"1e400"', "1e400"))
    return str(out)


def test_obstacle_in_the_trailing_strip_is_avoided(tmp_path):
    """On desk the last rect along x ends at 7.95; states in (7.95, 8]
    quantize to it, so an obstacle there covers it."""
    path = _mutate(DESK_SCENARIO, tmp_path, lambda raw: raw["map"]["regions"][
        "Obstacle"].append({"lower": [7.96, 0.0], "upper": [8.0, 11.0]}))
    sc = load_scenario(path)
    grid = sc.state_grid()
    interp = assemble_interpretation(sc.knowledge_base(), sc.all_regions(), grid)
    avoid = compile_objective(interp, [], set()).avoid
    assert grid.quantize([7.98, 5.0, 0.0]) == 11754
    assert 11754 in avoid
    assert len(avoid) == 3240 + 37 * 12  # every y and heading at the last x


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
])
def test_cli_rejects_bad_dimension_entries(tmp_path, capsys, key, value):
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw["system"].update({key: value}))
    out = tmp_path / "c.kaw"
    code = main(["abstract", path, "-o", str(out)])
    assert code == 2
    assert f"error:validation: system.{key}" in capsys.readouterr().err
    assert not out.exists()


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
     lambda raw: raw["system"]["state_bounds"]["upper"].__setitem__(2, "1e400")),
    ("system.input_bounds",
     lambda raw: raw["system"]["input_bounds"]["lower"].__setitem__(0, float("nan"))),
    ("map.regions.Target[0]",
     lambda raw: raw["map"]["regions"]["Target"][0]["lower"].__setitem__(0, 6.0)),
    ("map.signs[0].street",
     lambda raw: raw["map"]["signs"][0]["street"]["upper"].__setitem__(1, "1e400")),
    ("system.disturbance",
     lambda raw: raw["system"].update(disturbance=[0.0, "1e400", 0.0])),
    ("objective", lambda raw: raw.update(objective="!Nowhere U Target")),
    ("knowledge.tbox[1]", lambda raw: raw["knowledge"]["tbox"][1].update(
        temporal="G (Nowhere -> G !NoEntrySign)")),
    ("knowledge.tbox[1].define", lambda raw: raw["knowledge"]["tbox"][1].update(
        define="NoEntrySignDetected")),
    ("system.eta_x", lambda raw: raw["system"]["state_bounds"].update(
        upper=[1e12, 1e12, PI])),
], ids=["tau", "initial_state", "proximity_range", "seed", "max_steps",
        "regions", "negative_seed", "signs", "sign_entry", "objective", "tbox",
        "define", "concept", "temporal", "undeclared_atom",
        "undeclared_role", "infinite_state_bound", "nan_input_bound",
        "inverted_target", "infinite_street", "infinite_disturbance",
        "undeclared_objective_atom", "undeclared_temporal_atom",
        "defined_twice", "huge_state_grid"])
def test_cli_rejects_ill_typed_scenario_fields(tmp_path, capsys, where, mutate):
    path = _mutate(DESK_SCENARIO, tmp_path, mutate)
    code = main(["abstract", path, "-o", str(tmp_path / "c.kaw")])
    assert code == 2
    assert f"error:validation: {where}" in capsys.readouterr().err


def _objective(text):
    return lambda raw: raw.update(objective=text)


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
    "G " * MAX_DEPTH + "Target",
    " & ".join(["Target"] * (MAX_DEPTH + 1)),
], ids=["always", "and_chain"])
def test_cli_runs_a_formula_at_the_nesting_bound(cli_artifacts, tmp_path, objective):
    path = _mutate(DESK_SCENARIO, tmp_path, _objective(objective))
    assert main(["abstract", path, "-o", str(tmp_path / "c.kaw")]) == 0
    assert main(["check", str(cli_artifacts["trace"]), path]) in (0, 1)


def test_objective_may_name_a_defined_concept(tmp_path):
    path = _mutate(DESK_SCENARIO, tmp_path, lambda raw: raw.update(
        objective="!Obstacle U (Target & !NoEntrySignDetected)"))
    assert load_scenario(path).objective == parse_ltl(
        "!Obstacle U (Target & !NoEntrySignDetected)")


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


def test_cli_render(cli_artifacts, tmp_path):
    out = tmp_path / "out.svg"
    assert main(["render", str(cli_artifacts["trace"]),
                 cli_artifacts["scn"], "-o", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


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
_RETYPES = [None, True, 0, -1, 0.5, "x", "", [], {}, [1.0, "a"], {"lower": [1]}]
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
