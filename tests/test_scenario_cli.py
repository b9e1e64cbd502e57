import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kaware.cli import main
from kaware.errors import ScenarioParseError, ScenarioValidationError
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
    assert sc.objective_text == "!Obstacle U Target"


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
    raw = json.loads(base_path.read_text())
    mutate(raw)
    out = tmp_path / "mutant.scn.json"
    out.write_text(json.dumps(raw))
    return str(out)


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
])
def test_cli_rejects_bad_dimension_entries(tmp_path, capsys, key, value):
    path = _mutate(DESK_SCENARIO, tmp_path,
                   lambda raw: raw["system"].update({key: value}))
    code = main(["abstract", path, "-o", str(tmp_path / "c.kaw")])
    assert code == 2
    assert f"error:validation: system.{key}" in capsys.readouterr().err


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
], ids=["tau", "initial_state", "proximity_range", "seed", "max_steps",
        "regions", "negative_seed", "signs", "sign_entry", "objective", "tbox",
        "define", "concept", "temporal", "undeclared_atom",
        "undeclared_role"])
def test_cli_rejects_ill_typed_scenario_fields(tmp_path, capsys, where, mutate):
    path = _mutate(DESK_SCENARIO, tmp_path, mutate)
    code = main(["abstract", path, "-o", str(tmp_path / "c.kaw")])
    assert code == 2
    assert f"error:validation: {where}" in capsys.readouterr().err


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


def _non_numeric(lines):
    parts = lines[3].split(",")
    parts[2] = "abc"
    lines[3] = ",".join(parts)
    return lines


# edits of a genuine trace (seed line, header, rows); None: no file at all
TRACE_DEFECTS = {
    "missing_file": None,
    "row_with_two_fields": _two_field_row,
    "cut_after_two_rows": lambda lines: lines[:4],
    "non_numeric_field": _non_numeric,
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
])
def test_cli_output_and_seed_errors_exit_code(cli_artifacts, tmp_path, capsys,
                                              command, code, kind):
    scn, cache = cli_artifacts["scn"], str(cli_artifacts["cache"])
    out = str(tmp_path / "no" / "such" / "dir" / "out")
    argv = {
        "abstract": ["abstract", scn, "-o", out],
        "synthesize": ["synthesize", scn, "--cache", cache, "-o", out],
        "simulate": ["simulate", scn, "--cache", cache, "-o", out],
        "render": ["render", str(cli_artifacts["trace"]), scn, "-o", out],
        "simulate --seed -1": ["simulate", scn, "--cache", cache, "--seed", "-1",
                               "-o", str(tmp_path / "trace.csv")],
    }[command]
    assert main(argv) == code
    assert f"error:{kind}:" in capsys.readouterr().err


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
    code = main(["synthesize", str(FULL_SCENARIO),
                 "--cache", str(cli_artifacts["cache"]),
                 "-o", str(tmp_path / "ctrl.csv")])
    assert code == 2
    assert "error:cache:" in capsys.readouterr().err


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
