"""The parts of kaware that the benchmark under ``perfbench/`` relies on.

``perfbench/tracer.py`` wraps kaware functions by name and reads a few
fields of their results; a renamed function or a changed result type
silently drops per-layer metrics.  ``perfbench/missions.py`` looks names up
on the ``kaware`` package; one that leaves the namespace fails every
mission, and so does an attribute it reads from a kaware object, such as
a World, a Controller or a Trace.  ``perfbench/run.py`` parses counts out
of the CLI's stdout and audits the output of ``check``; a changed line
drops a traced run's counts or fails the run.  These tests read
``perfbench/`` and change nothing in it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib
import sys

from kaware import compile_objective
from kaware.cli import main

from conftest import DESK_SCENARIO

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_module(monkeypatch):
    """``perfbench/run.py``, registered in ``sys.modules`` while it loads,
    as its dataclasses need."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _tracer_targets():
    return _tracer_module().TARGETS


def test_every_tracer_target_resolves_to_a_kaware_function():
    missing = []
    for span, modname, attr in _tracer_targets():
        owner_name, _, leaf = attr.rpartition(".")
        owner = importlib.import_module(modname)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        raw = vars(owner).get(leaf) if owner is not None else None
        if isinstance(raw, classmethod):
            raw = raw.__func__
        if not callable(raw):
            missing.append(span)
    assert missing == []


def test_every_kaware_name_the_missions_look_up_resolves():
    """``kaware.<name>`` lookups and ``from kaware.<module> import <name>``
    imports of ``perfbench/missions.py``, read from its syntax tree."""
    tree = ast.parse((PERFBENCH / "missions.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "kaware"}
    assert names == {"load_scenario", "build_abstraction", "Abstraction",
                     "build_world", "compile_objective", "solve_reach_avoid",
                     "run_closed_loop", "Outcome"}
    kaware = importlib.import_module("kaware")
    assert [n for n in sorted(names) if not hasattr(kaware, n)] == []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("kaware"):
            module = importlib.import_module(node.module)
            assert all(hasattr(module, a.name) for a in node.names)


def test_every_attribute_the_missions_read_exists(desk_scenario, desk_abstraction,
                                                 desk_world, desk_controller,
                                                 desk_trace):
    """``<name>.<attr>`` reads of ``perfbench/missions.py`` on the kaware
    objects it names so, and the fields its ``dataclasses.replace`` calls
    set, read from its syntax tree and checked on desk's objects."""
    tree = ast.parse((PERFBENCH / "missions.py").read_text())
    objects = {"scenario": desk_scenario, "built": desk_abstraction,
               "world": desk_world, "controller": desk_controller[0],
               "trace": desk_trace}
    read = {name: set() for name in objects}
    replaced = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in objects):
            read[node.value.id].add(node.attr)
        if (isinstance(node, ast.Call)
                and ast.unparse(node.func) == "dataclasses.replace"):
            replaced[ast.unparse(node.args[0])] = {kw.arg for kw in node.keywords}
    assert read == {
        "scenario": {"system", "state_grid", "input_grid", "max_steps"},
        "built": {"save", "stats"},
        "world": {"interp", "sign_links", "abstraction", "grid_x"},
        "controller": {"winning_mask", "export_csv"},
        "trace": {"steps", "resynth_count", "outcome"},
    }
    assert replaced == {"world": {"scenario"}, "scenario": {"initial_state"}}
    for name, obj in objects.items():
        assert [a for a in sorted(read[name]) if not hasattr(obj, a)] == []
    for name, keys in replaced.items():
        assert keys <= {f.name for f in dataclasses.fields(objects[name])}


def test_compiled_objective_fields_the_tracer_reads(desk_world):
    """The tracer counts ``len(objective.avoid)`` and compares ``(target,
    avoid)`` tuples to spot unchanged re-solves."""
    interp, links = desk_world.interp, desk_world.sign_links
    known = [c for cells, _ in links for c in cells]
    obj = compile_objective(interp, links, known)
    avoid = interp.extent("Obstacle").copy()
    for _, street in links:
        avoid[street] = True
    assert len(obj.avoid) == int(avoid.sum())
    again = compile_objective(interp, links, set(known))
    none = compile_objective(interp, links, set())
    same = (obj.target, obj.avoid) == (again.target, again.avoid)
    other = (obj.target, obj.avoid) == (none.target, none.avoid)
    assert type(same) is bool and same
    assert type(other) is bool and not other
    assert len(none.avoid) == int(interp.extent("Obstacle").sum())


def test_tracer_reads_sweeps_and_winning_from_a_desk_solve(desk_world,
                                                           desk_controller):
    """The tracer's per-solve counts (``synthesis.sweeps`` and
    ``synthesis.winning_cells`` sum them) come from the controller a real
    desk solve returns, as integers; inside a closed loop it also marks a
    solve whose objective equals the previous one."""
    ctrl, objective = desk_controller
    tracer = _tracer_module().Tracer("test")
    args = (desk_world.abstraction, objective)
    solve = [0, None, "synthesis.solve", 0.0, 0.0, "test", 0.0, None]
    extra = tracer._extra("synthesis.solve", solve, args, {}, ctrl)
    assert extra == {"sweeps": 75, "winning": 7723}
    assert all(type(v) is int for v in extra.values())
    assert extra["sweeps"] == ctrl.sweeps
    tracer.spans = [[0, None, "runtime.loop", 0.0, 0.0, "test", 0.0, None]]
    solve[1] = 0
    unchanged = [tracer._extra("synthesis.solve", solve, args, {}, ctrl)["unchanged"]
                 for _ in range(2)]
    assert unchanged == [False, True]


def test_run_parses_the_desk_cli_output(tmp_path, capsys, monkeypatch,
                                        desk_abstraction):
    """What ``run.py`` reads from ``abstract``, ``simulate`` and ``check`` on
    desk, parsed with its own ``stdout_int`` and ``audit_check``."""
    run = _run_module(monkeypatch)
    cache, trace = str(tmp_path / "desk.kaw"), str(tmp_path / "trace.csv")
    scn = str(DESK_SCENARIO)
    outs = []
    for argv in (["abstract", scn, "-o", cache],
                 ["simulate", scn, "--cache", cache, "-o", trace],
                 ["check", trace, scn]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    abstract, simulate, check = outs
    stats = desk_abstraction.stats()
    assert run.stdout_int(abstract, "transitions") == stats["transitions"]
    assert run.stdout_int(abstract, "blocked pairs") == stats["blocked_pairs"]
    assert type(run.stdout_int(simulate, "steps")) is int
    assert type(run.stdout_int(simulate, "resyntheses")) is int
    assert run.audit_check(check) is None
