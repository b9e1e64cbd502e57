"""The parts of kaware that the benchmark under ``perfbench/`` relies on.

``perfbench/tracer.py`` wraps kaware functions by name and reads a few
fields of their results; a renamed function or a changed result type
silently drops per-layer metrics.  These tests read ``perfbench/`` and
change nothing in it.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from kaware import compile_objective

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
