"""Spans around kaware's public functions, recorded from outside the package.

A traced process calls :meth:`Tracer.install` after importing kaware.  Every
kaware module attribute bound to a traced function is replaced by a wrapper,
so calls made through ``from .synthesis import solve_reach_avoid`` style names
are seen as well.  Spans stay in memory and are written out once, when the
process ends.  A span is ``[id, parent, name, start, end, run_id, rss_mb,
extra]``; ``rss_mb`` is the process's peak RSS when the span ends.

:func:`layer_metrics` turns the spans of all processes of a run into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
import threading
import time

# (span name, module, attribute); a dotted attribute is a method
TARGETS = [
    ("abstraction.build", "kaware.abstraction", "build_abstraction"),
    ("abstraction.flat", "kaware.abstraction", "Abstraction.flat_transitions"),
    ("abstraction.save", "kaware.abstraction", "Abstraction.save"),
    ("abstraction.load", "kaware.abstraction", "Abstraction.load"),
    ("varint.encode", "kaware.varint", "encode"),
    ("varint.decode", "kaware.varint", "decode"),
    ("scenario.load", "kaware.scenario", "load_scenario"),
    ("scenario.build_world", "kaware.scenario", "build_world"),
    ("knowledge.interp", "kaware.knowledge", "assemble_interpretation"),
    ("ltl.compile", "kaware.ltl", "compile_objective"),
    ("synthesis.solve", "kaware.synthesis", "solve_reach_avoid"),
    ("synthesis.export", "kaware.synthesis", "Controller.export_csv"),
    ("runtime.loop", "kaware.runtime", "run_closed_loop"),
    ("runtime.sense", "kaware.runtime", "sensor_step"),
    ("dynamics.flow", "kaware.dynamics", "flow"),
    ("runtime.write_trace", "kaware.runtime", "write_trace_csv"),
    ("audit.check", "kaware.audit", "audit_trace"),
    ("render.svg", "kaware.render", "render_svg"),
]

# per-layer metric -> the span it is derived from; a metric whose span's
# function no longer exists is reported as absent
METRIC_SPAN = {
    "abstraction.build_s": "abstraction.build",
    "abstraction.flat_s": "abstraction.flat",
    "abstraction.flat_rss_mb": "abstraction.flat",
    "abstraction.save_s": "abstraction.save",
    "abstraction.load_s": "abstraction.load",
    "abstraction.load_rss_mb": "abstraction.load",
    "varint.encode_s": "varint.encode",
    "varint.decode_s": "varint.decode",
    "scenario.load_s": "scenario.load",
    "scenario.build_world_s": "scenario.build_world",
    "knowledge.interp_s": "knowledge.interp",
    "ltl.compile_s": "ltl.compile",
    "ltl.avoid_cells": "ltl.compile",
    "synthesis.solves": "synthesis.solve",
    "synthesis.solve_s.p50": "synthesis.solve",
    "synthesis.solve_s.max": "synthesis.solve",
    "synthesis.sweeps": "synthesis.solve",
    "synthesis.sweep_ms": "synthesis.solve",
    "synthesis.winning_cells": "synthesis.solve",
    "synthesis.solve_rss_mb": "synthesis.solve",
    "synthesis.unchanged_solves": "synthesis.solve",
    "synthesis.useful_solve_frac": "synthesis.solve",
    "synthesis.export_s": "synthesis.export",
    "runtime.steps": "runtime.loop",
    "runtime.resyntheses": "runtime.loop",
    "runtime.sense_s": "runtime.sense",
    "dynamics.flow_s": "dynamics.flow",
    "runtime.loop_self_s": "runtime.loop",
    "runtime.write_trace_s": "runtime.write_trace",
    "audit.check_s": "audit.check",
    "render.svg_s": "render.svg",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder for one process.  Only the main thread records: the
    abstraction build runs ``flow`` on worker threads, and those calls are
    part of the build, not of the closed loop."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.overhead_s = 0.0
        self._stack: list[list] = []
        self._main = threading.get_ident()
        self._clock0 = time.time() - time.perf_counter()
        self._last_objective: dict[int, tuple] = {}

    def install(self):
        import kaware.cli  # noqa: F401  (loads every module that is patched)
        t0 = time.perf_counter()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kaware" or name.startswith("kaware."))]
        for span, modname, attr in TARGETS:
            owner_name, _, leaf = attr.rpartition(".")
            mod = sys.modules.get(modname)
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.absent.append(span)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self._wrap(span, raw.__func__)))
            elif owner_name:
                setattr(owner, leaf, self._wrap(span, raw))
            else:
                wrapped = self._wrap(span, raw)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)
        self.overhead_s += time.perf_counter() - t0

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            w0 = time.perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            # the flow layer is measured inside the closed loop only
            if name == "dynamics.flow" and (parent is None or parent[2] != "runtime.loop"):
                return fn(*args, **kwargs)
            rec = [len(tracer.spans), parent[0] if parent else None, name,
                   0.0, 0.0, tracer.run_id, 0.0, None]
            tracer.spans.append(rec)
            stack.append(rec)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec[3] = tracer._clock0 + t0
                rec[4] = tracer._clock0 + t1
                rec[6] = _peak_rss_mb()
                tracer.overhead_s += t0 - w0
            try:
                rec[7] = tracer._extra(name, rec, args, kwargs, result)
            except (AttributeError, TypeError, ValueError):
                pass  # a changed result type loses the counts, not the run
            tracer.overhead_s += time.perf_counter() - t1
            return result

        return wrapper

    def _extra(self, name, rec, args, kwargs, result):
        if name == "ltl.compile":
            return {"avoid": len(result.avoid)}
        if name == "runtime.loop":
            return {"steps": len(result.steps), "resyntheses": int(result.resynth_count)}
        if name != "synthesis.solve":
            return None
        ranks = result.rank_array[result.winning_mask]
        extra = {"sweeps": int(ranks.max()) + 1 if ranks.size else 1,
                 "winning": int(result.winning_mask.sum())}
        objective = args[1] if len(args) > 1 else kwargs.get("objective")
        parent = rec[1]
        if parent is not None and self.spans[parent][2] == "runtime.loop":
            key = (objective.target, objective.avoid)
            previous = self._last_objective.get(parent)
            extra["unchanged"] = previous == key
            self._last_objective[parent] = key
        return extra

    def dump(self, path: str):
        t0 = time.perf_counter()
        spans = json.dumps(self.spans)
        overhead = self.overhead_s + time.perf_counter() - t0
        head = json.dumps({"run_id": self.run_id, "absent": self.absent,
                           "overhead_s": overhead})
        with open(path, "w") as fh:
            fh.write(head[:-1] + ', "spans": ' + spans + "}")


def load_dump(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span of one process: its duration minus the part
    its direct children cover (children never overlap on one thread)."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(dumps: list[dict], counts: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run.

    ``dumps`` are the span files of every traced process of the run;
    ``counts`` holds the counts the workload read from outside the spans
    (``abstraction.transitions`` and the other exact counts).  Returns
    ``(metrics, info)`` where ``metrics`` maps name -> value and ``info``
    gives the bases of the ratios and the absent metrics.
    """
    by_name: dict[str, list[tuple[list, float]]] = {}
    firsts: dict[str, list[list]] = {}
    absent: set[str] = set()
    for d in dumps:
        absent.update(d.get("absent", []))
        seen = set()
        for span, own in zip(d["spans"], self_times(d["spans"])):
            by_name.setdefault(span[2], []).append((span, own))
            if span[2] not in seen:
                seen.add(span[2])
                firsts.setdefault(span[2], []).append(span)

    def total_self(name):
        return sum(own for _, own in by_name.get(name, []))

    def extras(name, key):
        return [s[7][key] for s, _ in by_name.get(name, [])
                if s[7] and s[7].get(key) is not None]

    def peak(spans):
        return max((s[6] for s in spans), default=0.0)

    solves = by_name.get("synthesis.solve", [])
    solve_durations = [s[4] - s[3] for s, _ in solves]
    sweeps = extras("synthesis.solve", "sweeps")
    unchanged = sum(1 for u in extras("synthesis.solve", "unchanged") if u)
    flat_firsts = firsts.get("abstraction.flat", [])
    # the longest call is the one that expands the boxes; later calls are cached
    flat_longest = max(flat_firsts, key=lambda s: s[4] - s[3], default=None)
    m = {
        "abstraction.build_s": total_self("abstraction.build"),
        "abstraction.flat_s": sum(s[4] - s[3] for s in flat_firsts),
        "abstraction.flat_rss_mb": flat_longest[6] if flat_longest else 0.0,
        "abstraction.save_s": total_self("abstraction.save"),
        "abstraction.load_s": total_self("abstraction.load"),
        "abstraction.load_rss_mb": peak([s for s, _ in by_name.get("abstraction.load", [])]),
        "varint.encode_s": total_self("varint.encode"),
        "varint.decode_s": total_self("varint.decode"),
        "scenario.load_s": total_self("scenario.load"),
        "scenario.build_world_s": total_self("scenario.build_world"),
        "knowledge.interp_s": total_self("knowledge.interp"),
        "ltl.compile_s": total_self("ltl.compile"),
        "ltl.avoid_cells": max(extras("ltl.compile", "avoid"), default=0),
        "synthesis.solves": len(solves),
        "synthesis.solve_s.p50": statistics.median(solve_durations) if solves else 0.0,
        "synthesis.solve_s.max": max(solve_durations, default=0.0),
        "synthesis.sweeps": sum(sweeps),
        "synthesis.sweep_ms": 1000.0 * total_self("synthesis.solve") / sum(sweeps) if sweeps else 0.0,
        "synthesis.winning_cells": sum(extras("synthesis.solve", "winning")),
        "synthesis.solve_rss_mb": peak([s for s, _ in solves]),
        "synthesis.unchanged_solves": unchanged,
        "synthesis.useful_solve_frac": (len(solves) - unchanged) / len(solves) if solves else 1.0,
        "synthesis.export_s": total_self("synthesis.export"),
        "runtime.steps": sum(extras("runtime.loop", "steps")),
        "runtime.resyntheses": sum(extras("runtime.loop", "resyntheses")),
        "runtime.sense_s": total_self("runtime.sense"),
        "dynamics.flow_s": total_self("dynamics.flow"),
        "runtime.loop_self_s": total_self("runtime.loop"),
        "runtime.write_trace_s": total_self("runtime.write_trace"),
        "audit.check_s": total_self("audit.check"),
        "render.svg_s": total_self("render.svg"),
    }
    for name in list(m):
        if METRIC_SPAN[name] in absent:
            del m[name]
    m.update(counts)
    info = {
        "absent": sorted(k for k, v in METRIC_SPAN.items() if v in absent),
        "spans": sum(len(d["spans"]) for d in dumps),
        "processes": len(dumps),
        "overhead_s": sum(d.get("overhead_s", 0.0) for d in dumps),
        "sweeps_per_solve": sweeps,
        "useful_solve_frac_base": f"{len(solves) - unchanged} useful of {len(solves)} solves",
    }
    return m, info
