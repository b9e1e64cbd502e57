"""kaware benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload desk_cli --seed 1 --seconds 15 --trace 0

Workloads (why each was chosen: perfbench/README.md):

* ``desk_cli``: the README quick start on ``urban_desk``, one CLI child
  process per command.
* ``desk_missions``: one child process (perfbench/missions.py) that sets up
  the desk abstraction, solves the no-sign game and runs a seeded batch of
  closed-loop missions.
* ``urban_synth``: ``kaware abstract`` and ``kaware synthesize`` at full
  resolution.

Every child runs alone, under an address-space limit, and its peak RSS is
read from its own rusage.  A workload repeats whole passes until
``--seconds`` have passed (at least one pass) and reports medians over the
passes.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the children record spans
(perfbench/tracer.py) and it carries the per-layer metrics.  The lines
before it give every metric with its unit, the environment and the path of
the full result file under ``perfbench/_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "kaware" / "scenarios"
WORK = BENCH / "_work"
PYTHON = sys.executable

# below the machine's 7 GB; the full-resolution stages need about 5 GiB of
# address space at the seed commit
AS_LIMIT = 6 * 2**30
# every run must end within 180 s
DEADLINE_S = 165.0
THREAD_VARS = ("KAW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Op:
    name: str
    ok: bool
    wall_s: float
    rss_mb: float
    detail: str = ""
    stdout: str = ""


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def stdout_int(out: str, key: str) -> int | None:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            try:
                return int(line.split(":", 1)[1])
            except ValueError:
                return None
    return None


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def child_env() -> dict:
    threads = str(min(2, os.cpu_count() or 1))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({k: threads for k in THREAD_VARS})
    return env


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kaware").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class BenchRun:
    """One benchmark run: its child processes, their spans and the ops."""

    def __init__(self, workload: str, seed: int, trace: bool, scenario: Path):
        self.seed, self.trace, self.scenario = seed, trace, scenario
        self.t_start = time.perf_counter()
        self.run_id = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.dir = WORK / "runs" / self.run_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.ops: list[Op] = []
        self.dumps: list[dict] = []
        self.child_wall_s = 0.0
        with open(BENCH / "refs.json") as fh:
            refs = json.load(fh)
        self.ref = refs.get(sha256_file(scenario), {})

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def spawn(self, name: str, argv: list[str], check=None) -> Op:
        """Run one child to completion.  ``check(stdout)`` returns None when
        the outputs are right, else what is wrong."""
        remaining = self.remaining()
        if remaining <= 0:
            return Op(name, False, 0.0, 0.0, "skipped: run deadline reached")
        n = len(self.ops)
        out_path, err_path = self.dir / f"{n}-{name}.out", self.dir / f"{n}-{name}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=err, preexec_fn=_limit_address_space)
            status, usage, timed_out = _wait(proc, t0 + remaining)
            wall = time.perf_counter() - t0
        self.child_wall_s += wall
        stdout = out_path.read_text()
        rc = os.waitstatus_to_exitcode(status)
        op = Op(name, False, wall, usage.ru_maxrss / 1024.0, stdout=stdout)
        if timed_out:
            op.detail = "killed at the run deadline"
        elif rc != 0:
            tail = err_path.read_text().strip().splitlines()[-1:] or [""]
            op.detail = f"exit {rc}: {tail[0][:200]}"
        else:
            try:
                op.detail = (check(stdout) if check else None) or ""
            except (OSError, ValueError, KeyError) as exc:
                op.detail = f"output check failed: {exc!r}"
            op.ok = not op.detail
        return op

    def cli(self, name: str, args: list, check=None) -> Op:
        args = [str(a) for a in args]
        if self.trace:
            spans = self.dir / f"{len(self.ops)}-{name}.spans.json"
            argv = [PYTHON, str(BENCH / "child.py"), str(spans), self.run_id, *args]
        else:
            argv = [PYTHON, "-m", "kaware.cli", *args]
        op = self.spawn(name, argv, check)
        self.ops.append(op)
        if self.trace:
            self.load_spans(spans)
        return op

    def load_spans(self, path: Path):
        from tracer import load_dump
        try:
            self.dumps.append(load_dump(path))
        except (OSError, ValueError):
            pass  # the child died before writing its spans; its op has failed


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its own rusage; kill it at ``deadline``."""
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, usage, timed_out
            if not timed_out and time.perf_counter() > deadline:
                proc.kill()
                timed_out = True
            time.sleep(0.001)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        raise


# ---------------------------------------------------------------------------
# output checks


def file_check(path: Path, reference: str | None, header: str | None = None):
    """Byte-identity against the reference when there is one."""
    def check(_stdout):
        if reference:
            got = sha256_file(path)
            if got != reference:
                return f"{path.name}: sha256 {got[:16]} differs from the reference {reference[:16]}"
        elif header is not None:
            with open(path) as fh:
                if fh.readline().strip() != header:
                    return f"{path.name}: unexpected header"
        return None
    return check


def require_line(prefix: str):
    def check(stdout):
        ok = any(ln.startswith(prefix) for ln in stdout.splitlines())
        return None if ok else f"missing output line {prefix!r}"
    return check


def svg_check(path: Path):
    def check(_stdout):
        text = path.read_text()
        return None if text.startswith("<svg") and "</svg>" in text else "not an SVG document"
    return check


def audit_check(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines or any(not ln.startswith("PASS") for ln in lines):
        return "audit: " + "; ".join(ln for ln in lines if not ln.startswith("PASS"))
    return None


CONTROLLER_HEADER = "cell_index,rank,policy_input_index"

# ---------------------------------------------------------------------------
# workloads: each pass returns (end-to-end values, exact counts, summary-only values)


def desk_cli_pass(s: BenchRun):
    """The quick start, with `synthesize` run again at the end of the pass
    so that synthesize_s is a median of samples that span the pass."""
    scn, d, ref = s.scenario, s.dir, s.ref
    cache, ctrl, trace = d / "desk.kaw", d / "ctrl.csv", d / "trace.csv"

    def synthesize():
        return s.cli("synthesize", ["synthesize", scn, "--cache", cache, "-o", ctrl],
                     file_check(ctrl, ref.get("controller"), CONTROLLER_HEADER))

    def trace_check(stdout):
        return (require_line("outcome: ReachedTarget")(stdout)
                or file_check(trace, ref.get("trace"))(stdout))

    abstract = s.cli("abstract", ["abstract", scn, "-o", cache], require_line("transitions:"))
    syns = [synthesize()]
    syn_all = s.cli("synthesize_all", ["synthesize", scn, "--cache", cache,
                                       "--known-signs", "all", "-o", d / "ctrl_all.csv"],
                    file_check(d / "ctrl_all.csv", ref.get("controller_all"), CONTROLLER_HEADER))
    sim = s.cli("simulate", ["simulate", scn, "--cache", cache, "-o", trace], trace_check)
    ren = s.cli("render", ["render", trace, scn, "-o", d / "trace.svg"],
                svg_check(d / "trace.svg"))
    chk = s.cli("check", ["check", trace, scn], audit_check)
    syns.append(synthesize())

    resyntheses = stdout_int(sim.stdout, "resyntheses") or 0
    synthesize_s = statistics.median(op.wall_s for op in syns)
    solving = syns + [syn_all, sim]
    e2e = {
        "setup_s": abstract.wall_s,
        "synthesize_s": synthesize_s,
        "per_controller_s": sum(op.wall_s for op in solving) / (len(solving) + resyntheses),
        "peak_rss_mb": max(op.rss_mb for op in s.ops),
        "cache_mb": cache_bytes(cache) / 1e6,
    }
    counts = {
        "abstraction.transitions": stdout_int(abstract.stdout, "transitions"),
        "abstraction.blocked_pairs": stdout_int(abstract.stdout, "blocked pairs"),
        "abstraction.cache_bytes": cache_bytes(cache),
        "runtime.steps": stdout_int(sim.stdout, "steps"),
        "runtime.resyntheses": resyntheses,
        "outputs": [digest(ctrl), digest(d / "ctrl_all.csv"), digest(trace)],
    }
    extra = {
        "synthesize_all_s": (syn_all.wall_s, "s"),
        "simulate_s": (sim.wall_s, "s"),
        "pipeline_s": (abstract.wall_s + synthesize_s
                       + sum(op.wall_s for op in (syn_all, sim, ren, chk)), "s"),
    }
    return e2e, counts, extra


def urban_synth_pass(s: BenchRun):
    scn, d, ref = s.scenario, s.dir, s.ref
    cache = d / "urban.kaw"
    abstract = s.cli("abstract", ["abstract", scn, "-o", cache],
                     require_line("transitions:"))
    syn = s.cli("synthesize", ["synthesize", scn, "--cache", cache, "-o", d / "ctrl.csv"],
                file_check(d / "ctrl.csv", ref.get("controller"), CONTROLLER_HEADER))
    e2e = {
        "setup_s": abstract.wall_s,
        "synthesize_s": syn.wall_s,
        "per_controller_s": syn.wall_s,
        "peak_rss_mb": max(abstract.rss_mb, syn.rss_mb),
        "cache_mb": cache_bytes(cache) / 1e6,
    }
    counts = {
        "abstraction.transitions": stdout_int(abstract.stdout, "transitions"),
        "abstraction.blocked_pairs": stdout_int(abstract.stdout, "blocked pairs"),
        "abstraction.cache_bytes": cache_bytes(cache),
        "outputs": [digest(d / "ctrl.csv")],
    }
    extra = {"pipeline_s": (abstract.wall_s + syn.wall_s, "s")}
    return e2e, counts, extra


def desk_missions_pass(s: BenchRun):
    import missions
    result_path = s.dir / f"missions-{len(s.ops)}.json"
    argv = [PYTHON, str(BENCH / "missions.py"), str(s.scenario), str(s.dir),
            str(s.seed), str(result_path)]
    if s.trace:
        spans = s.dir / f"{len(s.ops)}-missions.spans.json"
        argv += [str(spans), s.run_id]
    child = s.spawn("missions", argv)
    if s.trace:
        s.load_spans(spans)
    res = json.loads(result_path.read_text()) if child.ok and result_path.exists() else {}
    blame = child.detail or "no result"

    setup_ok = "setup_s" in res
    s.ops.append(Op("setup", setup_ok, res.get("setup_s", 0.0), child.rss_mb,
                    "" if setup_ok else blame))
    ref = s.ref.get("controller")
    shas = res.get("controller_sha256") or [None]
    for i, sha in enumerate(shas):
        if not sha:
            syn_detail = blame
        elif ref and sha != ref:
            syn_detail = f"controller sha256 {sha[:16]} differs from the reference {ref[:16]}"
        elif sha != shas[0]:
            syn_detail = "controller differs from the first solve of the run"
        else:
            syn_detail = ""
        s.ops.append(Op(f"synthesize{i}", not syn_detail,
                        res["synthesize_s"][i] if sha else 0.0, child.rss_mb, syn_detail))
    batch = res.get("missions", [])
    for i, m in enumerate(batch):
        s.ops.append(Op(f"mission{i}", m["ok"], m.get("wall_s", 0.0), child.rss_mb,
                        m.get("detail", "")))
    for i in range(len(batch), missions.MISSIONS):
        s.ops.append(Op(f"mission{i}", False, 0.0, child.rss_mb, blame))

    missions_s = sum(m.get("wall_s", 0.0) for m in batch)
    syn_walls = res.get("synthesize_s") or [0.0]
    controllers = len(syn_walls) + sum(1 + m.get("resyntheses", 0) for m in batch)
    synthesize_s = statistics.median(syn_walls)
    setup_s = res.get("setup_s", 0.0)
    e2e = {
        "setup_s": setup_s,
        "synthesize_s": synthesize_s,
        "per_controller_s": (sum(syn_walls) + missions_s) / controllers,
        "peak_rss_mb": child.rss_mb,
        "cache_mb": res.get("cache_bytes", 0) / 1e6,
    }
    counts = {
        "abstraction.transitions": res.get("transitions"),
        "abstraction.blocked_pairs": res.get("blocked_pairs"),
        "abstraction.cache_bytes": res.get("cache_bytes"),
        "runtime.steps": sum(m.get("steps", 0) for m in batch),
        "runtime.resyntheses": sum(m.get("resyntheses", 0) for m in batch),
        "outputs": [shas[0]] + [[m.get("steps"), m.get("resyntheses")] for m in batch],
    }
    extra = {
        "missions_s": (missions_s, "s"),
        "missions": (len(batch), "count"),
        "controllers": (controllers, "count"),
        "pipeline_s": (setup_s + synthesize_s + missions_s, "s"),
    }
    return e2e, counts, extra


def cache_bytes(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def digest(path: Path) -> str | None:
    return sha256_file(path) if path.exists() else None


WORKLOADS = {
    "desk_cli": (desk_cli_pass, "urban_desk.scn.json"),
    "desk_missions": (desk_missions_pass, "urban_desk.scn.json"),
    "urban_synth": (urban_synth_pass, "urban.scn.json"),
}

# ---------------------------------------------------------------------------
# entry point


def remember(key: str, counts: dict, trace: bool, child_wall_s: float):
    """Compare this run with earlier runs of the same code, scenario and seed.

    Exact counts must repeat for the same mode: the first run records them
    and later runs are compared against it.  An untraced run records its
    child wall time so that a traced run can report the gap as tracing
    overhead.  Returns ``(unsteady count names, untraced wall or None)``.
    """
    path = WORK / "state.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    seen = state.setdefault("counts", {})
    walls = state.setdefault("child_wall_s", {})
    mode_key = f"{key}|trace={int(trace)}"
    counts = json.loads(json.dumps(counts))
    seen.setdefault(mode_key, counts)
    unsteady = sorted(k for k in set(seen[mode_key]) | set(counts)
                      if seen[mode_key].get(k) != counts.get(k))
    if not trace:
        walls[key] = child_wall_s
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1))
    os.replace(tmp, path)
    return unsteady, walls.get(key) if trace else None


def environment(seed: int, env: dict, fingerprint: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads": {k: env[k] for k in THREAD_VARS},
        "address_space_limit_bytes": AS_LIMIT,
        "git_commit": commit,
        "code_sha256": fingerprint,
        "seed": seed,
    }


def run(args) -> int:
    if not (SRC / "kaware" / "cli.py").is_file():
        print(f"error: no kaware sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pass_fn, default_scenario = WORKLOADS[args.workload]
    scenario = Path(args.scenario).resolve() if args.scenario else SCENARIOS / default_scenario
    s = BenchRun(args.workload, args.seed, bool(args.trace), scenario)
    passes = []
    try:
        while True:
            t0 = time.perf_counter()
            passes.append(pass_fn(s))
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - s.t_start
            if elapsed >= args.seconds or elapsed + took > DEADLINE_S - 5:
                break
    finally:
        shutil.rmtree(s.dir, ignore_errors=True)

    e2e = {k: statistics.median(p[0][k] for p in passes) for k in passes[0][0]}
    e2e["peak_rss_mb"] = max(p[0]["peak_rss_mb"] for p in passes)
    counts = passes[0][1]
    extra = {k: (statistics.median(p[2][k][0] for p in passes), unit)
             for k, (_, unit) in passes[0][2].items()}
    attempted = len(s.ops)
    failed = sum(not op.ok for op in s.ops)
    fingerprint = code_fingerprint()
    key = "|".join([args.workload, f"seed={args.seed}",
                    sha256_file(scenario)[:16], fingerprint[:16]])
    unsteady = {k for p in passes[1:] for k in p[1] if p[1][k] != counts[k]}

    layer_info = {}
    if args.trace:
        import tracer
        layer_counts = {k: v for k, v in counts.items() if k.startswith("abstraction.")}
        metrics, layer_info = tracer.layer_metrics(s.dumps, layer_counts)
        counts = dict(counts, **{k: metrics.get(k) for k in (
            "synthesis.solves", "synthesis.unchanged_solves")},
            sweeps_per_solve=layer_info["sweeps_per_solve"])
    earlier, untraced_wall = remember(key, counts, bool(args.trace), s.child_wall_s)
    unsteady = sorted(unsteady.union(earlier))
    if args.trace:
        metrics["trace.overhead_s"] = layer_info["overhead_s"]
        metrics["trace.overhead_frac"] = layer_info["overhead_s"] / s.child_wall_s
        layer_info["child_wall_s"] = s.child_wall_s
        if untraced_wall is not None:
            layer_info["wall_gap_vs_untraced_s"] = s.child_wall_s - untraced_wall
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in metrics}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]

    env = environment(args.seed, s.env, fingerprint)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scenario": str(scenario.relative_to(ROOT)) if scenario.is_relative_to(ROOT) else str(scenario),
        "passes": len(passes), "environment": env,
        "end_to_end": e2e, "summary": extra, "counts": counts,
        "unsteady_counts": unsteady, "missing_metrics": missing,
        "failed_frac": failed / attempted,
        "ops": [{k: v for k, v in asdict(op).items() if k != "stdout"} for op in s.ops],
        "per_layer": metrics if args.trace else None, "layer_info": layer_info,
        "spans": s.dumps if args.trace else None,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{s.run_id}.json"
    result_path.write_text(json.dumps(result))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  scenario {result['scenario']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<32} {value:>14.6g} {units.get(name, '')}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<32} {failed / attempted:>14.6g} ratio  "
          f"({failed} failed of {attempted} operations)")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<32} {value:>14.6g} {units.get(name, '')}")
        if "wall_gap_vs_untraced_s" in layer_info:
            print(f"  tracing overhead: child wall {s.child_wall_s:.3f} s traced, "
                  f"{untraced_wall:.3f} s in the last untraced run of this seed "
                  f"(gap {layer_info['wall_gap_vs_untraced_s']:+.3f} s; from the spans "
                  f"{layer_info['overhead_s']:.3f} s)")
        print(f"  useful solves: {layer_info['useful_solve_frac_base']}")
        if layer_info["absent"]:
            print(f"  absent (function removed): {', '.join(layer_info['absent'])}")
    for op in s.ops:
        if not op.ok:
            print(f"  FAILED {op.name}: {op.detail}")
    if unsteady:
        print(f"  UNSTEADY: exact counts differ from an earlier run: {', '.join(unsteady)}")
    print(f"environment {json.dumps(env)}")
    print(f"result file {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


def main(argv=None) -> int:
    # a terminated run still kills and reaps its child (see _wait)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scenario", help="scenario file in place of the bundled one "
                   "(the smoke test passes a coarsened one)")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
