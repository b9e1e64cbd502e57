"""Collect perfbench result files into one BENCH record.

    python3 tools/bench_record.py                      # list the result groups
    python3 tools/bench_record.py --parent P --change C -o BENCH_<n>.json
    python3 tools/bench_record.py --results DIR1 DIR2 ...  # other result dirs

``perfbench/run.py`` writes one JSON file per run under
``perfbench/_work/results``.  This script groups those files by workload and
by the fingerprint of the kaware sources that ran (``environment.
code_sha256``).  ``P`` and ``C`` are prefixes of two fingerprints: the
parent commit's and the change's.  For each workload the record holds, per
side, the result line of every untraced run (the last stdout line of
``run.py``), the median of every end-to-end metric, the medians of the
per-layer metrics of the traced runs, and the environment.

A traced run sums some per-layer metrics over however many passes fit in
its time (``PER_PASS``: self times and counts); the record also gives
their medians divided by each run's ``passes``.  Maxima, medians and
ratios are left as they are.

Per workload and end-to-end metric, ``verdict`` gives each side's
quartiles, pairs the untraced runs of the two sides by seed, and counts
the pairs the change wins in the direction ``BENCHMARK.json`` calls
better (a tie counts for neither).  A gain is shown when the change wins
at least nine tenths of the pairs and its median is better than the
parent's by more than the distance between the parent's quartiles.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "perfbench" / "_work" / "results"


# per-layer metrics that perfbench/tracer.py sums over the passes of a run
PER_PASS = (
    "abstraction.build_s", "abstraction.flat_s", "abstraction.save_s",
    "abstraction.load_s", "varint.encode_s", "varint.decode_s",
    "scenario.load_s", "scenario.build_world_s", "knowledge.interp_s",
    "ltl.compile_s", "synthesis.solves", "synthesis.sweeps",
    "synthesis.winning_cells", "synthesis.unchanged_solves",
    "synthesis.export_s", "runtime.steps", "runtime.resyntheses",
    "runtime.sense_s", "dynamics.flow_s", "runtime.loop_self_s",
    "runtime.write_trace_s", "audit.check_s", "render.svg_s",
    "trace.overhead_s",
)


def load_results(dirs: list[Path]) -> list[dict]:
    runs = []
    for path in sorted(p for d in dirs for p in d.glob("*.json")):
        try:
            run = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        run["_file"] = path.name
        runs.append(run)
    return runs


def result_line(run: dict, units: dict) -> dict:
    """The run's last stdout line, rebuilt from its result file."""
    metrics = run["per_layer"] if run["trace"] else run["end_to_end"]
    failed = sum(not op["ok"] for op in run["ops"])
    return {"correct": failed == 0, "attempted": len(run["ops"]),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units.get(k, "")}
                        for k, v in metrics.items() if k in units}}


def medians(dicts: list[dict]) -> dict:
    keys = sorted({k for d in dicts for k, v in d.items()
                   if isinstance(v, (int, float))})
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` by the inclusive method; a single value is all
    three, and no value gives ``[]``."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def per_pass(run: dict) -> dict:
    return {k: run["per_layer"][k] / run["passes"]
            for k in PER_PASS if k in run["per_layer"]}


def verdict(parent: list[dict], change: list[dict], name: str,
            lower_is_better: bool) -> dict:
    """Pair verdict of one end-to-end metric over the two sides' untraced
    runs.  The i-th run of a seed on one side pairs with the i-th run of
    that seed on the other, in file order."""
    def by_seed(runs):
        seeds: dict[int, list[float]] = {}
        for r in runs:
            if name in r["end_to_end"]:
                seeds.setdefault(r["seed"], []).append(r["end_to_end"][name])
        return seeds

    a, b = by_seed(parent), by_seed(change)
    pairs = [[seed, x, y] for seed in sorted(a.keys() & b.keys())
             for x, y in zip(a[seed], b[seed])]
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (x - y) > 0 for _, x, y in pairs)
    losses = sum(sign * (x - y) < 0 for _, x, y in pairs)
    qa = quartiles([v for vs in a.values() for v in vs])
    qb = quartiles([v for vs in b.values() for v in vs])
    gain = sign * (qa[1] - qb[1]) if qa and qb else 0.0
    spread = qa[2] - qa[0] if qa else 0.0
    return {
        "better": "lower" if lower_is_better else "higher",
        "parent_quartiles": qa, "change_quartiles": qb,
        "pairs": pairs,
        "change_wins": wins, "parent_wins": losses,
        "ties": len(pairs) - wins - losses,
        "median_gain": gain, "parent_quartile_spread": spread,
        "gain_exceeds_parent_spread": gain > spread,
        "gain_shown": bool(pairs) and wins >= 0.9 * len(pairs) and gain > spread,
    }


def side(runs: list[dict], units: dict) -> dict:
    plain = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    env = dict((plain or traced)[0]["environment"])
    env.pop("seed", None)
    return {
        "code_sha256": env["code_sha256"],
        "environment": env,
        "runs": [{"seed": r["seed"], "file": r["_file"],
                  "result": result_line(r, units)} for r in plain],
        "end_to_end_median": medians([r["end_to_end"] for r in plain]),
        "failed_frac_max": max((r["failed_frac"] for r in plain), default=None),
        "traced_runs": [{"seed": r["seed"], "file": r["_file"]} for r in traced],
        "per_layer_median": medians([r["per_layer"] for r in traced]),
        "per_layer_per_pass_median": medians([per_pass(r) for r in traced]),
    }


def pick(runs: list[dict], prefix: str) -> list[dict]:
    chosen = [r for r in runs if r["environment"]["code_sha256"].startswith(prefix)]
    shas = {r["environment"]["code_sha256"] for r in chosen}
    if len(shas) > 1:
        raise SystemExit(f"error: prefix {prefix!r} matches {len(shas)} fingerprints")
    return chosen


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--results", type=Path, nargs="+", default=[RESULTS],
                   help="directories of run.py result files")
    p.add_argument("--parent", help="code_sha256 prefix of the parent's runs")
    p.add_argument("--change", help="code_sha256 prefix of the change's runs")
    p.add_argument("-o", "--output", type=Path)
    args = p.parse_args(argv)
    runs = load_results(args.results)

    if not (args.parent and args.change and args.output):
        groups: dict[tuple, list[dict]] = {}
        for r in runs:
            groups.setdefault((r["workload"], r["environment"]["code_sha256"][:12]),
                              []).append(r)
        for (workload, sha), rs in sorted(groups.items()):
            commits = sorted({(r["environment"].get("git_commit") or "")[:8] for r in rs})
            seeds = sorted(r["seed"] for r in rs)
            print(f"{workload:<14} {sha}  commits {','.join(commits)}  "
                  f"{sum(not r['trace'] for r in rs)} untraced, "
                  f"{sum(bool(r['trace']) for r in rs)} traced, seeds {seeds}")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    parent, change = pick(runs, args.parent), pick(runs, args.change)
    record = {"parent": args.parent, "change": args.change, "workloads": {}}
    for workload in sorted({r["workload"] for r in parent + change}):
        a = [r for r in parent if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        if not (a and b):
            print(f"skipping {workload}: runs on one side only", file=sys.stderr)
            continue
        pa, pb = side(a, units), side(b, units)
        ratio = {k: pb["end_to_end_median"][k] / v
                 for k, v in pa["end_to_end_median"].items()
                 if v and k in pb["end_to_end_median"]}
        plain_a = [r for r in a if not r["trace"]]
        plain_b = [r for r in b if not r["trace"]]
        record["workloads"][workload] = {
            "parent": pa, "change": pb,
            "median_ratio_change_over_parent": ratio,
            "verdict": {k: verdict(plain_a, plain_b, k, lower[k]) for k in lower},
        }
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.output} ({len(record['workloads'])} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
