"""Seconds-long smoke test of the benchmark harness.

    python3 perfbench/smoke_test.py
    python -m pytest perfbench/smoke_test.py

Generates a coarsened copy of the desk scenario, runs every workload of
BENCHMARK.json on it through perfbench/run.py, untraced and traced, and
checks each result line against BENCHMARK.json.  Also checks that the
benchmark refuses to run, without a result line, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE = BENCH / "_work" / "smoke"


def coarse_scenario() -> Path:
    """A smaller desk map with one sign and a coarser input grid: the desk
    grid and sampling time, 5616 states, 32 inputs, 2.2 M transitions.
    (Coarsening the state grid instead leaves the growth bound too loose for
    any controller to exist.)"""
    scn = json.loads((ROOT / "src/kaware/scenarios/urban_desk.scn.json").read_text())
    scn["name"] = "urban-smoke"
    scn["system"]["state_bounds"]["upper"] = [5.2, 7.5, math.pi]
    scn["system"]["eta_u"] = [0.4]
    scn["map"]["regions"] = {
        "Target": [{"lower": [1.6, 6.3], "upper": [3.6, 7.2]}],
        "Obstacle": [{"lower": [1.4, 3.0], "upper": [3.8, 5.5]}],
    }
    scn["map"]["signs"] = [{
        "name": "left_street",
        "sign": {"lower": [0.2, 2.6], "upper": [1.2, 3.0]},
        "street": {"lower": [0.0, 3.0], "upper": [1.4, 5.5]},
    }]
    scn["initial_state"] = [1.0, 1.0, math.pi / 2]
    SMOKE.mkdir(parents=True, exist_ok=True)
    path = SMOKE / "smoke.scn.json"
    path.write_text(json.dumps(scn, indent=1))
    return path


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_every_workload_reports_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scenario = coarse_scenario()
    for workload in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, "--workload", workload["name"], "--seed", "3",
                             "--seconds", "1", "--trace", str(trace),
                             "--scenario", str(scenario))
            where = f"{workload['name']} trace {trace}"
            assert proc.returncode == 0, f"{where}: {proc.stderr[-2000:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, f"{where}: {proc.stdout}"
            assert result["attempted"] >= 1, where
            assert list(result["metrics"]) == [m["name"] for m in wanted], where
            for m in wanted:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], f"{where}: {m['name']}"
                assert isinstance(got["value"], (int, float)), f"{where}: {m['name']}"
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), where


def test_refuses_without_the_program():
    bare = SMOKE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(bare, "--workload", "desk_cli", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_every_workload_reports_every_metric()
    test_refuses_without_the_program()
    print("smoke test passed")
