"""``tools/bench_record.py`` on synthetic ``perfbench/run.py`` result files."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(sha, seed, trace, end_to_end=None, per_layer=None, passes=1):
    return {"workload": "urban_synth", "seed": seed, "trace": trace,
            "passes": passes, "failed_frac": 0.0, "ops": [{"ok": True}],
            "environment": {"code_sha256": sha, "seed": seed, "git_commit": sha},
            "end_to_end": end_to_end or {}, "per_layer": per_layer}


def _write(directory, results):
    for i, run in enumerate(results):
        (directory / f"run{i:02d}.json").write_text(json.dumps(run))


def _e2e(synth, rss):
    return {"setup_s": 0.3, "synthesize_s": synth, "per_controller_s": synth,
            "peak_rss_mb": rss, "cache_mb": 0.047}


def test_pair_verdict_and_per_pass_medians(bench_record, tmp_path):
    # parent synthesize_s 0.60..0.69 over seeds 1..10; the change is 0.10 s
    # faster on eight seeds, slower on seed 9 and equal on seed 10
    parent = [0.60 + 0.01 * i for i in range(10)]
    change = [p - 0.10 for p in parent[:8]] + [parent[8] + 0.05, parent[9]]
    results = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        results.append(_result("aaaa", seed, 0, _e2e(p, 55.0)))
        results.append(_result("bbbb", seed, 0, _e2e(c, 55.0 - 0.1 * (seed % 2))))
    for sha, sweeps, passes in (("aaaa", 348, 4), ("bbbb", 435, 5)):
        results.append(_result(sha, 1, 1, per_layer={
            "synthesis.sweeps": sweeps, "synthesis.export_s": 0.1 * passes,
            "synthesis.solve_s.p50": 0.25, "synthesis.solve_rss_mb": 53.0},
            passes=passes))
    _write(tmp_path, results)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--results", str(tmp_path), "--parent", "aaaa",
                              "--change", "bbbb", "-o", str(out)]) == 0
    record = json.loads(out.read_text())["workloads"]["urban_synth"]

    synth = record["verdict"]["synthesize_s"]
    assert len(synth["pairs"]) == 10
    assert synth["pairs"][0] == [1, parent[0], change[0]]
    assert (synth["change_wins"], synth["parent_wins"], synth["ties"]) == (8, 1, 1)
    q1, median, q3 = synth["parent_quartiles"]
    assert median == pytest.approx(0.645)
    assert (q1, q3) == (pytest.approx(0.6225), pytest.approx(0.6675))
    assert synth["median_gain"] == pytest.approx(0.645 - synth["change_quartiles"][1])
    assert synth["gain_exceeds_parent_spread"]
    assert not synth["gain_shown"]  # 8 of 10 pairs is under nine tenths

    rss = record["verdict"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["ties"]) == (5, 5)
    assert rss["better"] == "lower" and not rss["gain_shown"]

    for side in ("parent", "change"):  # 4 and 5 passes of 87 sweeps
        per_pass = record[side]["per_layer_per_pass_median"]
        assert per_pass["synthesis.sweeps"] == 87
        assert per_pass["synthesis.export_s"] == pytest.approx(0.1)
        assert "synthesis.solve_s.p50" not in per_pass
        assert record[side]["per_layer_median"]["synthesis.solve_s.p50"] == 0.25


def test_gain_shown_needs_nine_tenths_of_the_pairs(bench_record):
    runs = [_result("a", seed, 0, {"synthesize_s": 1.0 + 0.001 * seed})
            for seed in range(10)]
    faster = [_result("b", seed, 0, {"synthesize_s": 0.5 + 0.001 * seed})
              for seed in range(10)]
    faster[3]["end_to_end"]["synthesize_s"] = 2.0
    v = bench_record.verdict(runs, faster, "synthesize_s", lower_is_better=True)
    assert (v["change_wins"], v["parent_wins"]) == (9, 1)
    assert v["gain_shown"]
    higher = bench_record.verdict(runs, faster, "synthesize_s", lower_is_better=False)
    assert higher["change_wins"] == 1 and not higher["gain_shown"]
