"""The A/B harness (tools/bench_ab.py) on one short pair of runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_harness_compares_a_tree_with_itself(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_ab.py", "--base", ".", "--head", ".",
         "--profile", "smoke", "--pairs", "1", "--seconds", "1",
         "--workloads", "chains", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert report["machine"] and report["nproc"] >= 1 and report["python"]
    assert "numpy" in report
    assert report["base"] == report["head"] == {"spec": ".", "src_tree": report["head"]["src_tree"]}
    assert len(report["head"]["src_tree"]) == 40
    assert [(r["pair"], r["side"]) for r in report["runs"]] == [(0, "parent"), (0, "change")]
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] > 0 for r in report["runs"])
    # load can move a one-second run either way, so no verdict is asserted
    metrics = report["workloads"]["chains"]
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    for row in metrics.values():
        for side in ("parent", "change"):
            assert set(row[side]) == {"median", "q1", "q3", "values"}
            assert len(row[side]["values"]) == 1
        assert row["pairs"] == 1 and row["wins"] in (0, 1)
        assert row["verdict"] in ("gain", "cost", "unresolved")


def test_the_inprocess_mode_compares_a_script_run_on_a_tree_with_itself(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_ab.py", "--base", ".", "--head", ".",
         "--inprocess", "tools/chain_scale.py", "--pairs", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["machine"] and report["inprocess"] == "tools/chain_scale.py"
    assert "seed" not in report and "seconds" not in report
    assert [(r["pair"], r["side"]) for r in report["runs"]] == [(0, "parent"), (0, "change")]
    metrics = report["workloads"]["tools/chain_scale.py"]
    assert set(metrics) == {
        "ground_states_1e4_s", "peak_rss_1e4_mb", "ground_states_1e5_s", "peak_rss_1e5_mb"
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["unit"]: m["bound"] for m in spec["end_to_end"]}
    for row in metrics.values():
        assert row["better"] == "lower" and row["bound"] == bounds[row["unit"]]
        assert len(row["parent"]["values"]) == len(row["change"]["values"]) == 1
        assert row["pairs"] == 1 and row["verdict"] in ("gain", "cost", "unresolved")
    # the script checks each ground line, and the new report stays small
    assert metrics["peak_rss_1e5_mb"]["change"]["median"] < 100
