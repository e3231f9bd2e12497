"""BENCHMARK.json against its contract, and a short smoke pass per workload."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape(benchmark_json):
    bj = benchmark_json
    assert set(bj) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}
    assert 1 <= bj["run_seconds"] <= 60
    assert 2 <= len(bj["workloads"]) <= 8
    assert 1 <= len(bj["end_to_end"]) <= 16
    assert 1 <= len(bj["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bj[key]]
    assert all(NAME.match(n) for n in names)
    for w in bj["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in bj["end_to_end"] + bj["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in bj["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bj["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bj["end_to_end"])


def _run(cwd, workload, trace, seconds="0.1"):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("workload", ["reroute", "cooperative", "sweep"])
def test_smoke_untraced(workload, benchmark_json):
    proc = _run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in benchmark_json["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "logs_changed 0" in proc.stdout


def test_smoke_traced(benchmark_json):
    proc = _run(ROOT, "cooperative", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in benchmark_json["per_layer"]}
    assert metrics["check.logs_changed"]["value"] == 0
    assert metrics["v2x.messages_sent"]["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cooperative", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rerun_checks_bytes_when_logs_changed(monkeypatch, tmp_path):
    import child
    import workloads

    monkeypatch.setattr(workloads, "load_reference", lambda: {"fingerprints": {}})
    wl = workloads.WORKLOADS["cooperative"]()
    wl.build()
    result = child.measure(wl, seed=0, seconds=0.01, out=tmp_path)
    assert result["logs_changed"] == 2
    # reference round (2 episodes), one timed round (2), the s2 rerun (1)
    assert result["attempted"] == 5 and result["failed"] == 0, result["failures"]
