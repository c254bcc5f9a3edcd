"""Smoke test of the benchmark itself: every workload at its tiny size.

    python3 -m pytest perfbench

Checks that each run prints valid JSON with every metric of BENCHMARK.json
and its unit, that the traced runs together emit spans from all six pfstrip
modules, and that the benchmark refuses to report without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def _check_metrics(res, declared):
    for metric in declared:
        got = res["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    assert set(res["metrics"]) == {m["name"] for m in declared}


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in BENCH["workloads"]) == workloads.NAMES


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_end_to_end_metrics(workload):
    res = _result(_run(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    _check_metrics(res, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_runs_cover_all_six_modules():
    layers_seen = set()
    for workload in workloads.NAMES:
        res = _result(_run(workload, 1))
        assert res["correct"]
        _check_metrics(res, BENCH["per_layer"])
        with open(os.path.join(ROOT, ".perfbench_out", f"{workload}.spans.json"),
                  encoding="utf-8") as fh:
            dump = json.load(fh)
        assert dump["spans"]
        layers_seen |= {dump["names"][span[0]].split(".")[0] for span in dump["spans"]}
        if workload == "stationary_96":
            assert res["metrics"]["stationary.probe_s"]["value"] > 0
    assert layers_seen == set(tracing.LAYERS)


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("homog_8x4", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
