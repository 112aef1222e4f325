"""The benchmark's command line contract and its agreement with BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, seconds="0.1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_names_match_benchmark_json():
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert run.END_TO_END[spec["name"]] == spec["unit"]
    want = [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC["per_layer"]]
    assert spans.per_layer_specs() == want


@pytest.mark.parametrize("trace", [0, 1])
def test_report_names_appear_in_benchmark_json(trace):
    proc = bench("tubes", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    specs = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == specs
    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
    assert meta["threads"] == 1 and meta["seed"] == 7 and meta["nproc"] >= 1


def test_fails_without_the_lab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("relax", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
