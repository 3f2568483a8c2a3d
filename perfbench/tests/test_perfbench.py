"""Self-test of the benchmark. From the root of a checkout:

    python3 -m pytest -q perfbench/tests

Runs every workload of BENCHMARK.json traced twice with one seed (about a
minute and a half on two cores), ``train_drill`` once untraced, and once in
a directory without the program.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 5


def run(cwd: Path, workload: str, seed: int, trace: int, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)


@functools.cache
def result(workload: str, trace: int, attempt: int = 0) -> dict:
    proc = run(ROOT, workload, SEED, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_work_counters_repeat(workload):
    names = [m["name"] for m in BENCHMARK["per_layer"]
             if m["unit"] in ("count", "B") and not m["name"].startswith("trace.")]
    first, second = values(result(workload, 1)), values(result(workload, 1, attempt=1))
    assert result(workload, 1)["correct"]
    assert set(first) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {k: first[k] for k in names} == {k: second[k] for k in names}
    assert first["model.forward.calls"] > 0
    assert 0.0 <= first["trace.residual_share"] < 0.5


@pytest.mark.parametrize("workload", ["restore", "corpus"])
def test_bypass_workloads_record_no_tape(workload):
    assert values(result(workload, 1))["tensor.backward.calls"] == 0


def test_restore_makes_no_fft_calls():
    assert values(result("restore", 1))["dsp.fft.calls"] == 0


def test_training_workload_runs_the_tape():
    v = values(result("train_drill", 1))
    assert v["tensor.backward.calls"] > 0 and v["tensor.topo_order.tape_nodes"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    res = result("train_drill", 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in values(res).values())


def test_calibration_runs_in_a_child_that_ends():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from calibrate import Calibrator
    with Calibrator() as cal:
        cal.run(0.05)
        cal.run(0.05)
    assert cal.passes >= 2 and cal.scale() > 0
    assert cal._proc.returncode == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run(tmp_path, "train_drill", SEED, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
