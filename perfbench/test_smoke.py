"""Smoke test of the benchmark itself: every workload at tiny shapes.

    python3 -m pytest perfbench/test_smoke.py -q

Each case runs ``perfbench/run.py --smoke`` in its own process for about
a second of measurement and checks the result line against
``BENCHMARK.json``: every named metric with its unit, no failed
operation, and, for traced runs, the fidelity checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = 3, script: Path = HERE / "run.py", cwd: Path = ROOT):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench_report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    report, result = parse(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    machine = report["machine"]
    assert machine["nproc"] >= 1 and machine["numpy"] and machine["python"]
    if trace:
        assert result["metrics"]["trace.fidelity_ok"]["value"] == 1.0, report["trace_problems"]
        assert report["absent"] == {}
        share = result["metrics"]["trace.kl_group_share_pct"]["value"]
        assert (share > 0) == (workload == "distill-st-svd")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_same_seed_repeats_the_deterministic_metrics():
    runs = [parse(run("distill-kd", 0, seed=5))[1]["metrics"] for _ in range(2)]
    for name in ("final_loss", "test_error_pct", "r_s"):
        assert runs[0][name]["value"] == runs[1][name]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("distill-kd", 0, script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
