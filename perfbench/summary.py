"""Run workloads over several seeds and print every metric with its spread.

    python3 perfbench/summary.py [--workloads distill-kd,teacher] [--seeds 1-10]
                                 [--seconds 12] [--trace 0|1] [--json FILE]

Each run is its own process (``perfbench/run.py``), one after another.
For every metric and workload the table shows the median over the seeds,
the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), and, for end-to-end
metrics, the bound from ``BENCHMARK.json``.  A spread at or above a third
of its bound is flagged ``WIDE`` (``setup_s`` is exempt, as its bound
covers the drift between two sets of runs).  With one seed this is the
one command that prints every metric by name and unit for all workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["perfbench_report"], json.loads(lines[-1])


def spread(values: list[float]) -> float:
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's result to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict = {}
    machine = None
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            report, result = run_once(workload, seed, args.seconds, args.trace)
            machine = machine or report["machine"]
            raw.setdefault(workload, []).append({"seed": seed, "report": report, "result": result})
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"fail_frac={report['fail_frac']:g} samples={report['samples']}",
                  file=sys.stderr, flush=True)

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"{'workload':<16} {'metric':<28} {'unit':<10} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  runs")
    wide = 0
    for workload, runs in raw.items():
        names = list(runs[0]["result"]["metrics"])
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            s = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s >= bound / 3:
                flag, wide = "  WIDE", wide + 1
            print(f"{workload:<16} {name:<28} {unit:<10} {statistics.median(values):>14.6g} "
                  f"{s:>8.4f} {'' if bound is None else bound:>6}  {len(values)}{flag}")
        p90 = [r["report"]["infer_b100_ms_p90"] for r in runs if "infer_b100_ms_p90" in r["report"]]
        if p90:
            print(f"{workload:<16} {'(report) infer_b100_ms_p90':<28} {'ms':<10} "
                  f"{statistics.median(p90):>14.6g} {spread(p90):>8.4f}")
        fails = sum(r["result"]["failed"] for r in runs)
        tries = sum(r["result"]["attempted"] for r in runs)
        print(f"{workload:<16} {'fail_frac':<28} {'fraction':<10} {fails / max(tries, 1):>14.6g}")
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1) + "\n")
    all_correct = all(r["result"]["correct"] for runs in raw.values() for r in runs)
    return 0 if all_correct and not wide else 1


if __name__ == "__main__":
    sys.exit(main())
