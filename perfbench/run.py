"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-module metrics with
``--trace 1``.  The line before it is a JSON report with the machine
facts, sample counts, failures and, when traced, span summaries.  The
workloads and metrics are described in ``perfbench/METRICS.md``.

BLAS threads are capped at the number of usable cores before numpy is
imported, and glibc's allocator thresholds are fixed (see
``fix_allocator``).  Exit code 1 means the benchmark could not run at all
(for example, no ``src/sparsedistill`` next to it) and no result was
printed.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("distill-st-svd", "distill-kd", "teacher", "evaluate")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3      # glibc mallopt parameters


def pin_blas_threads() -> int:
    """Cap every BLAS thread variable at the usable core count; returns that count."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def fix_allocator() -> str:
    """Fix glibc's mmap and trim thresholds; returns what was set.

    By default glibc raises its mmap threshold each time a large block is
    freed, so whether numpy's multi-megabyte temporaries reuse heap pages
    or fault in fresh ones depends on the allocation history of the run.
    That moved step times by about 10% from one process to the next.
    Fixed thresholds make every run reuse the heap the same way.
    """
    name = ctypes.util.find_library("c")
    try:
        libc = ctypes.CDLL(name)
        ok = libc.mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 and libc.mallopt(M_TRIM_THRESHOLD, 512 << 20) == 1
    except (OSError, AttributeError, TypeError):
        ok = False
    return "mmap 32 MiB, trim 512 MiB" if ok else "default"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sparsedistill benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, for checking the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    allocator = fix_allocator()
    if not (ROOT / "src" / "sparsedistill" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'sparsedistill'}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import harness
        result, report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                     args.smoke, nproc)
        report["machine"]["allocator"] = allocator
    except Exception:  # noqa: BLE001 - top-level boundary: report, print no result
        traceback.print_exc()
        return 1
    print(json.dumps({"perfbench_report": report}, sort_keys=True))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
