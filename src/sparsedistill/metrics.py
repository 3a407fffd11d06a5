"""Sparsity, compression, storage-footprint, and timing measurements.

Storage accounting is 32-bit throughout: a dense layer costs 4 bytes per
weight, a compressed-sparse-row layer costs 4 bytes per kept value, 4 per
column index, and 4 per row pointer (rows + 1 of them).  Each layer is
charged whichever of the two encodings is smaller; biases stay dense.
The footprint compression a report shows always has the dense teacher's
bytes in the numerator.

Every JSON document the package writes goes through :func:`to_json`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .checkpoint import parse_arch
from .errors import DomainError, UsageError, as_choice

__all__ = [
    "top1_error", "sparsity_ratio", "per_layer_sparsity_pct",
    "count_parameters", "compression_ratio", "csr_bytes", "dense_bytes", "footprint",
    "remaining_parameters", "inference_time", "SparsityReport", "emit_report",
    "REPORT_FORMATS", "to_json", "json_line",
]

REPORT_FORMATS = ("json", "markdown", "csv")


def top1_error(logits: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax misses the label."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if len(logits) != len(labels):
        raise DomainError(f"{len(logits)} logit rows vs {len(labels)} labels")
    if len(labels) == 0:
        return 0.0
    return float(np.mean(np.argmax(logits, axis=1) != labels))


def sparsity_ratio(masks) -> float:
    """R_s: total weights over surviving weights, across all layers."""
    total = sum(int(np.asarray(m).size) for m in masks)
    kept = sum(int(np.count_nonzero(m)) for m in masks)
    if kept == 0:
        warnings.warn("every weight was pruned; sparsity ratio reported as +inf")
        return float("inf")
    return total / kept


def per_layer_sparsity_pct(masks) -> list[float]:
    """Percent of weights removed in each layer (biases excluded)."""
    return [float(100.0 * (1.0 - np.count_nonzero(m) / np.asarray(m).size)) for m in masks]


def count_parameters(net_or_arch) -> int:
    """Trainable parameter count, weights plus biases layer by layer, of a width list or of a
    network with an ``arch``."""
    arch = parse_arch(getattr(net_or_arch, "arch", net_or_arch))
    return sum(k * h + h for k, h in zip(arch[:-1], arch[1:]))


def compression_ratio(teacher_params: int, student_params: int) -> float:
    """R_c: trainable parameters before over after."""
    if teacher_params <= 0 or student_params <= 0:
        raise DomainError(
            f"parameter counts must be positive, got {teacher_params} and {student_params}")
    return teacher_params / student_params


def remaining_parameters(masks, biases) -> int:
    """Surviving weights plus (always dense) biases."""
    return sum(int(np.count_nonzero(m)) for m in masks) + sum(int(np.asarray(b).size) for b in biases)


def csr_bytes(mask: np.ndarray) -> int:
    """values + column indices (4 bytes per kept entry) + row pointers."""
    mask = np.asarray(mask)
    nnz = int(np.count_nonzero(mask))
    return 4 * nnz + 4 * nnz + 4 * (mask.shape[0] + 1)


def dense_bytes(shape) -> int:
    return 4 * math.prod(int(s) for s in shape)


def footprint(masks, biases) -> dict:
    """Per-layer best-of encoding plus totals over one network's layers."""
    per_layer, stored, dense_total = [], 0, 0
    for m in masks:
        m = np.asarray(m)
        d = dense_bytes(m.shape)
        c = csr_bytes(m)
        choice = "csr" if c < d else "dense"
        per_layer.append({"shape": list(m.shape), "nnz": int(np.count_nonzero(m)),
                          "dense_bytes": d, "csr_bytes": c, "stored": choice})
        stored += min(c, d)
        dense_total += d
    bias_cost = sum(4 * int(np.asarray(b).size) for b in biases)
    return {
        "per_layer": per_layer,
        "bias_bytes": bias_cost,
        "dense_bytes": dense_total + bias_cost,
        "stored_bytes": stored + bias_cost,
    }


def inference_time(forward, x: np.ndarray) -> float:
    """Median wall-clock seconds of 5 calls ``forward(x)``, after 3 warm-up calls."""
    samples = []
    for _ in range(8):
        t0 = time.perf_counter()
        forward(x)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples[3:]))


@dataclass
class SparsityReport:
    """One network's evaluation row, in a stable field order."""

    network: str
    test_error_pct: float
    per_layer_sparsity: list[float]
    r_s: float
    r_c: float
    dense_bytes: int
    csr_bytes: int
    footprint_compression: float
    inference_ms: float | None = None
    config: dict = field(default_factory=dict)


def _cell(value) -> str:
    """A table cell by the type of its value: text as it is, a per-layer list joined by
    dashes, a float to 6 significant digits, an int in full, and None empty."""
    if isinstance(value, list):
        return "-".join(f"{v:.6g}" for v in value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return "" if value is None else str(value)


def _inf_as_text(obj):
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _inf_as_text(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_inf_as_text(v) for v in obj]
    return obj


def to_json(obj, **options) -> str:
    """``json.dumps(obj, **options)`` that only writes strict JSON.

    An infinite float becomes the string ``"inf"`` or ``"-inf"``, as the
    markdown and csv reports print it; a NaN raises ``ValueError``.
    """
    return json.dumps(_inf_as_text(obj), allow_nan=False, **options)


def json_line(obj) -> str:
    """One compact line with sorted keys: the record format of ``*.jsonl`` files."""
    return to_json(obj, sort_keys=True, separators=(",", ":"))


def emit_report(reports, fmt: str = "json") -> str:
    """Render one document from a list of report rows.

    Numbers are printed to 6 significant digits in the tabular formats,
    straight from the stored fields; nothing is recomputed here.
    """
    rows = [asdict(r) for r in reports]
    if not rows:
        raise UsageError("no report rows to emit")
    as_choice(fmt, "report format", REPORT_FORMATS)

    if fmt == "json":
        return to_json(rows, indent=2)

    header = [f.name for f in fields(SparsityReport) if f.name != "config"]
    table = [[_cell(row[k]) for k in header] for row in rows]
    if fmt == "markdown":
        lines = [header, ["---" for _ in header]] + table
        return "\n".join("| " + " | ".join(cells) + " |" for cells in lines)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header + ["config"])
    for row, cells in zip(rows, table):
        writer.writerow(cells + [to_json(row["config"], sort_keys=True)])
    return buf.getvalue().rstrip("\n")
