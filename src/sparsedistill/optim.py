"""Adam, the training loop of both networks, the student's evaluation, and the low-data sweep.

:func:`fit` trains the teacher (:func:`.teacher.train_teacher`) and the student
(:func:`train_student`); each gives only its loss and its epoch record.  Given a log
directory, it writes ``session.jsonl`` (one metadata line, then one line per epoch), which is
byte-identical across runs with the same inputs wherever it is written, and ``timing.jsonl``,
the wall-clock numbers, which may differ run to run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .autograd import Tensor
from .checkpoint import parse_arch
from .data import Dataset, batch_iter, subset_indices
from .errors import (ConsistencyError, TrainingError, UsageError, as_choice, as_distinct,
                     as_int, as_real)
from .losses import LossConfig, make_bsr_context, teacher_inputs, total_loss
from .metrics import (SparsityReport, compression_ratio, footprint, inference_time, json_line,
                      per_layer_sparsity_pct, remaining_parameters, sparsity_ratio, top1_error)
from .student import StudentNet, compact, init_student, prune_masks
from .tensor import ACTIVATIONS, ELEMENT_BLOCK, RngStream, dense_forward

__all__ = ["Adam", "StudentTrainConfig", "fit", "train_student", "evaluate_student",
           "report_student", "lowdata_sweep", "summarize_sweep"]


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and offset, Kingma and Ba's defaults


class Adam(object):
    """Adam with bias correction; updates parameter arrays in place."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros(p.data.size) for p in self.params]  # flat, row-major
        self._v = [np.zeros(p.data.size) for p in self.params]
        self._scratch = np.empty((2, ELEMENT_BLOCK))

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """Update in blocks of ``ELEMENT_BLOCK`` elements: the unblocked ufuncs, order and bits."""
        self.t += 1
        c1, c2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            if not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient in parameter {i}", param=i)
            data, grad = p.data.reshape(-1), p.grad.reshape(-1)
            for lo in range(0, data.size, ELEMENT_BLOCK):
                g, m, v, x = (y[lo:lo + ELEMENT_BLOCK] for y in (grad, self._m[i], self._v[i], data))
                a, b = self._scratch[:, :len(g)]
                m *= BETA1
                m += np.multiply(g, 1.0 - BETA1, out=a)
                v *= BETA2
                v += np.multiply(np.square(g, out=a), 1.0 - BETA2, out=a)
                np.multiply(np.divide(m, c1, out=a), self.lr, out=a)
                np.add(np.sqrt(np.divide(v, c2, out=b), out=b), EPS, out=b)
                x -= np.divide(a, b, out=a)
            if not p.data.flags.c_contiguous:  # then reshape copied it: write the copy back
                p.data[...] = data.reshape(p.data.shape)


@dataclass
class StudentTrainConfig:
    arch: list[int] = field(default_factory=lambda: [784, 500, 50, 10])
    epochs: int = 100
    batch_size: int = 512
    lr: float = 1e-3
    seed: int = 0
    tau: float = 3.0
    activation: str = "relu"
    log_sigma2_init: float = -8.0
    grad_clip: float | None = None

    def __post_init__(self):
        self.arch = parse_arch(self.arch)
        check_schedule(self)
        self.tau = as_real(self.tau, "tau", inf=True)
        self.log_sigma2_init = as_real(self.log_sigma2_init, "log_sigma2_init")
        if self.grad_clip is not None:
            self.grad_clip = as_real(self.grad_clip, "grad clip", 0, strict=True)


def check_schedule(cfg) -> None:
    """Check the fields both networks' configs share, storing each in its canonical type."""
    cfg.epochs = as_int(cfg.epochs, "epochs", 1)
    cfg.batch_size = as_int(cfg.batch_size, "batch size", 1)
    cfg.lr = as_real(cfg.lr, "lr", 0, strict=True)
    cfg.seed = as_int(cfg.seed, "seed", 0)
    cfg.activation = as_choice(cfg.activation, "activation", ACTIVATIONS)


def _clip_global_norm(params, max_norm: float):
    """Scale all gradients together so their joint l2 norm is at most max_norm."""
    grads = [p.grad for p in params if p.grad is not None]
    norm = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads))
    if norm > max_norm and norm > 0:
        for g in grads:
            g *= max_norm / norm


def fit(params: list[Tensor], ds: Dataset, cfg, step, record, *, grad_clip: float | None = None,
        log_dir=None, meta=None) -> list[dict]:
    """Train ``params`` in place with :class:`Adam` for ``cfg.epochs`` epochs over ``ds`` in
    batches shuffled by ``(cfg.seed, epoch)``; returns the per-epoch records.

    ``step(xb, yb, idx, epoch, i)`` gives batch ``i``'s loss node and a part to keep; a
    non-finite loss raises :class:`TrainingError`.  Then zero-grad, backward, the optional
    ``grad_clip`` and the Adam step.  ``record(epoch, parts)`` makes the epoch's record from its
    parts in step order.  ``log_dir`` gets ``session.jsonl`` and ``timing.jsonl``."""
    opt = Adam(params, lr=cfg.lr)
    records, timing = [], []
    for epoch in range(cfg.epochs):
        t0 = perf_counter()
        parts = []
        for i, (xb, yb, idx) in enumerate(batch_iter(ds, cfg.batch_size,
                                                     shuffle_seed=(cfg.seed, epoch))):
            loss, part = step(xb, yb, idx, epoch, i)
            if not np.isfinite(loss.item()):
                raise TrainingError(f"loss diverged at epoch {epoch} step {i}", epoch=epoch, batch=i)
            opt.zero_grad()
            loss.backward()
            if grad_clip is not None:
                _clip_global_norm(params, grad_clip)
            opt.step()
            parts.append(part)
        records.append(record(epoch, parts))
        timing.append({"epoch": epoch, "seconds": perf_counter() - t0})
    if log_dir is not None:
        Path(log_dir).mkdir(parents=True, exist_ok=True)
        for name, lines in (("session", [meta(), *records]), ("timing", timing)):
            Path(log_dir, f"{name}.jsonl").write_text("".join(json_line(r) + "\n" for r in lines))
    return records


def train_student(ds: Dataset, teacher_logits: np.ndarray | None,
                  loss_cfg: LossConfig, cfg: StudentTrainConfig, *,
                  teacher_weights=None, test_ds: Dataset | None = None,
                  log_dir=None):
    """Train a student against cached teacher logits; returns ``(net, records)``.

    ``teacher_logits``, row-aligned with ``ds``, are needed when the hint weight is non-zero,
    and ``teacher_weights`` when the group weight is (:func:`.losses.teacher_inputs`)."""
    if teacher_logits is not None and len(teacher_logits) != len(ds):
        raise ConsistencyError(
            f"{len(teacher_logits)} cached logit rows for {len(ds)} training rows")
    needs = teacher_inputs(loss_cfg, rows=teacher_logits, weights=teacher_weights)

    net = init_student(cfg.arch, cfg.seed, cfg.activation, cfg.log_sigma2_init)
    param_ts = [tuple(Tensor(a, requires_grad=True) for a in (l.theta, l.log_sigma2, l.bias))
                for l in net.layers]
    bsr_ctx = None if "weights" not in needs else make_bsr_context(
        teacher_weights, [l.theta.shape for l in net.layers], loss_cfg.bsr_variant, loss_cfg.q)
    part_keys = ("ce", "hint", "kl", "bsr", "total")

    def step(xb, yb, idx, epoch, i):
        rows = None if teacher_logits is None else teacher_logits[idx]
        return total_loss(param_ts, xb, yb, rows, loss_cfg, epoch=epoch, n_train=len(ds),
                          bsr_ctx=bsr_ctx, rng=RngStream(cfg.seed).child(5, epoch, i),
                          activation=cfg.activation)

    def record(epoch, parts):
        sums = dict.fromkeys(part_keys, 0.0)
        for p in parts:  # += in step order: sum() would compensate, and move the bits
            for k in part_keys:
                sums[k] += p[k]
        out = {"epoch": epoch, "lambda_v_eff": parts[-1]["lambda_v_eff"] if parts else 0.0}
        out.update({k: sums[k] / max(len(parts), 1) for k in part_keys})
        out.update((k, v) for k, v in evaluate_student(net, test_ds, cfg.tau).items() if k != "tau")
        return out

    records = fit([t for triple in param_ts for t in triple], ds, cfg, step, record,
                  grad_clip=cfg.grad_clip, log_dir=log_dir,
                  meta=lambda: {"kind": "train_session", "arch": list(net.arch), "n_train": len(ds),
                                "loss": asdict(loss_cfg), "train": asdict(cfg)})
    return net, records


def evaluate_student(net: StudentNet, ds: Dataset | None, tau: float) -> dict:
    """Deterministic pruned-network metrics; the error needs a dataset ``ds``."""
    return _score(net, ds, tau)[0]


def _score(net: StudentNet, ds: Dataset | None, tau: float):
    """``(metrics, masks, forward)``: ``forward(x)`` runs the compacted layers; None without ``ds``."""
    tau = as_real(tau, "tau", inf=True)
    masks = prune_masks(net, tau)
    out = {"per_layer_sparsity": per_layer_sparsity_pct(masks), "r_s": sparsity_ratio(masks),
           "tau": tau}
    if ds is None:
        return out, masks, None
    weights, biases, cols = compact(net, masks)

    def forward(x):
        return dense_forward(x, weights, biases, net.activation, cols)

    out["test_error_pct"] = 100.0 * top1_error(forward(ds.images), ds.labels)
    return out, masks, forward


def report_student(net: StudentNet, tau: float, test_ds: Dataset, *, teacher=None,
                   config: dict | None = None, timed_batch: int | None = None) -> SparsityReport:
    """The student's report row at ``tau``, pruned and compacted once.  Its baseline is the
    dense ``teacher`` (a :class:`.teacher.DenseMLP`), else the unpruned student;
    ``timed_batch`` times the forward pass over that many test rows into ``inference_ms``."""
    if timed_batch is not None and as_int(timed_batch, "batch size", 1) > len(test_ds):
        raise UsageError(f"batch size {timed_batch} is outside the {len(test_ds)} rows of the test set")
    scored, masks, forward = _score(net, test_ds, tau)
    biases = [l.bias for l in net.layers]
    stored = footprint(masks, biases)["stored_bytes"]
    pairs = ([(l.theta, l.bias) for l in net.layers] if teacher is None
             else zip(teacher.weights, teacher.biases))
    baseline_params = sum(w.size + b.size for w, b in pairs)
    report = SparsityReport(
        network="-".join(str(w) for w in net.arch),
        test_error_pct=scored["test_error_pct"],
        per_layer_sparsity=scored["per_layer_sparsity"],
        r_s=scored["r_s"],
        r_c=compression_ratio(baseline_params, remaining_parameters(masks, biases)),
        dense_bytes=4 * baseline_params,
        csr_bytes=stored,
        footprint_compression=4 * baseline_params / stored,
        config={**(config or {}), **({} if timed_batch is None else {"batch": timed_batch}),
                "compression_baseline": "self" if teacher is None else "teacher"},
    )
    if timed_batch is not None:
        report.inference_ms = 1000.0 * inference_time(forward, test_ds.images[:timed_batch])
    return report


def lowdata_sweep(train_ds: Dataset, test_ds: Dataset, teacher_logits: np.ndarray,
                  loss_cfg: LossConfig, cfg: StudentTrainConfig,
                  sizes, seeds, *, teacher_weights=None) -> list[dict]:
    """Train a distilled and a teacher-free student per (subset size, seed) pair.

    Subsets are stratified, so every class keeps its share even at small
    sizes.  The KL weight ceiling tracks the subset size whenever
    ``loss_cfg.lambda_v_max`` is None.  Two rows come out of every pair:
    ``hint`` True trained with ``loss_cfg``, and ``hint`` False with the hint
    and group weights zeroed and no teacher logits or weights, the
    teacher-free Bayesian baseline.  A repeated size or seed raises :class:`UsageError`.
    """
    sizes, seeds = as_distinct(sizes, "size"), as_distinct(seeds, "seed")
    results = []
    off_cfg = replace(loss_cfg, lambda_t=0.0, lambda_g=0.0)
    for size in sizes:
        for seed in seeds:
            idx = subset_indices(train_ds, size, seed)
            sub = train_ds.take(idx)
            run_cfg = StudentTrainConfig(**{**asdict(cfg), "seed": seed})
            arms = ((True, loss_cfg, teacher_logits[idx], teacher_weights),
                    (False, off_cfg, None, None))
            for hint, lcfg, logits, weights in arms:
                net, _ = train_student(sub, logits, lcfg, run_cfg, teacher_weights=weights)
                scored = evaluate_student(net, test_ds, cfg.tau)
                results.append({"size": int(size), "seed": int(seed), "hint": hint,
                                "test_error_pct": scored["test_error_pct"],
                                "r_s": scored["r_s"]})
    return results


def summarize_sweep(rows: list[dict]) -> list[dict]:
    """Mean and population standard deviation of error, and mean ``r_s``, per (size, hint) group."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["size"], row["hint"]), []).append(row)
    out = []
    for (size, hint), members in sorted(groups.items()):
        errs = [r["test_error_pct"] for r in members]
        out.append({"size": size, "hint": hint, "n": len(errs),
                    "mean_test_error_pct": float(np.mean(errs)),
                    "std_test_error_pct": float(np.std(errs)),
                    "mean_r_s": float(np.mean([r["r_s"] for r in members]))})
    return out
