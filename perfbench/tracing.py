"""Traced run: per-module numbers from outside the program.

Two parts, both built only from the package's public calls:

1. A replica of the workload's training loop (``train_student`` or
   ``train_teacher``) with a span around every call into a module.  After
   one warm-up call it alternates with the untraced call on the same
   seed, switching which runs first in each pair; the replica's
   final weights must be bit-equal to the untraced call's and its epoch
   records equal, and the time between the two is the tracing overhead.
2. A term pass.  On one fixed batch and fixed parameters it times each
   loss term's forward and backward alone (a single ``backward()`` cannot
   be split from outside), plus the set-up, evaluation, cache and
   footprint entry points.  The weighted term values must add up to
   ``total_loss``'s ``parts["total"]``.

Spans stay in memory and are written to ``.perfbench_out/`` when the run
ends, with self time derived.  A failing fidelity check sets
``trace.fidelity_ok`` to 0; a module whose entry point is gone has its
metrics left out with the reason in the report.  Neither fails the run.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

from sparsedistill import data, losses, metrics, optim, student, teacher
from sparsedistill.tensor import RngStream

import harness
from inputs import split_paths

PER_MODULE_UNITS = {
    "tensor.noise_ms": "ms",
    "data.batch_ms": "ms",
    "data.load_idx_ms": "ms",
    "student.net_fwd_ms": "ms",
    "student.net_bwd_ms": "ms",
    **{f"student.kl_{d}_ms.l{i}": "ms" for d in ("fwd", "bwd") for i in range(3)},
    "student.eval_fwd_ms": "ms",
    "student.prune_ms": "ms",
    "student.load_ms": "ms",
    "losses.ce_ms": "ms",
    "losses.hint_ms": "ms",
    "losses.group_fwd_ms": "ms",
    "losses.group_bwd_ms": "ms",
    "losses.total_fwd_ms": "ms",
    "losses.bsr_context_ms": "ms",
    "autograd.backward_ms": "ms",
    "autograd.graph_nodes": "count",
    "optim.step_ms_p50": "ms",
    "optim.step_ms_p90": "ms",
    "optim.adam_ms": "ms",
    "optim.epoch_eval_ms": "ms",
    "teacher.fwd_ms": "ms",
    "teacher.bwd_ms": "ms",
    "teacher.probe_eval_ms": "ms",
    "teacher.precompute_ms": "ms",
    "teacher.load_ms": "ms",
    "metrics.footprint_ms": "ms",
    "metrics.stored_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.unaccounted_ms": "ms",
    "trace.kl_group_share_pct": "%",
    "trace.fidelity_ok": "bool",
}

REPLICA_SHARE = 0.6      # of --seconds; the term pass gets the rest
_END = object()


class Tracer:
    """In-memory spans: name, start, end and the index of the enclosing span."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def iterate(self, name: str, iterable):
        """Yield from ``iterable`` with a span around each ``next``."""
        it = iter(iterable)
        while True:
            with self.span(name):
                item = next(it, _END)
            if item is _END:
                self.spans.pop()      # the exhausted call fetched nothing
                return
            yield item

    def table(self) -> list[dict]:
        """Spans with durations and self time (duration minus direct children)."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ms[parent] += 1000.0 * (end - start)
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "ms": 1000.0 * (end - start), "self_ms": 1000.0 * (end - start) - child_ms[i]}
                for i, (name, start, end, parent) in enumerate(self.spans)]

    def ms(self, name: str) -> list[float]:
        return [1000.0 * (end - start) for n, start, end, _ in self.spans if n == name]


def summarize(rows: list[dict]) -> dict:
    out: dict = {}
    for row in rows:
        entry = out.setdefault(row["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += row["ms"]
        entry["self_ms"] += row["self_ms"]
    return out


def graph_nodes(root) -> int:
    """Nodes reachable from ``root`` through the graph's parent links."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in getattr(stack.pop(), "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _tensor_class():
    from sparsedistill.autograd import Tensor
    return Tensor


def mlp_graph(weight_ts, bias_ts, x, activation: str):
    """The teacher's training forward, built from public graph operations."""
    out = _tensor_class()(x)
    for i, (w, b) in enumerate(zip(weight_ts, bias_ts)):
        out = out @ w + b
        if i < len(weight_ts) - 1:
            out = out.relu() if activation == "relu" else out.sigmoid()
    return out


# -- replicas of the training loops --------------------------------------------------------


def replica_student(tr: Tracer, ds, teacher_logits, loss_cfg, cfg, teacher_weights=None,
                    test_ds=None):
    """``train_student`` rebuilt from public calls, with spans."""
    Tensor = _tensor_class()
    net = student.init_student(cfg.arch, cfg.seed, cfg.activation, cfg.log_sigma2_init)
    param_ts = [(Tensor(l.theta, requires_grad=True), Tensor(l.log_sigma2, requires_grad=True),
                 Tensor(l.bias, requires_grad=True)) for l in net.layers]
    opt = optim.Adam([t for triple in param_ts for t in triple], lr=cfg.lr)
    bsr_ctx = None
    if loss_cfg.lambda_g != 0.0 and loss_cfg.bsr_variant is not None:
        bsr_ctx = losses.make_bsr_context(teacher_weights, [l.theta.shape for l in net.layers],
                                          loss_cfg.bsr_variant, loss_cfg.q)
    keys = ("ce", "hint", "kl", "bsr", "total")
    records = []
    for epoch in range(cfg.epochs):
        with tr.span("epoch"):
            sums, lam_v, steps = dict.fromkeys(keys, 0.0), 0.0, 0
            batches = data.batch_iter(ds, cfg.batch_size, shuffle_seed=(cfg.seed, epoch))
            for xb, yb, idx in tr.iterate("data.batch", batches):
                with tr.span("optim.step"):
                    rows = None if teacher_logits is None else teacher_logits[idx]
                    noise = RngStream(cfg.seed).child(5, epoch, steps)
                    with tr.span("losses.total_fwd"):
                        loss, parts = losses.total_loss(
                            param_ts, xb, yb, rows, loss_cfg, epoch=epoch, n_train=len(ds),
                            bsr_ctx=bsr_ctx, rng=noise, activation=cfg.activation)
                    if not np.isfinite(parts["total"]):
                        raise FloatingPointError(f"loss diverged at epoch {epoch} step {steps}")
                    with tr.span("optim.zero_grad"):
                        opt.zero_grad()
                    with tr.span("autograd.backward"):
                        loss.backward()
                    with tr.span("optim.adam"):
                        opt.step()
                    for k in keys:
                        sums[k] += parts[k]
                    lam_v = parts["lambda_v_eff"]
                    steps += 1
            record = {"epoch": epoch, "lambda_v_eff": lam_v}
            record.update({k: sums[k] / max(steps, 1) for k in keys})
            with tr.span("optim.epoch_eval"):
                scored = optim.evaluate_student(net, test_ds, cfg.tau)
            record.update({k: scored[k] for k in ("r_s", "per_layer_sparsity", "test_error_pct")})
            records.append(record)
    return net, records


def replica_teacher(tr: Tracer, ds, cfg, test_ds):
    """``train_teacher`` rebuilt from public calls, with spans."""
    Tensor = _tensor_class()
    net = teacher.init_mlp(cfg.arch, cfg.seed, cfg.activation)
    weight_ts = [Tensor(w, requires_grad=True) for w in net.weights]
    bias_ts = [Tensor(b, requires_grad=True) for b in net.biases]
    opt = optim.Adam(weight_ts + bias_ts, lr=cfg.lr)
    probe = min(len(ds), 10000)
    records = []
    for epoch in range(cfg.epochs):
        with tr.span("epoch"):
            values = []
            batches = data.batch_iter(ds, cfg.batch_size, shuffle_seed=(cfg.seed, epoch))
            for xb, yb, _ in tr.iterate("data.batch", batches):
                with tr.span("optim.step"):
                    with tr.span("losses.total_fwd"):
                        loss = losses.cross_entropy_node(
                            mlp_graph(weight_ts, bias_ts, xb, cfg.activation), yb)
                        value = loss.item()
                    if not np.isfinite(value):
                        raise FloatingPointError(f"teacher loss diverged at epoch {epoch}")
                    with tr.span("optim.zero_grad"):
                        opt.zero_grad()
                    with tr.span("autograd.backward"):
                        loss.backward()
                    with tr.span("optim.adam"):
                        opt.step()
                    values.append(value)
            with tr.span("teacher.probe_eval"):
                train_error = metrics.top1_error(teacher.forward_logits(net, ds.images[:probe]),
                                                 ds.labels[:probe])
            record = {"epoch": epoch, "train_loss": float(np.mean(values)),
                      "train_error": float(train_error)}
            with tr.span("optim.epoch_eval"):
                record["test_error"] = float(metrics.top1_error(
                    teacher.forward_logits(net, test_ds.images), test_ds.labels))
            records.append(record)
    return net, records


# -- the traced run -----------------------------------------------------------------------


class TermPass:
    """Times single entry points; a missing or failing one is recorded as absent."""

    def __init__(self, ctx, budget_s: float, n_items: int):
        self.ctx = ctx
        self.item_budget = budget_s / n_items
        self.values: dict = {}
        self.absent: dict = {}

    def _loop(self, names, fn, min_reps: int = 3):
        """``(ms, result)`` of ``fn()`` in a closed loop, or None if it raised."""
        samples: list = []
        start = time.perf_counter()
        try:
            while len(samples) < min_reps or time.perf_counter() - start < self.item_budget:
                self.ctx.tally.attempted += 1
                t0 = time.perf_counter()
                out = fn()
                samples.append((1000.0 * (time.perf_counter() - t0), out))
        except Exception as exc:  # noqa: BLE001 - an entry point that is gone is reported
            for name in names:
                self.absent[name] = f"{type(exc).__name__}: {exc}"
            return None
        return samples

    def time(self, name: str, fn):
        """Median ms of ``fn()``; returns its last result."""
        samples = self._loop([name], fn)
        if samples is None:
            return None
        self.values[name] = float(np.median([ms for ms, _ in samples]))
        return samples[-1][1]

    def time_fwd_bwd(self, fwd_name: str, bwd_name: str, build) -> None:
        """Median ms of building the scalar graph ``build()`` and of its backward, apart."""
        samples = self._loop([fwd_name, bwd_name], lambda: fwd_bwd(build))
        if samples is not None:
            self.values[fwd_name] = float(np.median([out[1] for _, out in samples]))
            self.values[bwd_name] = float(np.median([out[2] for _, out in samples]))


def fwd_bwd(build):
    """Build a scalar graph and backpropagate it; returns it and both times in ms."""
    t0 = time.perf_counter()
    out = build()
    t1 = time.perf_counter()
    out.backward()
    t2 = time.perf_counter()
    return out, 1000.0 * (t1 - t0), 1000.0 * (t2 - t1)


def measure_traced(ctx) -> tuple[dict, dict, dict]:
    """Per-module metrics, their units, and the report extras of one traced run."""
    w, s, seed = ctx.workload, ctx.shapes, ctx.train_seed
    train, val, test = ctx.split("train"), ctx.split("val"), ctx.split("test")
    tnet_loaded = teacher.load_checkpoint(ctx.path("teacher.ckpt"))
    cache = teacher.load_logit_cache(ctx.path("cache.ckpt"), teacher.payload_digest(tnet_loaded))
    problems: list[str] = []
    tr = Tracer()

    # 1. replica against the untraced call, alternating which runs first
    if w.kind == "teacher":
        t_cfg = ctx.teacher_config()
        term_cfg = losses.resolve_variant("st-svd", losses.LossConfig(warmup_epochs=0))
        untraced = lambda: teacher.train_teacher(train, t_cfg, test_ds=val)  # noqa: E731
        traced = lambda: replica_teacher(tr, train, t_cfg, val)  # noqa: E731
        digest, check = teacher.payload_digest, harness.teacher_train_check(ctx, {})
    else:
        term_cfg, s_cfg = ctx.loss_config(), ctx.student_config()
        rows = None if term_cfg.lambda_t == 0.0 else cache.logits
        tw = tnet_loaded.weights if term_cfg.lambda_g != 0.0 else None
        untraced = lambda: optim.train_student(train, rows, term_cfg, s_cfg,  # noqa: E731
                                               teacher_weights=tw, test_ds=val)
        traced = lambda: replica_student(tr, train, rows, term_cfg, s_cfg,  # noqa: E731
                                         teacher_weights=tw, test_ds=val)
        digest, check = student.student_digest, harness.student_train_check(ctx, {})
    ctx.tally.run("train", untraced, check)     # warm-up; also pins the first result
    ratios, replica_net = [], None
    start = time.perf_counter()
    while not ratios or time.perf_counter() - start < REPLICA_SHARE * ctx.seconds:
        replica_first = len(ratios) % 2 == 1
        if not replica_first:
            plain_s, plain = ctx.tally.run("train", untraced, check)
        try:
            t0 = time.perf_counter()
            replica_net, replica_records = traced()
            traced_s = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - tracing must not fail the run
            problems.append(f"replica failed: {type(exc).__name__}: {exc}")
            break
        if replica_first:
            plain_s, plain = ctx.tally.run("train", untraced, check)
        if plain is None:
            break
        if digest(replica_net) != digest(plain[0]) or replica_records != plain[1]:
            problems.append("replica weights or records differ from the untraced call")
        ratios.append(100.0 * (traced_s / plain_s - 1.0))
    if replica_net is None:
        problems.append("no replica finished")

    terms = TermPass(ctx, (1.0 - REPLICA_SHARE) * ctx.seconds, 18)
    values = terms.values
    steps = tr.ms("optim.step")
    if steps:
        table = tr.table()
        step_ids = {i for i, r in enumerate(table) if r["name"] == "optim.step"}
        values.update({
            "data.batch_ms": float(np.median(tr.ms("data.batch"))),
            "losses.total_fwd_ms": float(np.median(tr.ms("losses.total_fwd"))),
            "autograd.backward_ms": float(np.median(tr.ms("autograd.backward"))),
            "optim.adam_ms": float(np.median(tr.ms("optim.adam"))),
            "optim.step_ms_p50": float(np.percentile(steps, 50)),
            "optim.step_ms_p90": float(np.percentile(steps, 90)),
            "optim.epoch_eval_ms": float(np.median(tr.ms("optim.epoch_eval"))),
            "trace.unaccounted_ms": float(np.median([table[i]["self_ms"] for i in step_ids])),
            "trace.overhead_pct": float(np.median(ratios)) if ratios else 0.0,
        })

    # 2. term pass on one fixed batch and fixed parameters
    if w.kind == "student" and replica_net is not None:
        snet = replica_net
    else:
        snet = student.init_student(list(s.student_arch), seed)
    tnet = replica_net if w.kind == "teacher" and replica_net is not None else tnet_loaded
    xb, yb, idx = next(data.batch_iter(train, s.student_batch, shuffle_seed=(seed, 0)))
    rows_b = cache.logits[idx] if w.kind != "teacher" else teacher.forward_logits(tnet, xb)
    eval_net = snet if w.kind == "student" else student.load_student(ctx.path("student.ckpt"))[0]
    for part in (lambda: term_pass(terms, ctx, term_cfg, snet, tnet, xb, yb, rows_b, problems),
                 lambda: module_pass(terms, ctx, eval_net, test, tnet, train)):
        try:
            part()
        except Exception as exc:  # noqa: BLE001 - a missing module is reported, not fatal
            problems.append(f"term pass stopped: {type(exc).__name__}: {exc}")

    included = [f"student.kl_{d}_ms.l{i}" for d in ("fwd", "bwd") for i in range(3)
                if w.kind != "teacher" and term_cfg.kl_variant is not None]
    if w.kind != "teacher" and term_cfg.lambda_g != 0.0:
        included += ["losses.group_fwd_ms", "losses.group_bwd_ms"]
    if "optim.step_ms_p50" in values:
        share = sum(values.get(k, 0.0) for k in included)
        values["trace.kl_group_share_pct"] = 100.0 * share / values["optim.step_ms_p50"]
    values["trace.fidelity_ok"] = 0.0 if problems else 1.0

    table = tr.table()
    harness.OUT_ROOT.mkdir(exist_ok=True)
    spans_file = harness.OUT_ROOT / f"spans-{w.name}-s{ctx.seed}.json"
    spans_file.write_text(json.dumps(table) + "\n")
    absent = {k: terms.absent.get(k, "; ".join(problems) or "not measured")
              for k in PER_MODULE_UNITS if k not in values}
    ctx.samples.update(replica_pairs=len(ratios), replica_steps=len(steps))
    extra = {"trace_problems": problems, "absent": absent, "spans": summarize(table),
             "spans_file": str(spans_file.relative_to(harness.ROOT))}
    return values, PER_MODULE_UNITS, extra


def term_pass(terms: TermPass, ctx, cfg, snet, tnet, xb, yb, rows, problems: list) -> None:
    """Each loss term's forward and backward alone, and the sum check against total_loss."""
    Tensor = _tensor_class()
    s = ctx.shapes
    noise = RngStream(ctx.train_seed).child(5, 0, 0)
    widths = [l.theta.shape[1] for l in snet.layers]
    eps = terms.time("tensor.noise_ms",
                     lambda: [noise.child(i).normal(xb.shape[0], h) for i, h in enumerate(widths)])
    params = [(Tensor(l.theta, requires_grad=True), Tensor(l.log_sigma2, requires_grad=True),
               Tensor(l.bias, requires_grad=True)) for l in snet.layers]
    kl_node = student.kl_vbd_node if cfg.kl_variant == "vbd" else student.kl_svd_node
    bsr_ctx = losses.make_bsr_context(tnet.weights, [l.theta.shape for l in snet.layers],
                                      cfg.bsr_variant or "l1lq", cfg.q)

    logits_fn = getattr(student, "student_logits_node", None)
    if eps is None or logits_fn is None:
        terms.absent["student.net_fwd_ms"] = terms.absent["student.net_bwd_ms"] = \
            "no student_logits graph builder"
        logits = None
    else:
        terms.time_fwd_bwd("student.net_fwd_ms", "student.net_bwd_ms",
                           lambda: logits_fn(params, xb, eps, snet.activation).sum())
        logits = logits_fn(params, xb, eps, snet.activation).data
    value: dict = {}
    if logits is not None:
        def ce_build():
            node = losses.cross_entropy_node(Tensor(logits, requires_grad=True), yb)
            value["ce"] = node.item()
            return node

        def hint_build():
            node = losses.hint_node(Tensor(logits, requires_grad=True), rows, cfg.temperature,
                                    cfg.hint_reverse)
            value["hint"] = node.item()
            return node
        terms.time("losses.ce_ms", lambda: fwd_bwd(ce_build))
        terms.time("losses.hint_ms", lambda: fwd_bwd(hint_build))
    for i, (theta_t, ls2_t, _) in enumerate(params):
        def kl_build(theta_t=theta_t, ls2_t=ls2_t, i=i):
            node = kl_node(theta_t, ls2_t)
            value[f"kl{i}"] = node.item()
            return node
        terms.time_fwd_bwd(f"student.kl_fwd_ms.l{i}", f"student.kl_bwd_ms.l{i}", kl_build)

    def group_build():
        node = losses.bsr_node(bsr_ctx, [theta_t for theta_t, _, _ in params])
        value["group"] = node.item()
        return node
    terms.time_fwd_bwd("losses.group_fwd_ms", "losses.group_bwd_ms", group_build)

    if ctx.workload.kind == "teacher":
        t_ws = [Tensor(w, requires_grad=True) for w in tnet.weights]
        t_bs = [Tensor(b, requires_grad=True) for b in tnet.biases]
        tb = slice(0, s.teacher_batch)

        def teacher_build():
            return losses.cross_entropy_node(mlp_graph(t_ws, t_bs, xb[tb], tnet.activation), yb[tb])
        terms.values["autograd.graph_nodes"] = float(graph_nodes(teacher_build()))
    try:
        loss, parts = losses.total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=s.n_train,
                                        bsr_ctx=bsr_ctx if cfg.lambda_g != 0.0 else None,
                                        rng=RngStream(ctx.train_seed).child(5, 0, 0),
                                        activation=snet.activation)
    except Exception as exc:  # noqa: BLE001 - reported, not fatal
        problems.append(f"total_loss failed: {type(exc).__name__}: {exc}")
        return
    if ctx.workload.kind != "teacher":
        terms.values["autograd.graph_nodes"] = float(graph_nodes(loss))
    if not all(k in value for k in ("ce", "hint", "kl0", "kl1", "kl2", "group")):
        problems.append("a term could not be evaluated for the sum check")
        return
    total = value["ce"]
    if cfg.lambda_t != 0.0 and rows is not None:
        total += value["hint"] * cfg.lambda_t
    if cfg.kl_variant is not None and parts["lambda_v_eff"] != 0.0:
        total += (value["kl0"] + value["kl1"] + value["kl2"]) * parts["lambda_v_eff"]
    if cfg.lambda_g != 0.0:
        total += value["group"] * cfg.lambda_g
    if not np.isclose(total, parts["total"], rtol=1e-12, atol=0.0) or value["ce"] != parts["ce"]:
        problems.append(f"weighted terms sum to {total!r}, total_loss says {parts['total']!r}")


def module_pass(terms: TermPass, ctx, eval_net, eval_ds, tnet, train) -> None:
    """Set-up, evaluation, cache and footprint entry points, each alone."""
    s, work = ctx.shapes, ctx.inputs
    tau = s.tau
    terms.time("data.load_idx_ms", lambda: data.load_idx(*split_paths(work, "train")))
    terms.time("student.load_ms", lambda: student.load_student(work / "student.ckpt"))

    def load_teacher():
        net = teacher.load_checkpoint(work / "teacher.ckpt")
        return teacher.load_logit_cache(work / "cache.ckpt", teacher.payload_digest(net))
    terms.time("teacher.load_ms", load_teacher)
    shapes = [l.theta.shape for l in eval_net.layers]
    terms.time("losses.bsr_context_ms",
               lambda: losses.make_bsr_context(tnet.weights, shapes, "l1lq", 2.0))
    masks = terms.time("student.prune_ms", lambda: student.prune_masks(eval_net, tau))
    if masks is None:
        return
    terms.time("student.eval_fwd_ms", lambda: [
        student.student_logits(eval_net, eval_ds.images[i:i + 4096], masks=masks)
        for i in range(0, len(eval_ds), 4096)])
    biases = [l.bias for l in eval_net.layers]
    fp = terms.time("metrics.footprint_ms", lambda: metrics.footprint(masks, biases))
    if fp is not None:
        terms.values["metrics.stored_bytes"] = float(fp["stored_bytes"])
    terms.time("teacher.precompute_ms", lambda: teacher.precompute_logits(tnet, train))
    probe = min(len(train), 10000)
    terms.time("teacher.probe_eval_ms", lambda: metrics.top1_error(
        teacher.forward_logits(tnet, train.images[:probe]), train.labels[:probe]))
    Tensor = _tensor_class()
    t_ws = [Tensor(w, requires_grad=True) for w in tnet.weights]
    t_bs = [Tensor(b, requires_grad=True) for b in tnet.biases]
    xb, yb = train.images[:s.teacher_batch], train.labels[:s.teacher_batch]
    terms.time_fwd_bwd("teacher.fwd_ms", "teacher.bwd_ms", lambda: losses.cross_entropy_node(
        mlp_graph(t_ws, t_bs, xb, tnet.activation), yb))
