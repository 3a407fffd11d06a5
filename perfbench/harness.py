"""Workloads, closed-loop measurement and output checks of the benchmark.

One run is one process.  It takes the inputs generated from the seed
(made once per seed, in a child process) and times the program's set-up
calls several times.  Then it runs every timed operation as a closed
loop: the next operation starts only after the previous one returned and
passed its output check.  The operations are interleaved in cycles (one
training call, then the cache, eval and inference operations for their
shares of the cycle), so a slow spell of the machine falls on all of
them alike.  Checks that need whole artifacts (command-line runs,
checkpoint and cache round trips, an independent numpy reference) run
after the first cycle and count as operations too.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsedistill import cli, data, losses, metrics, optim, student, teacher

import inputs
from inputs import Shapes, split_paths

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS_ROOT = ROOT / ".perfbench_inputs"
KEEP_INPUTS = 16        # seeds whose inputs stay cached, about 37 MB each
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "final_loss": "nats",
    "test_error_pct": "%",
    "r_s": "ratio",
    "cache_rows_per_s": "rows/s",
    "eval_rows_per_s": "rows/s",
    "infer_b100_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


@dataclass(frozen=True)
class Workload:
    """What one workload trains, evaluates, and how it splits its time."""

    name: str
    kind: str                 # "student", "teacher" or "evaluate"
    variant: str | None       # student variant trained, None for the teacher
    shares: dict              # operation -> share of a cycle's time


WORKLOADS = {w.name: w for w in (
    Workload("distill-st-svd", "student", "st-svd",
             {"train": 0.6, "cache": 0.1, "eval": 0.15, "infer": 0.15}),
    Workload("distill-kd", "student", "kd",
             {"train": 0.6, "cache": 0.1, "eval": 0.15, "infer": 0.15}),
    Workload("teacher", "teacher", None,
             {"train": 0.6, "cache": 0.15, "eval": 0.15, "infer": 0.1}),
    Workload("evaluate", "evaluate", "simple",
             {"train": 0.2, "cache": 0.1, "eval": 0.4, "infer": 0.3}),
)}


# -- operation accounting ---------------------------------------------------------


class Tally:
    """Counts operations and the ones that raised or failed their output check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run(self, name, fn, check=None):
        """Time ``fn()``; returns ``(seconds, result)``, result None on an exception."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        problem = check(out) if check is not None else None
        if problem:
            self.failures.append((name, problem))
        return seconds, out

    def check(self, name, fn):
        """An untimed check: ``fn`` returns None when the outputs are right."""
        _, problem = self.run(name, fn)
        if problem:
            self.failures.append((name, problem))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- inputs and machine facts ---------------------------------------------------------


def input_dir(seed: int, smoke: bool) -> Path:
    """The generated inputs of ``seed``, made on first use and kept for later runs.

    Generation trains a teacher, so it takes seconds; every workload and
    every later run of the same seed reuses the directory, and the oldest
    are removed beyond ``KEEP_INPUTS``.  Its name holds a digest of the
    package and generator sources, so a code change makes fresh inputs.
    Generation runs in a child process, so it never counts toward peak
    RSS, and the directory appears by an atomic rename.
    """
    sources = sorted((ROOT / "src" / "sparsedistill").glob("*.py")) + [HERE / "inputs.py"]
    key = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    final = INPUTS_ROOT / f"{'smoke-' if smoke else ''}s{seed}-{key}"
    if (final / "inputs.json").is_file():
        return final
    partial = INPUTS_ROOT / f"partial-{os.getpid()}"
    shutil.rmtree(partial, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "inputs.py"), "--out", str(partial), "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr, timeout=300)
    try:
        partial.rename(final)
    except OSError:         # another run of the same seed got there first
        shutil.rmtree(partial, ignore_errors=True)
    kept = sorted((d for d in INPUTS_ROOT.iterdir() if d != final and not d.name.startswith("partial-")),
                  key=lambda d: d.stat().st_mtime)
    for old in kept[:max(0, len(kept) + 1 - KEEP_INPUTS)]:
        shutil.rmtree(old, ignore_errors=True)
    return final


def machine_facts(nproc: int) -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")}
    cpu = platform.processor()
    if not cpu:
        with contextlib.suppress(OSError):
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": nproc,
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": threads,
    }


# -- output references -------------------------------------------------------------------


def read_student_arrays(base) -> tuple[list, list, list]:
    """theta, bias and log_sigma2 per layer, parsed straight from a checkpoint's files."""
    fields = dict(line.split("=", 1) for line in Path(base).read_text().splitlines() if "=" in line)
    arch = [int(w) for w in fields["architecture"].split("-")]
    flat = np.fromfile(str(base) + ".bin", dtype="<f8")
    shapes = list(zip(arch[:-1], arch[1:]))
    thetas, biases, log_s2, pos = [], [], [], 0
    for k, h in shapes:
        thetas.append(flat[pos:pos + k * h].reshape(k, h))
        biases.append(flat[pos + k * h:pos + k * h + h])
        pos += k * h + h
    for k, h in shapes:
        log_s2.append(flat[pos:pos + k * h].reshape(k, h))
        pos += k * h
    if pos != flat.size:
        raise ValueError(f"{base}: payload holds {flat.size} doubles, arch needs {pos}")
    return thetas, biases, log_s2


def reference_predictions(arrays, x: np.ndarray, tau: float, chunk: int) -> np.ndarray:
    """Masked-dense ReLU forward in plain numpy; argmax per row."""
    thetas, biases, log_s2 = arrays
    weights = []
    for theta, ls2 in zip(thetas, log_s2):
        with np.errstate(divide="ignore"):
            log_alpha = np.clip(ls2 - np.log(theta * theta), -40.0, 40.0)
        weights.append(np.where((theta != 0.0) & (log_alpha <= tau), theta, 0.0))
    preds = []
    for i in range(0, len(x), chunk):
        h = x[i:i + chunk]
        for j, (w, b) in enumerate(zip(weights, biases)):
            h = h @ w + b
            if j < len(weights) - 1:
                h = np.maximum(h, 0.0)
        preds.append(np.argmax(h, axis=1))
    return np.concatenate(preds)


def error_pct(preds, labels) -> float:
    return 100.0 * float(np.mean(preds != labels))


def nonfinite(record: dict, keys) -> str | None:
    bad = [k for k in keys if not np.isfinite(record[k])]
    return f"epoch {record['epoch']}: non-finite {', '.join(bad)}" if bad else None


# -- one run --------------------------------------------------------------------------------


@dataclass
class Context:
    workload: Workload
    seed: int
    seconds: float
    shapes: Shapes
    inputs: Path            # generated inputs, shared and read-only
    work: Path              # this run's own outputs
    tally: Tally = field(default_factory=Tally)
    samples: dict = field(default_factory=dict)      # phase -> sample count
    train_seed: int = inputs.TRAIN_SEED

    def path(self, name: str) -> Path:
        return self.inputs / name

    def split(self, name: str) -> data.Dataset:
        return data.load_idx(*split_paths(self.inputs, name))

    def loss_config(self) -> losses.LossConfig:
        return losses.resolve_variant(self.workload.variant, losses.LossConfig(warmup_epochs=0))

    def student_config(self) -> optim.StudentTrainConfig:
        s = self.shapes
        return optim.StudentTrainConfig(arch=list(s.student_arch), epochs=s.student_epochs,
                                        batch_size=s.student_batch, seed=self.train_seed,
                                        tau=s.tau)

    def teacher_config(self) -> teacher.TeacherConfig:
        s = self.shapes
        return teacher.TeacherConfig(arch=list(s.teacher_arch), epochs=s.teacher_epochs,
                                     batch_size=s.teacher_batch, seed=self.train_seed)


def setup_calls(ctx: Context) -> dict:
    """The program's own set-up calls for the workload; returns what they loaded."""
    kind, s = ctx.workload.kind, ctx.shapes
    if kind == "teacher":
        return {"train": ctx.split("train"), "val": ctx.split("val"),
                "net0": teacher.init_mlp(list(s.teacher_arch), ctx.train_seed)}
    if kind == "evaluate":
        test = ctx.split("test")
        net, tau = student.load_student(ctx.path("student.ckpt"))
        return {"test": test, "student": net, "tau": tau,
                "tnet": teacher.load_checkpoint(ctx.path("teacher.ckpt"))}
    train, val = ctx.split("train"), ctx.split("val")
    tnet = teacher.load_checkpoint(ctx.path("teacher.ckpt"))
    cache = teacher.load_logit_cache(ctx.path("cache.ckpt"), teacher.payload_digest(tnet))
    cfg = ctx.loss_config()
    bsr_ctx = None
    if cfg.lambda_g != 0.0 and cfg.bsr_variant is not None:
        shapes = list(zip(s.student_arch[:-1], s.student_arch[1:]))
        bsr_ctx = losses.make_bsr_context(tnet.weights, shapes, cfg.bsr_variant, cfg.q)
    net0 = student.init_student(list(s.student_arch), ctx.train_seed)
    return {"train": train, "val": val, "tnet": tnet, "cache": cache, "bsr_ctx": bsr_ctx,
            "net0": net0}


def measure_setup(ctx: Context) -> tuple[float, dict]:
    """Median time of the set-up calls over ``setup_reps`` runs, and what they loaded."""
    samples, state = [], None
    for _ in range(ctx.shapes.setup_reps):
        seconds, out = ctx.tally.run("setup", lambda: setup_calls(ctx))
        samples.append(seconds)
        state = out or state
    ctx.samples["setup"] = len(samples)
    if state is None:
        raise RuntimeError("every set-up attempt failed: " + ctx.tally.failures[-1][1])
    return median(samples), state


def student_train_check(ctx: Context, first: dict):
    """Output check of one ``train_student`` call; ``first`` pins the first call's result."""
    variant = ctx.workload.variant
    keys = ("ce", "hint", "kl", "bsr", "total")

    def check(out):
        net, records = out
        if len(records) != ctx.shapes.student_epochs:
            return f"{len(records)} epoch records, expected {ctx.shapes.student_epochs}"
        for r in records:
            problem = nonfinite(r, keys)
            if problem:
                return problem
            if variant == "st-svd" and not (r["lambda_v_eff"] > 0 and r["kl"] != 0 and r["bsr"] != 0):
                return f"epoch {r['epoch']}: KL or group term inactive on st-svd"
            if variant in ("kd", "simple") and (r["kl"] != 0 or r["bsr"] != 0):
                return f"epoch {r['epoch']}: KL or group term ran on {variant}"
        digest = student.student_digest(net)
        if first.setdefault("digest", digest) != digest or first.setdefault("records", records) != records:
            return "train_student is not deterministic for a fixed seed"
        first.setdefault("net", net)
        return None
    return check


def teacher_train_check(ctx: Context, first: dict):
    def check(out):
        net, records = out
        if len(records) != ctx.shapes.teacher_epochs:
            return f"{len(records)} epoch records, expected {ctx.shapes.teacher_epochs}"
        for r in records:
            problem = nonfinite(r, ("train_loss", "train_error", "test_error"))
            if problem:
                return problem
        digest = teacher.payload_digest(net)
        if first.setdefault("digest", digest) != digest or first.setdefault("records", records) != records:
            return "train_teacher is not deterministic for a fixed seed"
        first.setdefault("net", net)
        return None
    return check


@dataclass
class Op:
    """One timed operation: a call, its output check, and its share of the run."""

    fn: object
    check: object
    share: float


class Timings(dict):
    """Operation name -> list of seconds, filled by closed-loop calls."""

    def __init__(self, tally: Tally):
        super().__init__()
        self.tally = tally

    def record(self, name: str, op: Op) -> float:
        seconds, _ = self.tally.run(name, op.fn, op.check)
        self.setdefault(name, []).append(seconds)
        return seconds

    def interleave(self, ops: dict, deadline: float, min_cycles: int = 2) -> int:
        """Cycles of one training call, then every other operation for its
        share, scaled by that call's time, until ``deadline``; returns the
        number of cycles."""
        lead = ops["train"]
        cycles = 0
        while cycles < min_cycles or time.perf_counter() < deadline:
            lead_s = self.record("train", lead)
            for name, op in ops.items():
                if name == "train":
                    continue
                t0 = time.perf_counter()
                while True:
                    self.record(name, op)
                    if time.perf_counter() - t0 >= lead_s * op.share / lead.share:
                        break
            cycles += 1
        return cycles


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main([str(a) for a in argv])


def data_flags(ctx: Context, train: str | None, test: str) -> list:
    flags = []
    if train:
        flags += ["--train-images", split_paths(ctx.inputs, train)[0],
                  "--train-labels", split_paths(ctx.inputs, train)[1]]
    return flags + ["--test-images", split_paths(ctx.inputs, test)[0],
                    "--test-labels", split_paths(ctx.inputs, test)[1]]


def measure_untraced(ctx: Context) -> tuple[dict, dict]:
    """All end-to-end metrics of one workload run, and report extras.

    A first pass runs each operation once, then the checks that need whole
    artifacts, and reads the peak RSS, so that memory is measured over
    the same sequence in every run.  Interleaved cycles then fill
    ``--seconds``; every timing is the median over all samples.
    """
    w, s, tally = ctx.workload, ctx.shapes, ctx.tally
    setup_s, state = measure_setup(ctx)
    for name in ("train", "val", "test"):
        if name not in state:
            state[name] = ctx.split(name)
    train, test = state["train"], state["test"]
    first: dict = {}
    ops: dict = {}
    shares = w.shares
    times = Timings(tally)

    if w.kind == "teacher":
        t_cfg = ctx.teacher_config()
        ops["train"] = Op(lambda: teacher.train_teacher(train, t_cfg, test_ds=state["val"]),
                          teacher_train_check(ctx, first), shares["train"])
        epochs, loss_key = s.teacher_epochs, "train_loss"
    else:
        l_cfg, s_cfg = ctx.loss_config(), ctx.student_config()
        rows = None if l_cfg.lambda_t == 0.0 else state["cache"].logits
        tw = state["tnet"].weights if l_cfg.lambda_g != 0.0 else None
        ops["train"] = Op(lambda: optim.train_student(train, rows, l_cfg, s_cfg, teacher_weights=tw,
                                                      test_ds=state["val"]),
                          student_train_check(ctx, first), shares["train"])
        epochs, loss_key = s.student_epochs, "total"
    times.record("train", ops["train"])
    if "net" not in first:
        raise RuntimeError("the first training call failed: " + tally.failures[-1][1])
    records = first["records"]

    tnet = first["net"] if w.kind == "teacher" else state["tnet"]
    expected = (teacher.precompute_logits(tnet, train).logits if w.kind == "teacher"
                else teacher.load_logit_cache(ctx.path("cache.ckpt")).logits)
    digest = teacher.payload_digest(tnet)

    def cache_check(cache):
        if cache.teacher_digest != digest:
            return "cache digest does not match its teacher"
        return None if np.array_equal(cache.logits, expected) else "logits differ from the cache"
    ops["cache"] = Op(lambda: teacher.precompute_logits(tnet, train), cache_check, shares["cache"])

    ib = s.infer_batch
    starts = itertools.cycle(range(0, len(test) - ib + 1, ib))
    if w.kind == "teacher":
        want_err = metrics.top1_error(teacher.forward_logits(tnet, test.images), test.labels)
        ops["eval"] = Op(lambda: metrics.top1_error(teacher.forward_logits(tnet, test.images),
                                                    test.labels),
                         lambda err: None if err == want_err else f"error {err} != {want_err}",
                         shares["eval"])
        seen: dict = {}

        def infer():
            i = next(starts)
            return i, teacher.forward_logits(tnet, test.images[i:i + ib])

        def infer_check(out):
            i, logits = out
            if not np.isfinite(logits).all():
                return f"rows {i}..{i + ib}: non-finite teacher logits"
            return None if np.array_equal(seen.setdefault(i, logits), logits) else "logits changed"
        r_s = metrics.sparsity_ratio([w_ != 0 for w_ in tnet.weights])
        test_error = 100.0 * want_err
    else:
        if w.kind == "evaluate":
            eval_net, tau, ckpt = state["student"], state["tau"], ctx.path("student.ckpt")
        else:
            eval_net, tau, ckpt = first["net"], s.tau, ctx.work / "trained" / "student.ckpt"
            saved = student.save_student(eval_net, ckpt, tau=tau)
            tally.check("student round trip", lambda: None if student.student_digest(
                student.load_student(ckpt)[0]) == saved else "reloaded student differs")
        arrays = read_student_arrays(ckpt)
        ref = reference_predictions(arrays, test.images, tau, 4096)
        ref_b = reference_predictions(arrays, test.images, tau, ib)
        masks = student.prune_masks(eval_net, tau)
        want = {"test_error_pct": error_pct(ref, test.labels), "r_s": metrics.sparsity_ratio(masks)}
        tally.check("reference argmax", lambda: None if np.array_equal(np.concatenate([
            np.argmax(student.student_logits(eval_net, test.images[i:i + 4096], masks=masks), axis=1)
            for i in range(0, len(test), 4096)]), ref)
            else "student_logits argmax differs from the numpy reference")
        ops["eval"] = Op(lambda: optim.evaluate_student(eval_net, test, tau),
                         lambda out: None if all(out[k] == v for k, v in want.items())
                         else f"evaluate_student {out} != reference {want}", shares["eval"])

        def infer():
            i = next(starts)
            return i, student.student_logits(eval_net, test.images[i:i + ib], masks=masks)

        def infer_check(out):
            i, logits = out
            ok = np.array_equal(np.argmax(logits, axis=1), ref_b[i:i + ib])
            return None if ok else f"rows {i}..{i + ib}: argmax differs from the reference"
        r_s, test_error = want["r_s"], want["test_error_pct"]
    ops["infer"] = Op(infer, infer_check, shares["infer"])

    for name in ("cache", "eval", "infer"):
        times.record(name, ops[name])
    run_workload_cli(ctx, state, first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ctx.samples["cycles"] = times.interleave(ops, time.perf_counter() + ctx.seconds)
    for name, minimum in (("eval", 5), ("infer", s.min_infer)):
        while len(times[name]) < minimum:
            times.record(name, ops[name])
    ctx.samples.update({name: len(values) for name, values in times.items()})

    infer_ms = 1000.0 * np.asarray(times["infer"])
    values = {
        "setup_s": setup_s,
        "train_samples_per_s": epochs * len(train) / median(times["train"]),
        "final_loss": float(records[-1][loss_key]),
        "test_error_pct": float(test_error),
        "r_s": float(r_s),
        "cache_rows_per_s": len(train) / median(times["cache"]),
        "eval_rows_per_s": len(test) / median(times["eval"]),
        "infer_b100_ms_p50": float(np.percentile(infer_ms, 50)),
        "peak_rss_mb": peak_rss_mb,
    }
    # Reported, not a metric: on a shared 2-core machine the 90th percentile of
    # a 2 ms call follows the neighbours' load, and its spread over ten seeds
    # (0.36 on distill-kd) exceeded the largest bound a metric may have.
    return values, {"infer_b100_ms_p90": float(np.percentile(infer_ms, 90))}


def run_workload_cli(ctx: Context, state: dict, first: dict) -> None:
    """One in-process ``cli.main`` of the workload's subcommand on the same files."""
    w, s, out = ctx.workload, ctx.shapes, ctx.work / "cli"
    if w.kind == "teacher":
        argv = ["train-teacher", *data_flags(ctx, "train", "val"), "--arch",
                "-".join(map(str, s.teacher_arch)), "--epochs", s.teacher_epochs,
                "--batch", s.teacher_batch, "--seed", ctx.train_seed, "--out", out]

        def verify():
            net = teacher.load_checkpoint(out / "teacher.ckpt")
            if teacher.payload_digest(net) != first["digest"]:
                return "train-teacher checkpoint differs from train_teacher"
            cache = teacher.load_logit_cache(out / "cache.ckpt", first["digest"])
            want = teacher.precompute_logits(net, state["train"]).logits
            return None if np.array_equal(cache.logits, want) else "cache round trip differs"
    elif w.kind == "evaluate":
        argv = ["evaluate", *data_flags(ctx, None, "test"), "--student", ctx.path("student.ckpt"),
                "--teacher", ctx.path("teacher.ckpt"), "--tau", state["tau"], "--out",
                out / "report.json"]

        def verify():
            report = json.loads((out / "report.json").read_text())[0]
            want = optim.evaluate_student(state["student"], state["test"], state["tau"])
            same = report["test_error_pct"] == want["test_error_pct"] and report["r_s"] == want["r_s"]
            return None if same else "evaluate report differs from evaluate_student"
    else:
        argv = ["train-student", *data_flags(ctx, "train", "val"), "--arch",
                "-".join(map(str, s.student_arch)), "--variant", w.variant,
                "--warmup-epochs", 0, "--epochs", s.student_epochs, "--batch", s.student_batch,
                "--seed", ctx.train_seed, "--tau", s.tau, "--teacher", ctx.path("teacher.ckpt"),
                "--cache", ctx.path("cache.ckpt"), "--out", out]

        def verify():
            net, _ = student.load_student(out / "student.ckpt")
            if student.student_digest(net) != first["digest"]:
                return "train-student checkpoint differs from train_student"
            json.loads((out / "report.json").read_text())
            return None

    def run_and_verify():
        code = run_cli(argv)
        return f"exit code {code}" if code != 0 else verify()
    ctx.tally.check(f"cli {argv[0]}", run_and_verify)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, nproc: int) -> tuple[dict, dict]:
    """Returns ``(result line, report)`` for one run."""
    shapes = inputs.SMOKE if smoke else inputs.FULL
    source = input_dir(seed, smoke)
    facts = json.loads((source / "inputs.json").read_text())
    work = WORK_ROOT / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ctx = Context(WORKLOADS[workload], seed, seconds, shapes, source, work)
        t0 = time.perf_counter()
        if trace:
            import tracing
            values, units, extra = tracing.measure_traced(ctx)
        else:
            values, extra = measure_untraced(ctx)
            units = END_TO_END_UNITS
        measured_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    tally = ctx.tally
    failed = len(tally.failures)
    if not trace:
        values["ok_frac"] = 1.0 - failed / max(tally.attempted, 1)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units if k in values},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "measured_s": measured_s, "samples": ctx.samples,
        "fail_frac": failed / max(tally.attempted, 1), "failures": tally.failures[:20],
        "inputs": facts, "machine": machine_facts(nproc), **extra,
    }
    return result, report
