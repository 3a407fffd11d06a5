"""Command-line surface: train the teacher, train student variants,
evaluate checkpoints, and sweep training-set sizes.

Configuration precedence is flags, then a ``key=value`` config file
(``--config``), then built-in defaults; every artifact embeds the fully
resolved configuration.  Exit codes: 0 on success, 2 on usage problems,
1 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .checkpoint import parse_arch, read_manifest
from .data import load_idx
from .errors import FormatError, UsageError, as_choice, as_distinct, as_int
from .losses import LossConfig, VARIANTS, resolve_variant, teacher_inputs
from .metrics import REPORT_FORMATS, emit_report, to_json
from .optim import (StudentTrainConfig, lowdata_sweep, report_student, summarize_sweep,
                    train_student)
from .student import load_student, save_student
from .teacher import (TeacherConfig, count_parameters, load_checkpoint, load_logit_cache,
                      payload_digest, precompute_logits, save_checkpoint,
                      save_logit_cache, train_teacher)

__all__ = ["main", "build_parser"]


# -- option plumbing ----------------------------------------------------------


def _arch(text: str) -> str:
    parse_arch(text)
    return text


def _sizes(text: str) -> list[int]:
    out = [as_int(int(p), "size", 1) for p in text.split(",") if p.strip()]
    if not out:
        raise UsageError(f"no sizes in {text!r}")
    return as_distinct(out, "size", text)


def _seed(text: str) -> int:
    return as_int(int(text), "seed", 0)


def _seeds(text: str) -> list[int]:
    """A bare integer N means seeds 0..N-1; a comma list of distinct seeds is used as given."""
    if "," in text:
        return as_distinct([_seed(p) for p in text.split(",") if p.strip()], "seed", text)
    n = as_int(int(text), "seed count", 1)
    if n > sys.maxsize:  # past what range() takes
        raise UsageError(f"seed count {n} is too large")
    return list(range(n))


def _lambda_v(text: str) -> float | None:
    return None if text == "auto" else float(text)


def _choice(name, options):
    return lambda text: as_choice(text, name, options)


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"bad boolean {text!r}")


# The one declaration of every flag: dest -> (converter, help).  Flags, config
# file values and each subcommand's default text (``_COMMANDS``) all go through
# the converter; a ``_bool`` flag is a switch on the command line.
_FLAGS = {
    "train_images": (str, "IDX image file for training"),
    "train_labels": (str, "IDX label file for training"),
    "test_images": (str, "IDX image file for evaluation"),
    "test_labels": (str, "IDX label file for evaluation"),
    "config": (str, "key=value file; flags override it"),
    "out": (str, "output directory; for evaluate, the report file (stdout without it)"),
    "teacher": (str, "teacher checkpoint (manifest path); evaluate takes it as the "
                     "compression baseline"),
    "cache": (str, "teacher logit cache (manifest path); needs --teacher"),
    "student": (str, "student checkpoint (manifest path)"),
    "arch": (_arch, "dash-separated widths"),
    "variant": (_choice("variant", VARIANTS), "one of " + ", ".join(VARIANTS)),
    "bsr": (_choice("group-norm variant", ("l1lq", "l1linf")),
            "add the row-group norm l1lq or l1linf (st-* variants have l1lq)"),
    "q": (float, "inner norm order for l1lq"),
    "temperature": (float, "softening temperature"),
    "lambda_t": (float, "hint weight"),
    "lambda_v": (_lambda_v, "KL weight ceiling; 'auto' = 1/n_train"),
    "lambda_g": (float, "group-norm weight (0.01 when the variant has a group term)"),
    "warmup_epochs": (int, "epochs to ramp the KL weight"),
    "epochs": (int, "training epochs"),
    "batch": (int, "batch size; for evaluate, that of the timed forward pass"),
    "lr": (float, "Adam step size"),
    "tau": (float, "prune weights with log alpha above this"),
    "seed": (_seed, "run seed"),
    "sizes": (_sizes, "comma-separated subset sizes"),
    "seeds": (_seeds, "seed count, or comma-separated seed list"),
    "format": (_choice("report format", REPORT_FORMATS), "report format: json, markdown, or csv"),
    "time": (_bool, "also measure inference time, which makes output nondeterministic"),
    "hint_reverse": (_bool, "swap the roles in the hint divergence"),
    "clip": (float, "clip the joint gradient l2 norm to this value (off by default)"),
    "activation": (_choice("activation", ("relu", "sigmoid")), "hidden nonlinearity"),
}


def _argparse_type(convert):
    def wrapped(text):
        try:
            return convert(text)
        except ValueError as exc:  # UsageError too
            raise argparse.ArgumentTypeError(str(exc))
    return wrapped


def _config_defaults(args: argparse.Namespace) -> dict:
    """The ``--config`` file's settings, each through its flag's converter."""
    path = _require_file(args.config, "--config")
    try:
        entries = read_manifest(path)
    except FormatError as exc:
        raise UsageError(str(exc))
    settings = {}
    for key, value in entries.items():
        dest = key.replace("-", "_")
        if dest not in vars(args) or dest in ("command", "config"):
            raise UsageError(f"{path}: unknown key {key!r}; it is not a flag of this command")
        if dest in settings:  # test-images and test_images both name --test-images
            raise UsageError(f"{path}: repeated key {key!r}, under another spelling")
        try:
            settings[dest] = _FLAGS[dest][0](value)
        except ValueError as exc:
            raise UsageError(f"{path}: bad value {value!r} for key {key!r}: {exc}")
    return settings


def _settings(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in _COMMANDS[args.command][3]}


def _require_file(path, flag: str) -> Path:
    """``path``, the value of ``flag``, if it names a file; "" and a directory do not."""
    if path is None:
        raise UsageError(f"missing required {flag}")
    if not Path(path).is_file():
        raise UsageError(f"{flag}: {str(path)!r} is not a file")
    return Path(path)


def _load_pair(v, prefix: str, required: bool, arch: list[int]):
    """The ``prefix`` data set, checked against ``arch``: equal input width, and no more
    classes than outputs.  None when neither file is given and the set is not ``required``."""
    images, labels = getattr(v, f"{prefix}_images"), getattr(v, f"{prefix}_labels")
    if images is None and labels is None:
        if required:
            raise UsageError(f"missing --{prefix}-images/--{prefix}-labels")
        return None
    ds = load_idx(_require_file(images, f"--{prefix}-images"),
                  _require_file(labels, f"--{prefix}-labels"))
    if arch[0] != ds.n_features:
        raise UsageError(f"{images}: {ds.n_features} features, but the input width is {arch[0]}")
    if arch[-1] < ds.n_classes:
        raise UsageError(f"{labels}: {ds.n_classes} classes, but the output width is {arch[-1]}")
    return ds


def _write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(obj, indent=2, sort_keys=True) + "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_train_teacher(v: argparse.Namespace) -> int:
    arch = parse_arch(v.arch)
    train_ds = _load_pair(v, "train", True, arch)
    test_ds = _load_pair(v, "test", False, arch)
    cfg = TeacherConfig(arch=arch, epochs=v.epochs, batch_size=v.batch,
                        lr=v.lr, seed=v.seed, activation=v.activation)
    out = Path(v.out)
    net, records = train_teacher(train_ds, cfg, test_ds=test_ds, log_dir=out)

    digest = save_checkpoint(net, out / "teacher.ckpt")
    save_logit_cache(precompute_logits(net, train_ds), out / "cache.ckpt")
    _write_json(out / "config.json", _settings(v))
    final = records[-1]
    print(f"teacher {'-'.join(str(w) for w in arch)}: "
          f"{count_parameters(net)} parameters, digest {digest[:12]}, "
          f"final train error {final['train_error']:.4f}"
          + (f", test error {final['test_error']:.4f}" if "test_error" in final else ""))
    print(f"wrote {out / 'teacher.ckpt'} and {out / 'cache.ckpt'}")
    return 0


def _load_teacher(path, arch: list[int], outputs: bool = True):
    """The teacher checkpoint at ``path``, refused unless it reads the input width of the
    student ``arch`` and, when ``outputs``, gives its output width."""
    net = load_checkpoint(_require_file(path, "--teacher"))
    if net.arch[0] != arch[0]:
        raise UsageError(f"{path}: teacher input width {net.arch[0]} does not match the "
                         f"student's {arch[0]} features")
    if outputs and net.arch[-1] != arch[-1]:
        raise UsageError(f"{path}: teacher output width {net.arch[-1]} does not match the "
                         f"student's output width {arch[-1]}")
    return net


def _load_teacher_and_cache(v, train_ds, arch: list[int], hint: bool):
    """Returns (teacher_net, logits aligned with train_ds) or (None, None).  The teacher must
    fit the student ``arch`` (:func:`_load_teacher`), its output width only with the ``hint``."""
    if v.teacher is None:
        if v.cache is not None:
            raise UsageError("--cache needs --teacher, the checkpoint its logits were made by")
        return None, None
    net = _load_teacher(v.teacher, arch, hint)
    if v.cache is not None:
        logits = load_logit_cache(_require_file(v.cache, "--cache"), payload_digest(net)).logits
    else:
        logits = precompute_logits(net, train_ds).logits
    if len(logits) != len(train_ds):
        raise UsageError(f"logit cache has {len(logits)} rows but the training set has "
                         f"{len(train_ds)}; rebuild the cache for this dataset")
    return net, logits


def _student_inputs(v, test_required: bool):
    """``(train_ds, test_ds, loss_cfg, train_cfg, teacher_net, logits)`` of a
    student command; the teacher and its logits are None without ``--teacher``."""
    arch = parse_arch(v.arch)
    train_ds = _load_pair(v, "train", True, arch)
    test_ds = _load_pair(v, "test", test_required, arch)
    base = LossConfig(temperature=v.temperature, lambda_t=v.lambda_t,
                      lambda_v_max=v.lambda_v, q=v.q, bsr_variant=v.bsr,
                      warmup_epochs=v.warmup_epochs, hint_reverse=v.hint_reverse)
    loss_cfg = resolve_variant(v.variant, base, lambda_g=v.lambda_g)
    needs = teacher_inputs(loss_cfg)
    if needs and v.teacher is None:
        terms = {"rows": f"hint (--lambda-t {loss_cfg.lambda_t}; --lambda-t 0 turns it off)",
                 "weights": f"group term (--lambda-g {loss_cfg.lambda_g})"}
        raise UsageError(f"variant {v.variant!r} needs --teacher for its "
                         + " and its ".join(terms[k] for k in needs))
    teacher_net, logits = _load_teacher_and_cache(v, train_ds, arch, "rows" in needs)
    # lowdata has no --seed: lowdata_sweep gives each run a seed from --seeds
    cfg = StudentTrainConfig(arch=arch, epochs=v.epochs, batch_size=v.batch,
                             lr=v.lr, seed=getattr(v, "seed", 0), tau=v.tau,
                             activation=v.activation, grad_clip=v.clip)
    return train_ds, test_ds, loss_cfg, cfg, teacher_net, logits


def cmd_train_student(v: argparse.Namespace) -> int:
    train_ds, test_ds, loss_cfg, cfg, teacher_net, logits = _student_inputs(v, False)
    out = Path(v.out)
    teacher_weights = None if teacher_net is None else teacher_net.weights
    net, records = train_student(train_ds, logits, loss_cfg, cfg, teacher_weights=teacher_weights,
                                 test_ds=test_ds, log_dir=out)

    save_student(net, out / "student.ckpt", tau=v.tau)
    resolved = {**_settings(v), "loss": asdict(loss_cfg)}
    _write_json(out / "config.json", resolved)
    last = records[-1]
    print(f"student {'-'.join(str(w) for w in cfg.arch)} [{v.variant}]: "
          f"R_s {last['r_s']:.2f} at tau {v.tau}"
          + (f", test error {last['test_error_pct']:.2f}%" if "test_error_pct" in last else ""))
    if test_ds is not None:
        report = report_student(net, v.tau, test_ds, teacher=teacher_net, config=resolved)
        ext = {"json": "json", "markdown": "md", "csv": "csv"}[v.format]
        (out / f"report.{ext}").write_text(emit_report([report], v.format) + "\n")
        print(f"wrote {out / f'report.{ext}'}")
    print(f"wrote {out / 'student.ckpt'} and {out / 'session.jsonl'}")
    return 0


def cmd_evaluate(v: argparse.Namespace) -> int:
    as_int(v.batch, "batch size", 1)
    net, _ = load_student(_require_file(v.student, "--student"))
    test_ds = _load_pair(v, "test", True, net.arch)
    teacher_net = None if v.teacher is None else _load_teacher(v.teacher, net.arch)
    resolved = {"student": str(v.student), "tau": v.tau, "format": v.format}
    report = report_student(net, v.tau, test_ds, teacher=teacher_net, config=resolved,
                            timed_batch=v.batch if v.time else None)
    doc = emit_report([report], v.format)
    if v.out:
        out = Path(v.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(doc + "\n")
        print(f"wrote {out}")
    else:
        print(doc)
    return 0


def cmd_lowdata(v: argparse.Namespace) -> int:
    train_ds, test_ds, loss_cfg, cfg, teacher_net, logits = _student_inputs(v, True)
    if teacher_net is None:
        raise UsageError("lowdata needs --teacher for the hint comparison")
    if max(v.sizes) > len(train_ds):
        raise UsageError(f"subset size {max(v.sizes)} is above the {len(train_ds)} "
                         "rows of the training set")
    rows = lowdata_sweep(train_ds, test_ds, logits, loss_cfg, cfg, v.sizes, v.seeds,
                         teacher_weights=teacher_net.weights)
    summary = summarize_sweep(rows)
    resolved = {**_settings(v), "loss": asdict(loss_cfg)}
    out = Path(v.out)
    _write_json(out / "sweep.json", {"rows": rows, "summary": summary, "config": resolved})
    for s in summary:
        label = "with hint   " if s["hint"] else "teacher-free"
        print(f"n={s['size']:>6} {label} error {s['mean_test_error_pct']:.2f}% "
              f"+/- {s['std_test_error_pct']:.2f}, R_s {s['mean_r_s']:.2f} over {s['n']} seeds")
    print(f"wrote {out / 'sweep.json'}")
    return 0


# -- parser ---------------------------------------------------------------------


_STUDENT = {"arch": "784-500-50-10", "variant": "kd-svd", "bsr": None, "q": "2",
            "temperature": "2", "lambda_t": "2", "lambda_v": "auto", "lambda_g": None,
            "warmup_epochs": "10", "epochs": "100", "batch": "512", "lr": "1e-3", "tau": "3",
            "seed": "0", "activation": "relu", "hint_reverse": "false", "clip": None,
            "out": "runs/student", "format": "json"}
_INPUTS = ("train_images", "train_labels", "test_images", "test_labels", "config")

# name -> (command, help, flags without a default, {flag: default text or None}).
# The defaults' keys, in order, are the settings config.json, report.json and
# sweep.json record.  lowdata takes its seeds from --seeds and writes no report.
_COMMANDS = {
    "train-teacher": (cmd_train_teacher, "train the dense teacher and cache its logits", _INPUTS,
                      {"arch": "784-1200-1200-10", "epochs": "100", "batch": "128", "lr": "1e-3",
                       "seed": "0", "activation": "relu", "out": "runs/teacher"}),
    "train-student": (cmd_train_student, "train a variational student against a teacher",
                      (*_INPUTS, "teacher", "cache"), _STUDENT),
    "evaluate": (cmd_evaluate, "score a student checkpoint at a pruning threshold",
                 ("test_images", "test_labels", "config", "out", "student", "teacher"),
                 {"tau": "3", "format": "json", "time": "false", "batch": "100"}),
    "lowdata": (cmd_lowdata, "sweep training-set sizes, distilled against teacher-free",
                (*_INPUTS, "teacher", "cache"),
                {**{k: d for k, d in _STUDENT.items() if k not in ("seed", "format")},
                 "epochs": "30", "out": "runs/lowdata",
                 "sizes": "100,500,1000,5000,10000", "seeds": "3"}),
}


def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="sparsedistill",
        description="Train a dense teacher, distill it into a sparse variational "
                    "student, prune, and report compression metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, plain, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)  # lowdata --seed != --seeds
        for dest in (*plain, *defaults):
            convert, text = _FLAGS[dest]
            default = defaults.get(dest)
            if default is not None:
                text += f" (default {default})"
            # argparse runs a default text through the flag's type; a switch has none
            kind = (dict(action="store_const", const=True, default=_bool(default))
                    if convert is _bool else dict(type=_argparse_type(convert), default=default))
            p.add_argument("--" + dest.replace("_", "-"), help=text, **kind)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def main(argv=None) -> int:
    parser, commands = _parsers()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:  # the file's settings become defaults, so a flag still wins
            commands[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single boundary for exit-code mapping
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
