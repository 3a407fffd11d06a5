"""Training objective: data term, softened hint term, and two regularisers.

The full objective is

    total = CE + lambda_t * hint + lambda_v_eff * KL + lambda_g * group

where the hint term matches temperature-softened class distributions
between student and a frozen teacher (scaled by ``2 T^2`` so its gradient
magnitude stays comparable across temperatures), the KL term is one of
the posterior penalties from :mod:`.student` warmed up linearly over the
first epochs, and the group term is a mixed norm over the rows of every
weight matrix from both networks, stacked and zero-padded to a common
height (the paper's Block Sparse Regularizer).  The teacher's matrices
never change, so their row aggregates are precomputed once into a
:class:`BsrContext` and only student rows go through the graph.

Each term is defined once, as a graph node; its value alone is the node's
``.item()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .autograd import Tensor
from .errors import DomainError, ShapeError, UsageError, as_choice, as_int, as_real
from .student import kl_svd_node, kl_vbd_node, student_logits_node

__all__ = [
    "LossConfig", "resolve_variant", "teacher_inputs", "warmup_scale", "effective_lambda_v",
    "cross_entropy_node", "hint_node",
    "BsrContext", "make_bsr_context", "bsr_node", "total_loss", "VARIANTS",
]

VARIANTS = ("simple", "kd", "kd-svd", "kd-vbd", "st-svd", "st-vbd")


@dataclass
class LossConfig:
    """Knobs of the combined objective.

    ``lambda_v_max`` of None means "one over the training-set size", the
    scale at which the summed KL matches an averaged data term.
    """

    temperature: float = 2.0
    lambda_t: float = 2.0
    lambda_v_max: Optional[float] = None
    lambda_g: float = 0.0
    kl_variant: Optional[str] = None      # "svd" | "vbd" | None
    bsr_variant: Optional[str] = None     # "l1lq" | "l1linf" | None
    q: float = 2.0
    warmup_epochs: int = 10
    hint_reverse: bool = False

    def __post_init__(self):
        self.temperature = as_real(self.temperature, "temperature", 0, strict=True)
        self.lambda_t = as_real(self.lambda_t, "lambda_t", 0)
        if self.lambda_v_max is not None:
            self.lambda_v_max = as_real(self.lambda_v_max, "lambda_v_max", 0)
        self.lambda_g = as_real(self.lambda_g, "lambda_g", 0)
        self.kl_variant = as_choice(self.kl_variant, "kl variant", (None, "svd", "vbd"))
        self.bsr_variant = as_choice(self.bsr_variant, "group-norm variant",
                                     (None, "l1lq", "l1linf"))
        if self.lambda_g != 0.0 and self.bsr_variant is None:
            raise UsageError(f"lambda_g {self.lambda_g} needs a group norm, but bsr_variant is None")
        # checked even when unused, since the run's config.json records it
        l1lq = self.bsr_variant == "l1lq"
        self.q = as_real(self.q, "q", 1 if l1lq else None, inf=not l1lq)
        self.warmup_epochs = as_int(self.warmup_epochs, "warmup_epochs", 0)
        self.hint_reverse = as_choice(self.hint_reverse, "hint_reverse", (False, True))


def resolve_variant(variant: str, base: LossConfig | None = None,
                    lambda_g: float | None = None) -> LossConfig:
    """Expand a named training variant into a concrete :class:`LossConfig`.

    The group term is on for ``st-*`` (``l1lq`` unless ``base`` names a
    group-norm variant) and for any variant whose ``base`` names one.  Its
    weight is ``lambda_g``, else a positive ``base.lambda_g``, else 0.01.
    Settings the run would ignore raise :class:`UsageError`: a ``lambda_g``
    with no group norm, and a ``q`` other than 2 with no active ``l1lq`` term.
    """
    cfg = base if base is not None else LossConfig()
    as_choice(variant, "variant", VARIANTS)
    kl = None if variant in ("simple", "kd") else ("svd" if variant.endswith("svd") else "vbd")
    cfg = replace(cfg, kl_variant=kl, lambda_t=0.0 if variant == "simple" else cfg.lambda_t)
    if variant.startswith("st-") and cfg.bsr_variant is None:
        cfg = replace(cfg, bsr_variant="l1lq")
    if cfg.bsr_variant is not None:
        if lambda_g is None:
            lambda_g = cfg.lambda_g if cfg.lambda_g > 0 else 0.01
        cfg = replace(cfg, lambda_g=lambda_g)
    elif lambda_g is not None:
        raise UsageError(f"lambda_g {lambda_g} would be ignored: variant {variant!r} "
                         "has no group norm")
    if cfg.q != 2.0 and not (cfg.bsr_variant == "l1lq" and cfg.lambda_g != 0.0):
        raise UsageError(f"q {cfg.q} would be ignored: variant {variant!r} has no active "
                         f"l1lq term (group norm {cfg.bsr_variant}, lambda_g {cfg.lambda_g})")
    return cfg


def teacher_inputs(cfg: LossConfig, **given) -> tuple[str, ...]:
    """What a run of ``cfg`` needs from the teacher: ``"rows"``, its logits, when the hint
    weight ``lambda_t`` is non-zero, and ``"weights"`` when the group weight ``lambda_g`` is.
    A needed input passed by that name as None raises :class:`UsageError`."""
    terms = {"rows": ("lambda_t", cfg.lambda_t, "hint"),
             "weights": ("lambda_g", cfg.lambda_g, "group term")}
    for name, (key, weight, term) in terms.items():
        if weight != 0.0 and name in given and given[name] is None:
            raise UsageError(f"{key} {weight} weights the {term}, but no teacher {name} were given")
    return tuple(name for name, (_, weight, _) in terms.items() if weight != 0.0)


def warmup_scale(epoch: int, warmup_epochs: int) -> float:
    """Linear ramp from 0 at epoch 0 to 1 at ``warmup_epochs`` (0-indexed)."""
    return 1.0 if warmup_epochs <= 0 else min(1.0, epoch / warmup_epochs)


def effective_lambda_v(cfg: LossConfig, epoch: int, n_train: int) -> float:
    lam = cfg.lambda_v_max if cfg.lambda_v_max is not None else 1.0 / n_train
    return lam * warmup_scale(epoch, cfg.warmup_epochs)


# -- data and hint terms -------------------------------------------------------


def _check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DomainError(f"labels outside [0, {n_classes})")
    return labels.astype(np.int64)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=1, keepdims=True))


def cross_entropy_node(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true class; gradient ``g * (softmax - onehot) / N``."""
    labels = _check_labels(labels, logits.data.shape[1])
    logp = _log_softmax(logits.data)
    value = float(-logp[np.arange(len(labels)), labels].mean())

    def back(g):
        d = np.exp(logp)
        d[np.arange(len(labels)), labels] -= 1.0
        d *= g / max(len(labels), 1)
        logits._accumulate(d, fresh=True)

    req = logits.requires_grad
    return Tensor(value, req, (logits,), back if req else None)


def hint_node(student_logits: Tensor, teacher_logits: np.ndarray,
              temperature: float, reverse: bool = False) -> Tensor:
    """``2 T^2`` times the batch-mean KL between softened class distributions.

    By default the student's distribution ``p`` is the one under the log
    (gradients reshape the student toward the teacher's ``q``); ``reverse``
    swaps the roles.  The gradient is ``g * 2T/N`` times
    ``p * (log p - log q - KL_row)``, or ``p - q`` when ``reverse``.
    """
    temperature = as_real(temperature, "temperature", 0, strict=True, error=DomainError)
    zs = student_logits.data / temperature
    zt = np.asarray(teacher_logits, dtype=np.float64) / temperature
    if zs.shape != zt.shape:
        raise ShapeError(f"logit shapes differ: {zs.shape} vs {zt.shape}")
    lps, lpt = _log_softmax(zs), _log_softmax(zt)
    if reverse:
        kl_rows = (np.exp(lpt) * (lpt - lps)).sum(axis=1)
    else:
        kl_rows = (np.exp(lps) * (lps - lpt)).sum(axis=1)
    # in numpy floats: past T of about 1e154, 2 T^2 is inf, the value inf or nan, and the
    # training loop's divergence check stops the run
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(2.0 * np.square(temperature) * kl_rows.mean())

    def back(g):
        p = np.exp(lps)
        if reverse:
            d = p - np.exp(lpt)
        else:
            d = p * (lps - lpt - kl_rows[:, None])
        d *= g * 2.0 * temperature / max(len(lps), 1)
        student_logits._accumulate(d, fresh=True)

    req = student_logits.requires_grad
    return Tensor(value, req, (student_logits,), back if req else None)


# -- mixed-norm group regulariser ----------------------------------------------


@dataclass
class BsrContext:
    """Precomputed teacher-side row aggregates for the group term.

    ``teacher_row_agg`` holds, per padded row, either the sum of
    ``|w|^q`` (l1lq) or the row maximum (l1linf) across all teacher
    matrices; student matrices are folded in at graph-build time.
    """

    variant: str
    q: float
    m: int
    teacher_row_agg: np.ndarray = field(repr=False)


def make_bsr_context(teacher_weights, student_shapes, variant: str, q: float = 2.0) -> BsrContext:
    as_choice(variant, "group-norm variant", ("l1lq", "l1linf"))
    teacher_weights = [np.asarray(w, dtype=np.float64) for w in teacher_weights]
    heights = [w.shape[0] for w in teacher_weights] + [s[0] for s in student_shapes]
    m = max(heights)
    agg = np.zeros(m)
    if variant == "l1lq":
        q = as_real(q, "q", 1, error=DomainError)
        for w in teacher_weights:
            agg[:w.shape[0]] += (np.abs(w) ** q).sum(axis=1)
    else:
        for w in teacher_weights:
            k = w.shape[0]
            agg[:k] = np.maximum(agg[:k], np.abs(w).max(axis=1))
    return BsrContext(variant=variant, q=q, m=m, teacher_row_agg=agg)


def bsr_node(ctx: BsrContext, student_thetas: list[Tensor]) -> Tensor:
    """The group term as a graph node, never materialising the padded stack.

    Over each row ``i`` of the stack, ``l1lq`` sums ``S_i^(1/q)`` with ``S_i``
    the row's sum of ``|w|^q``, and ``l1linf`` sums the row's largest ``|w|``.
    ``l1lq`` gradient: ``g * S_i^(1/q-1) * |theta|^(q-1) * sign(theta)``,
    0 where ``S_i <= 0``.
    ``l1linf``: ``g * sign(theta)`` at each row's winning entry only; the
    teacher, then earlier layers, win ties, and the first argmax in a row.
    """
    thetas = [t.data for t in student_thetas]
    q = float(ctx.q)
    if ctx.variant == "l1lq":
        rows = ctx.teacher_row_agg.copy()
        for theta in thetas:
            rows[:theta.shape[0]] += (np.abs(theta) ** q).sum(axis=1)
        positive = rows > 0
        root = np.where(positive, np.power(np.maximum(rows, 1e-300), 1.0 / q), 0.0)
        value = root.sum()

        def back(g):
            row_g = g * np.where(positive, root / np.where(positive, rows, 1.0), 0.0) / q
            for t, theta in zip(student_thetas, thetas):
                if t.requires_grad:
                    d = row_g[:theta.shape[0], None] * q * np.abs(theta) ** (q - 1.0)
                    t._accumulate(d * np.sign(theta), fresh=True)
    else:
        best, owner, cols = ctx.teacher_row_agg.copy(), np.full(ctx.m, -1), []
        for l, theta in enumerate(thetas):
            a = np.abs(theta)
            cols.append(a.argmax(axis=1))
            row_max = a[np.arange(len(a)), cols[-1]]
            wins = np.flatnonzero(row_max > best[:len(a)])  # strict: earlier ones win ties
            best[wins], owner[wins] = row_max[wins], l
        value = best.sum()

        def back(g):
            for l, (t, theta, col) in enumerate(zip(student_thetas, thetas, cols)):
                if t.requires_grad:
                    rows = np.flatnonzero(owner[:len(theta)] == l)
                    d = np.zeros_like(theta)
                    d[rows, col[rows]] = g * np.sign(theta[rows, col[rows]])
                    t._accumulate(d, fresh=True)

    req = any(t.requires_grad for t in student_thetas)
    return Tensor(value, req, tuple(student_thetas), back if req else None)


# -- combined objective ----------------------------------------------------------


def total_loss(param_ts, xb: np.ndarray, yb, teacher_rows: np.ndarray | None,
               cfg: LossConfig, *, epoch: int, n_train: int,
               bsr_ctx: BsrContext | None = None, rng=None,
               activation: str = "relu", dtype=np.float32):
    """Assemble the full objective for one batch.

    ``param_ts`` is a list of ``(theta, log_sigma2, bias)`` graph-tensor
    triples.  Returns ``(loss, parts)`` where ``parts`` maps each term
    name to its unweighted float value plus the effective KL weight.  The
    hint and group terms run exactly when their weights are non-zero, and
    then need ``teacher_rows`` and ``bsr_ctx`` (:func:`teacher_inputs`); a missing one raises
    :class:`UsageError`.  ``dtype`` is the type of the network's matrix products
    (:func:`.student.student_logits_node`).
    """
    if rng is None:
        raise UsageError("total_loss needs an rng stream for the noise draws")
    teacher_inputs(cfg, rows=teacher_rows, weights=bsr_ctx)
    xb = np.asarray(xb, dtype=np.float64)
    eps_list = [rng.child(i).normal(xb.shape[0], theta.data.shape[1])
                for i, (theta, _, _) in enumerate(param_ts)]
    logits = student_logits_node(param_ts, xb, eps_list, activation=activation, dtype=dtype)

    loss = cross_entropy_node(logits, yb)
    parts = {"ce": loss.item()}

    if cfg.lambda_t != 0.0:
        hint = hint_node(logits, teacher_rows, cfg.temperature, cfg.hint_reverse)
        parts["hint"] = hint.item()
        loss = loss + hint * cfg.lambda_t
    else:
        parts["hint"] = 0.0

    lam_v = effective_lambda_v(cfg, epoch, n_train)
    parts["lambda_v_eff"] = lam_v
    if cfg.kl_variant is not None:
        node = kl_svd_node if cfg.kl_variant == "svd" else kl_vbd_node
        kl = node(param_ts[0][0], param_ts[0][1])
        for theta, logs2, _ in param_ts[1:]:
            kl = kl + node(theta, logs2)
        parts["kl"] = kl.item()
        if lam_v != 0.0:
            loss = loss + kl * lam_v
    else:
        parts["kl"] = 0.0

    if cfg.lambda_g != 0.0:
        group = bsr_node(bsr_ctx, [theta for theta, _, _ in param_ts])
        parts["bsr"] = group.item()
        loss = loss + group * cfg.lambda_g
    else:
        parts["bsr"] = 0.0

    parts["total"] = loss.item()
    return loss, parts
