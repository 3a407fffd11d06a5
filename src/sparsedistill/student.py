"""Compact student network with a factorised Gaussian posterior per weight.

Each layer keeps a mean matrix ``theta`` and a log-variance matrix
``log_sigma2`` over weights of the same shape.  The dropout rate of a
weight is summarised by ``log alpha = log sigma^2 - log theta^2``; large
values mean the multiplicative noise drowns the mean and the weight can
be removed.  Two KL penalties over log-alpha are provided as graph nodes
(the sparsifying form and the simpler log-uniform bound; a penalty's value
alone is its node's ``.item()``), plus pruning masks, forward
passes for training (a graph of noisy layers, via the local
reparameterisation trick, with float32 matrix products) and evaluation
(deterministic, masked, with the weight rows the masks prune entirely
skipped), and checkpoint round-tripping.
A loaded student is frozen: its masks and compacted layers are computed once and kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checkpoint
from .autograd import Tensor
from .errors import ConsistencyError, DomainError, as_real
from .tensor import ELEMENT_BLOCK, check_layers, dense_forward, derived

__all__ = [
    "K1", "K2", "K3", "LOG_ALPHA_CLAMP",
    "VariationalDenseLayer", "StudentNet",
    "init_student", "alpha_log", "prune_mask", "prune_masks",
    "kl_svd_node", "kl_vbd_node",
    "compact", "student_logits",
    "save_student", "load_student", "student_digest",
]

# Fitted constants of the sigmoid approximation to the sparsifying KL term.
K1 = 0.63576
K2 = 1.87320
K3 = 1.48695

# log-alpha is clamped to this symmetric range before entering any penalty,
# keeping exp() finite while leaving the saturated tails at zero gradient.
LOG_ALPHA_CLAMP = 40.0

_THETA_SQ_FLOOR = 1e-300  # keeps log(theta^2) finite on the graph path
_EXP_NEG_K2 = float(np.exp(-K2))


@dataclass
class VariationalDenseLayer:
    theta: np.ndarray
    log_sigma2: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.theta.shape != self.log_sigma2.shape:
            raise ConsistencyError(
                f"theta {self.theta.shape} and log_sigma2 {self.log_sigma2.shape} differ"
            )
        if self.theta.shape[1] != self.bias.shape[0]:
            raise ConsistencyError(
                f"bias length {self.bias.shape[0]} != layer width {self.theta.shape[1]}"
            )

    @property
    def shape(self):
        return self.theta.shape


@dataclass
class StudentNet:
    """Stack of variational layers with a fixed hidden nonlinearity.

    The net is *frozen* when every ``theta``, ``log_sigma2`` and ``bias`` array is read-only,
    as :func:`load_student` gives it; a live net, such as :func:`init_student`'s or the one
    training updates in place, has writable arrays.  A frozen net keeps the masks of the last
    ``tau`` given to :func:`prune_masks` and the compaction of those masks
    (:func:`.tensor.derived`).  To change a frozen net, replace an array: one made writable
    again and edited would leave those values stale.
    """

    layers: list[VariationalDenseLayer]
    activation: str = "relu"
    seed: int | None = None
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_layers([l.theta for l in self.layers], [l.bias for l in self.layers])

    @property
    def arch(self) -> list[int]:
        return [self.layers[0].shape[0]] + [l.shape[1] for l in self.layers]


def init_student(arch, seed: int, activation: str = "relu",
                 log_sigma2_init: float = -8.0) -> StudentNet:
    """The teacher's initialisation (:func:`.teacher.init_mlp`) for the means and
    biases, and a constant small log-variance."""
    from .teacher import init_mlp

    mlp = init_mlp(arch, seed, activation)
    layers = [VariationalDenseLayer(w, np.full(w.shape, log_sigma2_init), b)
              for w, b in zip(mlp.weights, mlp.biases)]
    return StudentNet(layers, activation=activation, seed=seed)


def alpha_log(theta: np.ndarray, log_sigma2: np.ndarray) -> np.ndarray:
    """Per-weight log dropout ratio, clamped; exactly-zero means map to +inf."""
    with np.errstate(divide="ignore"):
        la = log_sigma2 - np.log(np.square(theta))
    la = np.clip(la, -LOG_ALPHA_CLAMP, LOG_ALPHA_CLAMP)
    return np.where(theta == 0.0, np.inf, la)


def prune_mask(layer: VariationalDenseLayer, tau: float) -> np.ndarray:
    """True where a weight survives (log alpha <= tau).  ``tau`` is a real number, or +-inf;
    anything else raises :class:`DomainError`."""
    tau = as_real(tau, "tau", inf=True, error=DomainError)
    if np.isposinf(tau):
        return np.ones(layer.theta.shape, dtype=bool)
    return alpha_log(layer.theta, layer.log_sigma2) <= tau


def prune_masks(net: StudentNet, tau: float) -> list[np.ndarray]:
    """Every layer's :func:`prune_mask`.  A frozen net computes them once per ``tau`` and
    returns them read-only; a new ``tau`` replaces the kept masks.  A live net's are computed
    on every call, and are writable."""
    tau = as_real(tau, "tau", inf=True, error=DomainError)
    masks = derived(net, "masks", [a for l in net.layers for a in (l.theta, l.log_sigma2)],
                    lambda _: [prune_mask(layer, tau) for layer in net.layers], tag=tau)
    return list(masks)


# -- KL penalties over log-alpha ----------------------------------------------


def _kl_node(theta_t: Tensor, log_sigma2_t: Tensor, variant: str) -> Tensor:
    """One graph node for a layer's summed penalty, with its closed-form gradient.

    log alpha = log sigma^2 - log max(theta^2, floor), clamped.  Per weight, ``vbd`` is
    0.5 * log(1 + 1/alpha); ``svd`` adds K1 * sigmoid(-(K2 + K3 * log alpha)), kept as one
    sigmoid so its tiny tail is not cancelled against a constant.  No gradient
    flows where the raw log alpha lies outside the closed clamp interval, nor
    to theta where theta^2 < floor.  Both passes run in flat blocks of
    ``ELEMENT_BLOCK`` weights.  The forward keeps ``exp(-la)`` and the sigmoid,
    set to 0 past the clamp; ``back`` builds the derivative from them, 0 there,
    with no transcendental of its own, so a node whose backward never runs pays
    for the value only.  Value and gradients agree with the penalty composed
    from single graph operations to rtol 1e-12, not bit for bit.
    """
    theta, log_sigma2 = theta_t.data.reshape(-1), log_sigma2_t.data.reshape(-1)
    n, svd = theta.size, variant == "svd"
    e, s = np.empty(n), (np.empty(n) if svd else None)
    scratch = np.empty((2, min(n, ELEMENT_BLOCK)))
    value = 0.0
    for lo in range(0, n, ELEMENT_BLOCK):
        blk = slice(lo, lo + ELEMENT_BLOCK)
        w, b = scratch[:, :len(theta[blk])]
        np.maximum(np.multiply(theta[blk], theta[blk], out=w), _THETA_SQ_FLOOR, out=w)
        np.subtract(np.log(w, out=w), log_sigma2[blk], out=w)
        cut = np.abs(w, out=b) > LOG_ALPHA_CLAMP
        np.clip(w, -LOG_ALPHA_CLAMP, LOG_ALPHA_CLAMP, out=w)  # w = -la from here
        eb, sb = e[blk], (s[blk] if svd else b)
        np.exp(w, out=eb)
        part = 0.5 * float(np.log1p(eb, out=sb).sum())
        if svd:  # sb = c/(c + exp(K3*la)) with c = exp(-K2)
            np.exp(np.multiply(w, -K3, out=sb), out=sb)
            sb += _EXP_NEG_K2
            part += K1 * float(np.divide(_EXP_NEG_K2, sb, out=sb).sum())
        value += part  # the block's sum first, then the layer's: that order fixes the bits
        eb[cut] = 0.0  # past the clamp: e = s = 0 makes the derivative 0
        if svd:
            sb[cut] = 0.0

    def back(g):
        g = float(g)
        outs = [p._grad_buffer() if p.requires_grad else None for p in (theta_t, log_sigma2_t)]
        scratch = np.empty((2, min(n, ELEMENT_BLOCK)))
        for lo in range(0, n, ELEMENT_BLOCK):
            blk = slice(lo, lo + ELEMENT_BLOCK)
            d, t = scratch[:, :len(e[blk])]
            # d = g * (e/(1 + e) + 2*K1*K3*s*(1 - s)) = -2g * dKL/dla
            np.divide(e[blk], np.add(e[blk], 1.0, out=d), out=d)
            if svd:
                np.multiply(np.subtract(1.0, s[blk], out=t), s[blk], out=t)
                t *= 2.0 * K1 * K3
                d += t
            d *= g
            if outs[1] is not None:
                outs[1][blk] -= np.multiply(d, 0.5, out=t)
            if outs[0] is not None:  # dla/dtheta = -2/theta, and 0 where theta^2 < floor
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    np.divide(d, theta[blk], out=d)  # inf or nan only below the floor
                d[np.multiply(theta[blk], theta[blk], out=t) < _THETA_SQ_FLOOR] = 0.0
                outs[0][blk] += d

    req = theta_t.requires_grad or log_sigma2_t.requires_grad
    return Tensor(value, req, (theta_t, log_sigma2_t), back if req else None)


def kl_svd_node(theta_t: Tensor, log_sigma2_t: Tensor) -> Tensor:
    """The sparsifying penalty of a layer, summed over its weights, as a graph node."""
    return _kl_node(theta_t, log_sigma2_t, "svd")


def kl_vbd_node(theta_t: Tensor, log_sigma2_t: Tensor) -> Tensor:
    """The log-uniform bound penalty of a layer, summed over its weights, as a graph node."""
    return _kl_node(theta_t, log_sigma2_t, "vbd")


# -- forward passes ------------------------------------------------------------

_VAR_FLOOR = 1e-18


def compact(net: StudentNet, masks):
    """``(weights, biases, cols)``: the masked layers without the weight rows the masks prune
    entirely, of input features (``cols`` keeps the rest, or is None) and of hidden units (their
    columns leave the layer before).  Each dropped term is ``x * 0``.  A layer that loses
    nothing is only multiplied by its mask, not indexed; without masks nothing is copied.
    A frozen net given read-only masks, as its :func:`prune_masks` are, computes this once
    for those masks and returns it read-only; writable masks are compacted on every call."""
    thetas, biases = [l.theta for l in net.layers], [l.bias for l in net.layers]
    if masks is None:
        return tuple(thetas), tuple(biases), None
    return derived(net, "compact", [*thetas, *biases, *masks],
                   lambda _: _compact(thetas, biases, masks))


def _compact(thetas, biases, masks):
    keep = [None if k.all() else k for k in (np.any(m, axis=1) for m in masks)] + [None]
    weights = []
    for i, (theta, mask) in enumerate(zip(thetas, masks)):
        rows, cols = keep[i], keep[i + 1]
        if rows is not None:  # rows first, so a sparse layer multiplies only what survives
            theta, mask = theta[rows], mask[rows]
        if cols is not None:
            theta, mask, biases[i] = theta[:, cols], mask[:, cols], biases[i][cols]
        weights.append(theta * mask)
    return tuple(weights), tuple(biases), keep[0]


def student_logits(net: StudentNet, x: np.ndarray, *,
                   masks: list[np.ndarray] | None = None) -> np.ndarray:
    """Deterministic logits on the means, pruned weights zeroed; hidden nonlinearity
    between layers, none after the last."""
    weights, biases, cols = compact(net, masks)
    return dense_forward(x, weights, biases, net.activation, cols)


def _noisy_layer_node(x, theta_t: Tensor, log_sigma2_t: Tensor, bias_t: Tensor,
                      eps: np.ndarray, dtype) -> Tensor:
    """One graph node for a noisy layer, with its closed-form gradient.

    The local reparameterisation trick draws each output from its Gaussian:
    ``out = x @ theta + b + sd * eps`` with ``sd = sqrt(x^2 @ sigma^2 + floor)``.
    ``x`` is the batch as an array, or the previous layer's node.  With
    ``dv = g * eps / (2 sd)``: ``dtheta = x.T @ g``, ``db = sum_rows g``,
    ``dlog_sigma2 = (x^2).T @ dv * sigma^2`` and, when ``x`` is a node,
    ``dx = g @ theta.T + 2x * (dv @ sigma^2.T)``.  The products run in ``dtype``: ``x``,
    ``theta`` and ``sigma^2`` are cast once in the forward, ``x^2`` is the square of the cast
    ``x``, and ``g`` and ``dv`` are cast once in the backward.  Each product is widened to
    float64 before anything else touches it, so ``sd``, ``dv``, the output and every gradient
    are float64.
    """
    x_t = x if isinstance(x, Tensor) else None
    xd = x if x_t is None else x.data
    s2 = np.exp(log_sigma2_t.data)
    xc, thetac, s2c = (a.astype(dtype, copy=False) for a in (xd, theta_t.data, s2))
    x_sq = np.square(xc)
    sd = np.sqrt(np.add(x_sq @ s2c, _VAR_FLOOR, dtype=np.float64))
    out = xc @ thetac + bias_t.data + sd * eps
    parents = (theta_t, log_sigma2_t, bias_t) + (() if x_t is None else (x_t,))
    req = any(p.requires_grad for p in parents)

    def back(g):
        dv = g * eps * 0.5 / sd
        gc, dvc = g.astype(dtype, copy=False), dv.astype(dtype, copy=False)
        if theta_t.requires_grad:
            theta_t._accumulate((xc.T @ gc).astype(np.float64, copy=False), fresh=True)
        if bias_t.requires_grad:
            bias_t._accumulate(g.sum(axis=0), fresh=True)
        if log_sigma2_t.requires_grad:
            log_sigma2_t._accumulate((x_sq.T @ dvc) * s2, fresh=True)
        if x_t is not None and x_t.requires_grad:
            dx = 2.0 * xd * (dvc @ s2c.T)
            dx += gc @ thetac.T
            x_t._accumulate(dx, fresh=True)

    return Tensor(out, req, parents, back if req else None)


def student_logits_node(param_ts: list[tuple[Tensor, Tensor, Tensor]], x: np.ndarray,
                        eps_list: list[np.ndarray], activation: str = "relu", *,
                        dtype=np.float32) -> Tensor:
    """The training forward as a graph of noisy layers; ``eps_list`` holds each
    layer's standard normal noise, drawn outside the graph.  Each layer's matrix products run
    in ``dtype``, and all else in float64 (:func:`_noisy_layer_node`); float64 products are
    for checks against finite differences and float64 references."""
    out = x
    for i, (theta_t, logs2_t, bias_t) in enumerate(param_ts):
        out = _noisy_layer_node(out, theta_t, logs2_t, bias_t, eps_list[i], dtype)
        if i < len(param_ts) - 1:
            out = out.relu() if activation == "relu" else out.sigmoid()
    return out


# -- checkpoint serialization --------------------------------------------------


def _arrays(net: StudentNet) -> list[np.ndarray]:
    """Payload order: the teacher's layout (each layer's theta, then its bias),
    then every layer's log_sigma2."""
    return ([a for l in net.layers for a in (l.theta, l.bias)]
            + [l.log_sigma2 for l in net.layers])


def student_digest(net: StudentNet) -> str:
    return checkpoint.digest(_arrays(net))


def save_student(net: StudentNet, base_path, tau: float | None = None) -> str:
    return checkpoint.write_artifact(base_path, "variational_mlp", {
        "architecture": "-".join(str(w) for w in net.arch),
        "activation": net.activation,
        "seed": net.seed,
        "tau": None if tau is None else repr(float(tau)),
    }, _arrays(net))


def load_student(base_path):
    """Returns ``(net, tau)`` where tau is None if the checkpoint has none."""
    fields, arrays = checkpoint.read_artifact(base_path, "variational_mlp")
    n = len(fields["architecture"]) - 1
    layers = [VariationalDenseLayer(theta, log_sigma2, bias) for theta, bias, log_sigma2
              in zip(arrays[0:2 * n:2], arrays[1:2 * n:2], arrays[2 * n:])]
    return StudentNet(layers, activation=fields["activation"], seed=fields["seed"]), fields["tau"]
