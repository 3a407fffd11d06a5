"""Every graph entry point that ``perfbench/tracing.py`` builds its traced replica
and its per-term pass from, built on a tiny batch, backpropagated into every leaf,
and stepped with Adam.

The traced benchmark run is the only other caller of several of these, so this
keeps a renamed or removed entry point from surfacing first as a broken
benchmark.
"""

import numpy as np
import pytest

from sparsedistill.autograd import Tensor
from sparsedistill.losses import (LossConfig, bsr_node, cross_entropy_node, hint_node,
                                  make_bsr_context, resolve_variant, total_loss)
from sparsedistill.optim import Adam
from sparsedistill.student import init_student, kl_svd_node, kl_vbd_node, student_logits_node
from sparsedistill.tensor import RngStream

from conftest import net_param_tensors

ARCH = [12, 6, 5, 3]
TEACHER_SHAPES = [(12, 8), (8, 8), (8, 3)]
BATCH = 4


def student_params(activation):
    return net_param_tensors(init_student(ARCH, seed=0, activation=activation))


def teacher_params():
    rng = np.random.default_rng(1)
    return ([Tensor(rng.normal(size=s) * 0.3, requires_grad=True) for s in TEACHER_SHAPES],
            [Tensor(rng.normal(size=s[1]) * 0.1, requires_grad=True) for s in TEACHER_SHAPES])


def mlp_graph(weight_ts, bias_ts, x, activation):
    out = Tensor(x)
    for i, (w, b) in enumerate(zip(weight_ts, bias_ts)):
        out = out @ w + b
        if i < len(weight_ts) - 1:
            out = out.relu() if activation == "relu" else out.sigmoid()
    return out


def batch():
    rng = np.random.default_rng(2)
    return rng.random((BATCH, ARCH[0])), np.array([0, 1, 2, 1]), rng.normal(size=(BATCH, 3))


def entry_points(activation):
    """``name -> (build, leaves)`` for each entry point the traced run calls."""
    xb, yb, rows = batch()
    eps = [RngStream(0).child(5, 0, 0).child(i).normal(BATCH, h) for i, h in enumerate(ARCH[1:])]
    teacher_weights = [w.data for w in teacher_params()[0]]
    shapes = list(zip(ARCH[:-1], ARCH[1:]))
    out = {}

    params = student_params(activation)
    out["student_logits_node"] = (
        lambda: student_logits_node(params, xb, eps, activation).sum(),
        [t for triple in params for t in triple])

    logits = Tensor(np.random.default_rng(3).normal(size=(BATCH, 3)), requires_grad=True)
    out["cross_entropy_node"] = (lambda: cross_entropy_node(logits, yb), [logits])
    for reverse in (False, True):
        out[f"hint_node reverse={reverse}"] = (
            lambda reverse=reverse: hint_node(logits, rows, 2.0, reverse), [logits])

    for node in (kl_svd_node, kl_vbd_node):
        for i, (theta, log_sigma2, _) in enumerate(student_params(activation)):
            out[f"{node.__name__} layer {i}"] = (
                lambda node=node, theta=theta, log_sigma2=log_sigma2: node(theta, log_sigma2),
                [theta, log_sigma2])

    for variant in ("l1lq", "l1linf"):
        ctx = make_bsr_context(teacher_weights, shapes, variant, 2.0)
        thetas = [theta for theta, _, _ in student_params(activation)]
        out[f"bsr_node {variant}"] = (lambda ctx=ctx, thetas=thetas: bsr_node(ctx, thetas), thetas)

    for name in ("st-svd", "kd"):
        cfg = resolve_variant(name, LossConfig(warmup_epochs=0))
        ctx = make_bsr_context(teacher_weights, shapes, cfg.bsr_variant or "l1lq", cfg.q)
        full = student_params(activation)
        out[f"total_loss {name}"] = (
            lambda cfg=cfg, ctx=ctx, full=full: total_loss(
                full, xb, yb, rows, cfg, epoch=0, n_train=100,
                bsr_ctx=ctx if cfg.lambda_g != 0.0 else None,
                rng=RngStream(0).child(5, 0, 0), activation=activation)[0],
            [t for triple in full for t in triple])

    weights, biases = teacher_params()
    out["teacher graph"] = (
        lambda: cross_entropy_node(mlp_graph(weights, biases, xb, activation), yb),
        weights + biases)
    return out


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_entry_points_backpropagate_into_every_leaf(activation):
    for name, (build, leaves) in entry_points(activation).items():
        node = build()
        assert node.data.shape == () and np.isfinite(node.item()), name
        node.backward()
        for i, leaf in enumerate(leaves):
            assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape, (name, i)
            assert np.all(np.isfinite(leaf.grad)) and np.any(leaf.grad != 0.0), (name, i)
        before = [leaf.data.copy() for leaf in leaves]
        Adam(leaves, lr=1e-2).step()
        assert all(not np.array_equal(b, leaf.data) for b, leaf in zip(before, leaves)), name
