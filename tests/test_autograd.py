"""Reverse-mode graph: every operation's gradient against finite differences.

The engine has only ``+``, ``*``, ``@``, ``relu``, ``sigmoid`` and ``sum``.
Tests of every other operation run against ``reference_autograd``, a frozen
fuller engine from which the reference tests compose each loss term that the
library computes as one fused node.
"""

import numpy as np
import pytest

import reference_autograd as ref
from reference_autograd import constant, maximum, maximum_of, parameter
from sparsedistill.autograd import Tensor
from sparsedistill.optim import _clip_global_norm
from sparsedistill.student import _noisy_layer_node

from conftest import finite_difference_check


def leaf(rng, shape, lo=-2.0, hi=2.0, engine=Tensor):
    return engine(rng.uniform(lo, hi, size=shape), requires_grad=True)


class TestForwardValues:
    def test_item_and_shape(self):
        assert Tensor([[3.0]]).item() == 3.0
        assert ref.Tensor([[3.0]]).shape == (1, 1)

    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_constant_and_parameter_flags(self):
        assert not constant([1.0]).requires_grad
        assert parameter([1.0]).requires_grad

    def test_constant_gets_no_gradient(self):
        c = constant([2.0, 3.0])
        p = parameter([1.0, 1.0])
        (c * p).sum().backward()
        assert c.grad is None
        np.testing.assert_array_equal(p.grad, [2.0, 3.0])


class TestArithmeticGradients:
    def test_add_with_broadcast(self):
        rng = np.random.default_rng(0)
        a, b = leaf(rng, (3, 4)), leaf(rng, (4,))
        finite_difference_check(lambda: (a + b).sum() * 0.7, [a, b])

    def test_radd_and_rsub_scalars(self):
        rng = np.random.default_rng(1)
        a = leaf(rng, (2, 3))
        finite_difference_check(lambda: (1.5 + a).sum(), [a])
        r = ref.Tensor(a.data, requires_grad=True)
        finite_difference_check(lambda: (1.5 - r).sum(), [r])

    def test_mul_with_broadcast(self):
        rng = np.random.default_rng(2)
        a, b = leaf(rng, (3, 1)), leaf(rng, (1, 4))
        finite_difference_check(lambda: (a * b).sum(), [a, b])

    def test_div(self):
        rng = np.random.default_rng(3)
        a = leaf(rng, (3, 3), engine=ref.Tensor)
        b = leaf(rng, (3, 3), lo=0.5, hi=2.0, engine=ref.Tensor)
        finite_difference_check(lambda: (a / b).sum(), [a, b])

    def test_pow(self):
        rng = np.random.default_rng(4)
        for exponent in (2, 3, 0.5):
            a = leaf(rng, (2, 4), lo=0.5, hi=2.0, engine=ref.Tensor)
            finite_difference_check(lambda: (a ** exponent).sum(), [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            ref.Tensor([1.0]) ** ref.Tensor([2.0])

    def test_matmul(self):
        rng = np.random.default_rng(5)
        a, b = leaf(rng, (3, 5)), leaf(rng, (5, 2))
        finite_difference_check(lambda: (a @ b).sum(), [a, b])

    def test_neg(self):
        rng = np.random.default_rng(6)
        a = leaf(rng, (4,), engine=ref.Tensor)
        finite_difference_check(lambda: (-a).sum(), [a])


class TestElementwiseGradients:
    def test_exp_log_sqrt(self):
        rng = np.random.default_rng(7)
        a = leaf(rng, (3, 3), lo=0.3, hi=2.0, engine=ref.Tensor)
        finite_difference_check(lambda: a.exp().sum(), [a])
        finite_difference_check(lambda: a.log().sum(), [a])
        finite_difference_check(lambda: a.sqrt().sum(), [a])

    def test_abs_away_from_kink(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(0.2, 2.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
        a = ref.Tensor(data, requires_grad=True)
        finite_difference_check(lambda: a.abs().sum(), [a])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(0.2, 2.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
        a = Tensor(data, requires_grad=True)
        finite_difference_check(lambda: a.relu().sum(), [a])

    def test_sigmoid(self):
        rng = np.random.default_rng(10)
        a = leaf(rng, (3, 4), lo=-4.0, hi=4.0)
        finite_difference_check(lambda: a.sigmoid().sum(), [a])

    def test_clip_gradient_passes_only_inside(self):
        a = ref.Tensor(np.array([-5.0, -0.5, 0.5, 5.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 1.0, 0.0])

    def test_clip_interior_matches_fd(self):
        rng = np.random.default_rng(11)
        a = leaf(rng, (5,), lo=-0.8, hi=0.8, engine=ref.Tensor)
        finite_difference_check(lambda: a.clip(-1.0, 1.0).sum(), [a])

    def test_qroot(self):
        rng = np.random.default_rng(12)
        for q in (2.0, 3.0):
            a = leaf(rng, (4,), lo=0.5, hi=3.0, engine=ref.Tensor)
            finite_difference_check(lambda: a.qroot(q).sum(), [a])

    def test_qroot_zero_subgradient_at_nonpositive(self):
        a = ref.Tensor(np.array([0.0, -1.0, 4.0]), requires_grad=True)
        out = a.qroot(2.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 0.0, 0.25])


class TestReductionGradients:
    def test_sum_variants(self):
        rng = np.random.default_rng(13)
        a = leaf(rng, (3, 4))
        finite_difference_check(lambda: a.sum(), [a])
        r = ref.Tensor(a.data, requires_grad=True)
        finite_difference_check(lambda: (r.sum(axis=0) ** 2).sum(), [r])
        finite_difference_check(lambda: (r.sum(axis=1, keepdims=True) * r).sum(), [r])

    def test_mean(self):
        rng = np.random.default_rng(14)
        a = leaf(rng, (4, 5), engine=ref.Tensor)
        finite_difference_check(lambda: a.mean(), [a])
        finite_difference_check(lambda: (a.mean(axis=1) ** 2).sum(), [a])

    def test_max_routes_to_first_argmax(self):
        a = ref.Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 1.0]]), requires_grad=True)
        out = a.max(axis=1)
        np.testing.assert_array_equal(out.data, [3.0, 2.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 1, 0], [1, 0, 0]])

    def test_max_matches_fd_with_distinct_entries(self):
        rng = np.random.default_rng(15)
        data = rng.permutation(12).reshape(3, 4).astype(np.float64)
        a = ref.Tensor(data, requires_grad=True)
        finite_difference_check(lambda: (a.max(axis=1) ** 2).sum(), [a])

    def test_logsumexp_value_and_gradient(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(4, 6)) * 3
        a = ref.Tensor(data.copy(), requires_grad=True)
        expected = np.log(np.exp(data).sum(axis=1))
        np.testing.assert_allclose(a.logsumexp(axis=1).data, expected, rtol=1e-12)
        finite_difference_check(lambda: (a.logsumexp(axis=1) ** 2).sum(), [a])

    def test_logsumexp_large_logits_stable(self):
        a = ref.Tensor(np.array([[1000.0, 1000.0 + np.log(2.0)]]), requires_grad=True)
        np.testing.assert_allclose(a.logsumexp(axis=1).data, [1000.0 + np.log(3.0)], rtol=1e-12)

    def test_pad_to(self):
        rng = np.random.default_rng(17)
        a = leaf(rng, (3,), engine=ref.Tensor)
        padded = a.pad_to(6)
        np.testing.assert_array_equal(padded.data[3:], 0.0)
        finite_difference_check(lambda: (a.pad_to(6) ** 2).sum(), [a])

    def test_pad_to_validation(self):
        with pytest.raises(ValueError):
            ref.Tensor(np.zeros((2, 2))).pad_to(8)
        with pytest.raises(ValueError):
            ref.Tensor(np.zeros(5)).pad_to(3)


class TestMaximumOps:
    def test_maximum_tie_goes_to_first(self):
        a = ref.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = ref.Tensor(np.array([1.0, 0.0]), requires_grad=True)
        maximum(a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 0.0])

    def test_maximum_of_chain_matches_numpy(self):
        rng = np.random.default_rng(18)
        tensors = [ref.Tensor(rng.normal(size=5), requires_grad=True) for _ in range(4)]
        out = maximum_of(tensors)
        np.testing.assert_array_equal(out.data, np.max([t.data for t in tensors], axis=0))
        finite_difference_check(lambda: (maximum_of(tensors) ** 2).sum(), tensors)


class TestGraphStructure:
    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x * x + x).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_first_gradient_is_a_copy(self):
        # ``+`` hands one gradient array to both operands; the first one each
        # leaf receives must be its own copy, or ``+=`` and in-place clipping
        # write through to the other
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        _clip_global_norm([a], 0.5)
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_leaf_gradients_share_no_memory(self):
        # matmul, ``*``, relu, sigmoid and the noisy layer hand their fresh products to the
        # leaves without a copy; ``+`` and ``sum`` must still copy, so that clipping, which
        # scales each gradient in place, scales every leaf's once
        rng = np.random.default_rng(21)
        w1, b1 = leaf(rng, (4, 5)), leaf(rng, (5,))
        theta, log_sigma2, bias = leaf(rng, (5, 2)), leaf(rng, (5, 2), -6.0, -2.0), leaf(rng, (2,))
        a, c, d, scale = leaf(rng, (3, 2)), leaf(rng, (3, 2)), leaf(rng, (2,)), leaf(rng, ())
        h = (Tensor(rng.normal(size=(3, 4))) @ w1 + b1).relu()
        y = _noisy_layer_node(h, theta, log_sigma2, bias, rng.normal(size=(3, 2))).sigmoid()
        y = y * scale + (a + c)
        ((y * y).sum() + d.sum()).backward()
        leaves = [w1, b1, theta, log_sigma2, bias, a, c, d, scale]
        for i, p in enumerate(leaves):
            assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.data.shape
            for q in leaves[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)
        before = [p.grad.copy() for p in leaves]
        norm = np.sqrt(sum(np.sum(np.square(g)) for g in before))
        _clip_global_norm(leaves, 0.5)
        for p, g in zip(leaves, before):
            np.testing.assert_allclose(p.grad, g * (0.5 / norm), rtol=1e-14)

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = Tensor(np.array([5.0]), requires_grad=True)
        z = x * y
        (z + x).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])
        np.testing.assert_allclose(y.grad, [2.0])

    def test_deep_chain_matches_closed_form(self):
        x = Tensor(np.array([0.5]), requires_grad=True)
        out = x
        for _ in range(50):
            out = out * 1.1
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.1 ** 50], rtol=1e-12)

    def test_composite_expression_fd(self):
        rng = np.random.default_rng(19)
        w = leaf(rng, (4, 3), engine=ref.Tensor)
        b = leaf(rng, (3,), engine=ref.Tensor)
        x = np.random.default_rng(20).normal(size=(6, 4))
        def build():
            h = (ref.Tensor(x) @ w + b).sigmoid()
            return ((h * h).sum(axis=1).sqrt() + 1e-3).log().mean()
        finite_difference_check(build, [w, b])
