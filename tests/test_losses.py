"""Objective terms: data loss, softened hint, group norms, and their assembly."""

from dataclasses import replace

import numpy as np
import pytest

import reference_autograd
from sparsedistill.autograd import Tensor
from sparsedistill.errors import DomainError, ShapeError, UsageError
from sparsedistill.losses import (VARIANTS, BsrContext, LossConfig, _log_softmax, bsr_node,
                                  cross_entropy_node, effective_lambda_v, hint_node,
                                  make_bsr_context, resolve_variant, teacher_inputs,
                                  total_loss, warmup_scale)
from sparsedistill.student import init_student, kl_svd_node
from sparsedistill.tensor import RngStream

from conftest import assert_matches_reference, finite_difference_check, net_param_tensors
from reference_bsr import bsr, concat_weights

LN_10 = 2.3025850929940457
CE_DIAG2 = 0.2395447662218845          # logit 2 on the true class, 0 elsewhere
CE_123_AT_1 = 1.4076059644443803       # logits [1, 2, 3], true class 1
HINT_UNIT = 0.92423431452001952        # student [1, 0] vs teacher [0, 1] at T=1


def ce(logits, labels) -> float:
    return cross_entropy_node(Tensor(logits), labels).item()


def hint(zs, zt, temperature, reverse=False) -> float:
    return hint_node(Tensor(zs), zt, temperature, reverse).item()


# -- each term composed from single graph operations of the frozen reference engine,
#    the references for the fused nodes ------------------------------------------------


def composed_log_softmax(z):
    shifted = z - reference_autograd.Tensor(z.data.max(axis=1, keepdims=True))
    return shifted - shifted.exp().sum(axis=1, keepdims=True).log()


def composed_ce(logits, labels):
    onehot = np.zeros(logits.data.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    logp = composed_log_softmax(logits)
    return (logp * reference_autograd.Tensor(onehot)).sum() * (-1.0 / max(len(labels), 1))


def composed_hint(student_logits, teacher_logits, temperature, reverse):
    lps = composed_log_softmax(student_logits * (1.0 / temperature))
    lpt = reference_autograd.Tensor(_log_softmax(teacher_logits / temperature))
    if reverse:
        kl_rows = (reference_autograd.Tensor(np.exp(lpt.data)) * (lpt - lps)).sum(axis=1)
    else:
        kl_rows = (lps.exp() * (lps - lpt)).sum(axis=1)
    return kl_rows.mean() * (2.0 * temperature ** 2)


def composed_bsr(ctx, thetas):
    if ctx.variant == "l1lq":
        total = reference_autograd.Tensor(ctx.teacher_row_agg)
        for theta in thetas:
            total = total + (theta.abs() ** ctx.q).sum(axis=1).pad_to(ctx.m)
        return total.qroot(ctx.q).sum()
    parts = [reference_autograd.Tensor(ctx.teacher_row_agg)]
    parts += [theta.abs().max(axis=1).pad_to(ctx.m) for theta in thetas]
    return reference_autograd.maximum_of(parts).sum()


class TestLossConfig:
    def test_temperature_validation(self):
        with pytest.raises(UsageError):
            LossConfig(temperature=0.0)
        with pytest.raises(UsageError):
            LossConfig(temperature=-2.0)
        with pytest.raises(UsageError):
            LossConfig(temperature=float("nan"))

    def test_temperature_must_be_finite(self):
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(UsageError, match=f"temperature must be .*, got {bad}"):
                LossConfig(temperature=bad)

    def test_warmup_epochs_must_not_be_negative(self):
        with pytest.raises(UsageError, match="warmup_epochs must be >= 0, got -4"):
            LossConfig(warmup_epochs=-4)
        assert LossConfig(warmup_epochs=0).warmup_epochs == 0

    def test_warmup_epochs_must_be_an_integer(self):
        for bad in (2.5, True, float("nan"), float("inf"), None):
            with pytest.raises(UsageError, match=f"warmup_epochs {bad!r} is not an integer"):
                LossConfig(warmup_epochs=bad)
        cfg = LossConfig(warmup_epochs=4.0)
        assert cfg.warmup_epochs == 4 and type(cfg.warmup_epochs) is int

    def test_hint_reverse_must_be_a_bool(self):
        for bad in ("no", "false", 0, 1, None):
            with pytest.raises(UsageError, match=f"unknown hint_reverse {bad!r}; expected one of"):
                LossConfig(hint_reverse=bad)
        assert LossConfig(hint_reverse=True).hint_reverse is True

    def test_variant_name_validation(self):
        with pytest.raises(UsageError):
            LossConfig(kl_variant="gauss")
        with pytest.raises(UsageError):
            LossConfig(bsr_variant="l2l1")

    def test_q_validation(self):
        with pytest.raises(UsageError):
            LossConfig(bsr_variant="l1lq", q=0.5)
        with pytest.raises(UsageError):
            LossConfig(bsr_variant="l1lq", q=float("inf"))
        LossConfig(bsr_variant="l1lq", q=1.0)
        LossConfig(q=0.5)  # only checked when the l1lq norm is active
        with pytest.raises(UsageError):
            LossConfig(q=float("nan"))

    @staticmethod
    def assert_weight_rejected(name):
        for bad in (-1.0, -3.0, float("nan"), float("inf")):
            with pytest.raises(UsageError, match=name):
                LossConfig(**{name: bad})
        LossConfig(**{name: 0.0})

    def test_hint_weight_validation(self):
        self.assert_weight_rejected("lambda_t")

    def test_group_weight_validation(self):
        self.assert_weight_rejected("lambda_g")

    def test_group_weight_needs_a_group_norm(self):
        with pytest.raises(UsageError, match="lambda_g 0.5 needs a group norm"):
            LossConfig(lambda_g=0.5)
        assert LossConfig(lambda_g=0.5, bsr_variant="l1linf").lambda_g == 0.5

    def test_kl_weight_validation(self):
        self.assert_weight_rejected("lambda_v_max")
        LossConfig(lambda_v_max=None)


class TestResolveVariant:
    def test_simple_disables_everything(self):
        cfg = resolve_variant("simple")
        assert cfg.lambda_t == 0.0 and cfg.kl_variant is None and cfg.lambda_g == 0.0

    def test_kd_keeps_hint_only(self):
        cfg = resolve_variant("kd")
        assert cfg.lambda_t == 2.0 and cfg.kl_variant is None and cfg.lambda_g == 0.0

    def test_kd_variants_set_posterior_penalty(self):
        assert resolve_variant("kd-svd").kl_variant == "svd"
        assert resolve_variant("kd-vbd").kl_variant == "vbd"
        assert resolve_variant("kd-svd").lambda_g == 0.0

    def test_st_variants_activate_group_norm(self):
        for name, kl in (("st-svd", "svd"), ("st-vbd", "vbd")):
            cfg = resolve_variant(name)
            assert cfg.kl_variant == kl
            assert cfg.bsr_variant == "l1lq"
            assert cfg.lambda_g == 0.01

    def test_st_keeps_preset_group_variant(self):
        base = LossConfig(bsr_variant="l1linf")
        assert resolve_variant("st-vbd", base).bsr_variant == "l1linf"

    def test_named_group_variant_turns_the_term_on_for_any_variant(self):
        for name in ("simple", "kd", "kd-vbd"):
            with pytest.raises(UsageError, match=f"lambda_g 0.5 would be ignored: variant '{name}'"):
                resolve_variant(name, lambda_g=0.5)
            cfg = resolve_variant(name, LossConfig(bsr_variant="l1linf"))
            assert cfg.bsr_variant == "l1linf" and cfg.lambda_g == 0.01
            assert resolve_variant(name, LossConfig(bsr_variant="l1lq"), lambda_g=0.5).lambda_g == 0.5

    def test_explicit_group_weight_is_honored(self):
        assert resolve_variant("st-svd", lambda_g=0.5).lambda_g == 0.5
        assert resolve_variant("st-svd", lambda_g=0.0).lambda_g == 0.0

    def test_settings_the_run_would_ignore_are_refused(self):
        with pytest.raises(UsageError, match="lambda_g -1.0 would be ignored: variant 'kd'"):
            resolve_variant("kd", LossConfig(), lambda_g=-1.0)
        with pytest.raises(UsageError, match="q 7.0 would be ignored: variant 'kd'"):
            resolve_variant("kd", LossConfig(q=7.0))
        with pytest.raises(UsageError, match="q 3.0 would be ignored: variant 'st-svd'"):
            resolve_variant("st-svd", LossConfig(q=3.0), lambda_g=0.0)
        assert resolve_variant("st-svd", LossConfig(q=3.0)).q == 3.0

    def test_base_fields_survive(self):
        base = LossConfig(temperature=4.0, lambda_t=1.0, warmup_epochs=3)
        cfg = resolve_variant("kd-svd", base)
        assert cfg.temperature == 4.0 and cfg.lambda_t == 1.0 and cfg.warmup_epochs == 3

    def test_unknown_variant_lists_options(self):
        with pytest.raises(UsageError) as err:
            resolve_variant("fancy")
        for name in VARIANTS:
            assert name in str(err.value)


class TestTeacherInputs:
    @pytest.mark.parametrize("variant, lambda_t, needs", [
        ("simple", 2.0, ()), ("kd", 2.0, ("rows",)), ("kd-svd", 0.0, ()),
        ("st-svd", 2.0, ("rows", "weights")), ("st-vbd", 0.0, ("weights",))])
    def test_each_weighted_term_needs_its_teacher_input(self, variant, lambda_t, needs):
        assert teacher_inputs(resolve_variant(variant, LossConfig(lambda_t=lambda_t))) == needs


class TestWarmup:
    def test_ramp_endpoints(self):
        assert warmup_scale(0, 10) == 0.0
        assert warmup_scale(5, 10) == 0.5
        assert warmup_scale(10, 10) == 1.0
        assert warmup_scale(50, 10) == 1.0

    def test_disabled_warmup(self):
        assert warmup_scale(0, 0) == 1.0
        assert warmup_scale(0, -3) == 1.0

    def test_monotone(self):
        scales = [warmup_scale(e, 7) for e in range(20)]
        assert all(b >= a for a, b in zip(scales, scales[1:]))

    def test_effective_weight_defaults_to_inverse_train_size(self):
        cfg = LossConfig(warmup_epochs=0)
        assert effective_lambda_v(cfg, epoch=0, n_train=500) == pytest.approx(1.0 / 500)

    def test_effective_weight_uses_ceiling_and_ramp(self):
        cfg = LossConfig(lambda_v_max=0.4, warmup_epochs=4)
        assert effective_lambda_v(cfg, 1, 10) == pytest.approx(0.1)
        assert effective_lambda_v(cfg, 8, 10) == pytest.approx(0.4)


class TestCrossEntropy:
    def test_uniform_logits_give_log_class_count(self):
        logits = np.zeros((7, 10))
        labels = np.arange(7) % 10
        assert abs(ce(logits, labels) - LN_10) < 1e-12

    def test_confident_correct_prediction_is_near_zero(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 5, 9])
        logits[np.arange(4), labels] = 40.0
        assert ce(logits, labels) < 1e-12

    def test_frozen_fixtures(self):
        diag = np.eye(3) * 2.0
        assert abs(ce(diag, [0, 1, 2]) - CE_DIAG2) < 1e-12
        assert abs(ce(np.array([[1.0, 2.0, 3.0]]), [1]) - CE_123_AT_1) < 1e-12

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 5)) * 3
        labels = rng.integers(0, 5, size=6)
        shifted = logits + rng.normal(size=(6, 1)) * 100
        assert abs(ce(logits, labels) - ce(shifted, labels)) < 1e-9

    def test_matches_scipy_log_softmax(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(1)
        for _ in range(5):
            logits = rng.normal(size=(8, 6)) * 4
            labels = rng.integers(0, 6, size=8)
            expected = -special.log_softmax(logits, axis=1)[np.arange(8), labels].mean()
            assert abs(ce(logits, labels) - expected) < 1e-12

    def test_label_validation(self):
        with pytest.raises(DomainError):
            ce(np.zeros((2, 3)), [0, 3])
        with pytest.raises(DomainError):
            ce(np.zeros((2, 3)), [-1, 0])
        with pytest.raises(ShapeError):
            ce(np.zeros((2, 3)), [[0], [1]])

    def test_node_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(3)
        logits_data = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        logits = Tensor(logits_data, requires_grad=True)
        cross_entropy_node(logits, labels).backward()
        p = np.exp(logits_data - logits_data.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        onehot = np.zeros((5, 4))
        onehot[np.arange(5), labels] = 1.0
        np.testing.assert_allclose(logits.grad, (p - onehot) / 5, atol=1e-12)

    def test_node_gradcheck(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=5)
        finite_difference_check(lambda: cross_entropy_node(logits, labels), [logits])

    def test_node_stable_at_large_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]), requires_grad=True)
        node = cross_entropy_node(logits, [0, 1])
        assert np.isfinite(node.item()) and node.item() < 1e-12
        node.backward()
        assert np.all(np.isfinite(logits.grad))


class TestHint:
    def test_identical_logits_give_zero(self):
        z = np.random.default_rng(5).normal(size=(6, 4)) * 3
        assert abs(hint(z, z, temperature=2.0)) < 1e-12

    def test_frozen_unit_fixture(self):
        s = np.array([[1.0, 0.0]])
        t = np.array([[0.0, 1.0]])
        assert abs(hint(s, t, temperature=1.0) - HINT_UNIT) < 1e-12

    def test_matches_scipy_divergence(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(6)
        for temperature in (1.0, 2.0, 4.0):
            zs = rng.normal(size=(5, 6)) * 2
            zt = rng.normal(size=(5, 6)) * 2
            ps = special.softmax(zs / temperature, axis=1)
            pt = special.softmax(zt / temperature, axis=1)
            expected = 2 * temperature ** 2 * special.rel_entr(ps, pt).sum(axis=1).mean()
            assert abs(hint(zs, zt, temperature) - expected) < 1e-10

    def test_reverse_swaps_roles(self):
        rng = np.random.default_rng(7)
        zs, zt = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert hint(zs, zt, 2.0, reverse=True) == pytest.approx(
            hint(zt, zs, 2.0, reverse=False), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            zs, zt = rng.normal(size=(3, 4)) * 4, rng.normal(size=(3, 4)) * 4
            assert hint(zs, zt, 2.0) >= 0.0

    def test_validation(self):
        for temperature in (0.0, -1.0):
            with pytest.raises(DomainError):
                hint_node(Tensor(np.zeros((1, 2))), np.zeros((1, 2)), temperature)
        with pytest.raises(ShapeError):
            hint_node(Tensor(np.zeros((1, 2))), np.zeros((1, 3)), temperature=1.0)

    def test_temperature_must_be_a_finite_real_number(self):
        for temperature in (float("nan"), float("inf"), "2"):
            with pytest.raises(DomainError, match=f"temperature must be .*, got {temperature!r}"):
                hint_node(Tensor(np.zeros((1, 2))), np.zeros((1, 2)), temperature)

    def test_overflowing_scale_gives_a_non_finite_value(self):
        # 2 T^2 overflows in numpy floats, which the training loop's divergence check catches
        for teacher in (np.ones((2, 3)), np.eye(3)[:2] * 1e300):
            assert not np.isfinite(hint(np.zeros((2, 3)), teacher, 1e300))

    def test_node_gradcheck_both_directions(self):
        rng = np.random.default_rng(10)
        zt = rng.normal(size=(4, 5)) * 2
        for reverse in (False, True):
            zs = Tensor(rng.normal(size=(4, 5)) * 2, requires_grad=True)
            finite_difference_check(lambda: hint_node(zs, zt, 2.0, reverse=reverse), [zs])

    def test_gradient_vanishes_at_match(self):
        z = np.random.default_rng(11).normal(size=(3, 4))
        zs = Tensor(z.copy(), requires_grad=True)
        hint_node(zs, z, 2.0).backward()
        np.testing.assert_allclose(zs.grad, 0.0, atol=1e-12)


class TestConcatWeights:
    def test_padding_layout(self):
        teacher = [np.ones((3, 2)), np.ones((2, 4))]
        student = [np.full((1, 2), 5.0)]
        cat = concat_weights(teacher, student)
        assert cat.tensor.shape == (3, 4, 3)
        assert cat.n_teacher == 2
        assert cat.shapes == [(3, 2), (2, 4), (1, 2)]
        assert cat.m == 3
        np.testing.assert_array_equal(cat.tensor[:3, :2, 0], 1.0)
        np.testing.assert_array_equal(cat.tensor[:, 2:, 0], 0.0)
        np.testing.assert_array_equal(cat.tensor[0, :2, 2], 5.0)
        np.testing.assert_array_equal(cat.tensor[1:, :, 2], 0.0)

    def test_rejects_non_matrices(self):
        with pytest.raises(ShapeError):
            concat_weights([np.zeros(3)], [np.zeros((2, 2))])

    def test_full_scale_shapes(self):
        teacher = [np.zeros((784, 1200)), np.zeros((1200, 1200)), np.zeros((1200, 10))]
        student = [np.zeros((784, 500)), np.zeros((500, 50)), np.zeros((50, 10))]
        cat = concat_weights(teacher, student)
        assert cat.tensor.shape == (1200, 1200, 6)
        assert cat.n_teacher == 3


class TestBsrNumeric:
    def test_single_row_euclidean_fixture(self):
        cat = concat_weights([np.array([[3.0, 4.0]])], [])
        assert bsr(cat, "l1lq", q=2.0) == pytest.approx(5.0, abs=1e-12)

    def test_row_max_fixture(self):
        cat = concat_weights([np.array([[1.0, -2.0], [0.0, 3.0]])], [])
        assert bsr(cat, "l1linf") == pytest.approx(5.0, abs=1e-12)

    def test_q_one_is_plain_absolute_sum(self):
        rng = np.random.default_rng(12)
        mats = [rng.normal(size=(3, 4)), rng.normal(size=(2, 2))]
        cat = concat_weights(mats[:1], mats[1:])
        assert bsr(cat, "l1lq", q=1.0) == pytest.approx(
            sum(np.abs(m).sum() for m in mats), rel=1e-12)

    def test_large_q_approaches_row_max(self):
        rng = np.random.default_rng(13)
        cat = concat_weights([rng.uniform(0.5, 2.0, size=(4, 3))], [])
        assert bsr(cat, "l1lq", q=64.0) == pytest.approx(bsr(cat, "l1linf"), rel=0.05)

    def test_homogeneity(self):
        rng = np.random.default_rng(14)
        mats = [rng.normal(size=(3, 5)), rng.normal(size=(4, 2))]
        cat = concat_weights(mats[:1], mats[1:])
        scaled = concat_weights([mats[0] * -2.5], [mats[1] * -2.5])
        for variant, q in (("l1lq", 2.0), ("l1lq", 3.0), ("l1linf", 2.0)):
            assert bsr(scaled, variant, q) == pytest.approx(
                2.5 * bsr(cat, variant, q), rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = [rng.normal(size=(3, 4)), rng.normal(size=(2, 3))]
            b = [rng.normal(size=(3, 4)), rng.normal(size=(2, 3))]
            cat_a = concat_weights(a[:1], a[1:])
            cat_b = concat_weights(b[:1], b[1:])
            cat_ab = concat_weights([a[0] + b[0]], [a[1] + b[1]])
            for variant, q in (("l1lq", 2.0), ("l1linf", 2.0)):
                assert bsr(cat_ab, variant, q) <= (
                    bsr(cat_a, variant, q) + bsr(cat_b, variant, q) + 1e-9)

    def test_zero_padding_neutrality_exact(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(3, 4))
        small = concat_weights([w], [])
        padded = concat_weights([w], [np.zeros((5, 7))])
        for variant, q in (("l1lq", 2.0), ("l1lq", 3.0), ("l1linf", 2.0)):
            assert bsr(small, variant, q) == bsr(padded, variant, q)

    def test_norm_ordering(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            mats = [rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
                    for _ in range(3)]
            cat = concat_weights(mats[:2], mats[2:])
            linf = bsr(cat, "l1linf")
            l2 = bsr(cat, "l1lq", q=2.0)
            l1 = bsr(cat, "l1lq", q=1.0)
            assert linf <= l2 + 1e-12
            assert l2 <= l1 + 1e-12

    def test_zero_tensor_and_validation(self):
        cat = concat_weights([np.zeros((2, 2))], [])
        assert bsr(cat, "l1lq", q=2.0) == 0.0
        assert bsr(cat, "l1linf") == 0.0
        with pytest.raises(DomainError):
            bsr(cat, "l1lq", q=0.5)
        with pytest.raises(UsageError):
            bsr(cat, "elastic")


class TestBsrGraph:
    def make_sets(self, seed):
        rng = np.random.default_rng(seed)
        teacher = [rng.normal(size=(6, 3)), rng.normal(size=(3, 5))]
        student = [rng.normal(size=(4, 2)), rng.normal(size=(2, 2))]
        return teacher, student

    def test_node_equals_materialized_norm(self):
        for seed in range(5):
            teacher, student = self.make_sets(seed)
            cat = concat_weights(teacher, student)
            shapes = [s.shape for s in student]
            for variant, q in (("l1lq", 1.0), ("l1lq", 2.0), ("l1lq", 3.0), ("l1linf", 2.0)):
                ctx = make_bsr_context(teacher, shapes, variant, q)
                node = bsr_node(ctx, [Tensor(s) for s in student])
                assert node.item() == pytest.approx(bsr(cat, variant, q), rel=1e-10)

    def test_context_validation(self):
        teacher, student = self.make_sets(0)
        with pytest.raises(DomainError):
            make_bsr_context(teacher, [s.shape for s in student], "l1lq", q=0.0)
        with pytest.raises(UsageError):
            make_bsr_context(teacher, [s.shape for s in student], "super")

    def test_context_q_must_be_a_real_number(self):
        teacher, student = self.make_sets(0)
        for q in (True, "2"):
            with pytest.raises(DomainError, match=f"q must be a real number, got {q!r}"):
                make_bsr_context(teacher, [s.shape for s in student], "l1lq", q=q)

    def test_teacher_aggregates_not_mutated(self):
        teacher, student = self.make_sets(1)
        ctx = make_bsr_context(teacher, [s.shape for s in student], "l1lq", 2.0)
        before = ctx.teacher_row_agg.copy()
        thetas = [Tensor(s, requires_grad=True) for s in student]
        bsr_node(ctx, thetas).backward()
        np.testing.assert_array_equal(ctx.teacher_row_agg, before)

    def test_euclidean_gradcheck(self):
        teacher, student = self.make_sets(2)
        ctx = make_bsr_context(teacher, [s.shape for s in student], "l1lq", 2.0)
        thetas = [Tensor(np.sign(s) * (np.abs(s) + 0.2), requires_grad=True)
                  for s in student]
        finite_difference_check(lambda: bsr_node(ctx, thetas), thetas)

    def test_row_max_gradcheck(self):
        rng = np.random.default_rng(3)
        teacher = [rng.uniform(0.1, 0.4, size=(5, 3))]
        student = [rng.uniform(1.0, 3.0, size=(4, 3)), rng.uniform(0.45, 0.9, size=(3, 2))]
        ctx = make_bsr_context(teacher, [s.shape for s in student], "l1linf", 2.0)
        thetas = [Tensor(s, requires_grad=True) for s in student]
        finite_difference_check(lambda: bsr_node(ctx, thetas), thetas)


class TestTotalLoss:
    def setup_case(self, seed=0, **overrides):
        net = init_student([6, 4, 3], seed=seed)
        params = net_param_tensors(net)
        rng = np.random.default_rng(seed + 100)
        xb = rng.normal(size=(5, 6))
        yb = rng.integers(0, 3, size=5)
        teacher_rows = rng.normal(size=(5, 3)) * 2
        teacher_weights = [rng.normal(size=(6, 5)), rng.normal(size=(5, 3))]
        cfg = LossConfig(**{**dict(temperature=2.0, lambda_t=2.0, lambda_v_max=0.01,
                                   lambda_g=0.01, kl_variant="svd", bsr_variant="l1lq",
                                   q=2.0, warmup_epochs=0), **overrides})
        ctx = None
        if cfg.bsr_variant is not None:
            ctx = make_bsr_context(teacher_weights, [l.theta.shape for l in net.layers],
                                   cfg.bsr_variant, cfg.q)
        return params, xb, yb, teacher_rows, cfg, ctx

    def test_requires_rng(self):
        params, xb, yb, rows, cfg, ctx = self.setup_case()
        with pytest.raises(UsageError):
            total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=100, bsr_ctx=ctx)

    def test_weighted_term_needs_its_input(self):
        params, xb, yb, rows, cfg, ctx = self.setup_case()
        for missing_rows, missing_ctx, named in ((None, ctx, "lambda_t 2.0"),
                                                 (rows, None, "lambda_g 0.01")):
            with pytest.raises(UsageError, match=named):
                total_loss(params, xb, yb, missing_rows, cfg, epoch=0, n_train=100,
                           bsr_ctx=missing_ctx, rng=RngStream(0))

    def test_breakdown_composes_to_total(self):
        params, xb, yb, rows, cfg, ctx = self.setup_case()
        loss, parts = total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=100,
                                 bsr_ctx=ctx, rng=RngStream(0))
        recombined = (parts["ce"] + cfg.lambda_t * parts["hint"]
                      + parts["lambda_v_eff"] * parts["kl"] + cfg.lambda_g * parts["bsr"])
        assert parts["total"] == pytest.approx(recombined, rel=1e-9)
        assert parts["total"] == pytest.approx(loss.item(), rel=1e-15)
        assert parts["lambda_v_eff"] == 0.01
        assert parts["kl"] > 0 and parts["bsr"] > 0 and parts["hint"] > 0

    def test_bare_data_term_configuration(self):
        params, xb, yb, rows, cfg, _ = self.setup_case(
            lambda_t=0.0, lambda_g=0.0, kl_variant=None, bsr_variant=None)
        loss, parts = total_loss(params, xb, yb, None, cfg, epoch=0, n_train=100,
                                 rng=RngStream(0))
        assert parts["hint"] == 0.0 and parts["kl"] == 0.0 and parts["bsr"] == 0.0
        assert parts["total"] == pytest.approx(parts["ce"], rel=1e-15)

    def test_warmup_reflected_in_effective_weight(self):
        params, xb, yb, rows, cfg, ctx = self.setup_case(warmup_epochs=10)
        _, at0 = total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=100,
                            bsr_ctx=ctx, rng=RngStream(0))
        _, at5 = total_loss(params, xb, yb, rows, cfg, epoch=5, n_train=100,
                            bsr_ctx=ctx, rng=RngStream(0))
        assert at0["lambda_v_eff"] == 0.0
        assert at5["lambda_v_eff"] == pytest.approx(0.005)

    def test_kl_at_zero_weight_moves_no_gradient(self):
        # epoch 0 of the warm-up: the KL value is reported, and its backward never runs
        cfg = resolve_variant("kd-svd", LossConfig(warmup_epochs=3))
        runs = []
        for c in (cfg, replace(cfg, kl_variant=None)):
            params, xb, yb, rows, _, _ = self.setup_case()
            loss, parts = total_loss(params, xb, yb, rows, c, epoch=0, n_train=100,
                                     rng=RngStream(0))
            loss.backward()
            runs.append(([t.grad for triple in params for t in triple], parts))
        (grads, parts), (bare_grads, bare_parts) = runs
        assert parts["lambda_v_eff"] == 0.0 and bare_parts["kl"] == 0.0
        net = init_student([6, 4, 3], seed=0)
        assert parts["kl"] == sum(kl_svd_node(Tensor(l.theta), Tensor(l.log_sigma2)).item()
                                  for l in net.layers)
        assert parts["kl"] > 0.0 and parts["total"] == bare_parts["total"]
        assert len(grads) == 6 and all(g is not None for g in grads)
        for got, want in zip(grads, bare_grads):
            np.testing.assert_array_equal(got, want)

    def test_deterministic_under_same_stream(self):
        params, xb, yb, rows, cfg, ctx = self.setup_case()
        a = total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=100,
                       bsr_ctx=ctx, rng=RngStream(4))[0].item()
        b = total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=100,
                       bsr_ctx=ctx, rng=RngStream(4))[0].item()
        assert a == b
        c = total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=100,
                       bsr_ctx=ctx, rng=RngStream(5))[0].item()
        assert a != c

    def test_full_objective_gradcheck(self):
        params, xb, yb, rows, cfg, ctx = self.setup_case(seed=1)
        flat = [t for triple in params for t in triple]
        finite_difference_check(
            lambda: total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=100,
                               bsr_ctx=ctx, rng=RngStream(7), dtype=np.float64)[0],
            flat)

    def test_reverse_hint_direction_changes_value(self):
        params, xb, yb, rows, cfg, ctx = self.setup_case()
        fwd = total_loss(params, xb, yb, rows, cfg, epoch=0, n_train=100,
                         bsr_ctx=ctx, rng=RngStream(0))[1]["hint"]
        rcfg = replace(cfg, hint_reverse=True)
        rev = total_loss(params, xb, yb, rows, rcfg, epoch=0, n_train=100,
                         bsr_ctx=ctx, rng=RngStream(0))[1]["hint"]
        assert fwd != rev


class TestFusedNodesMatchComposedGraphs:
    """Each fused term against the same term composed from single graph operations,
    at the paper's shapes: batch 512, 10 classes, a 784x500 first student layer."""

    def check(self, fused, composed, *arrays):
        """Build both on fresh leaves, backpropagate 0.37 times each, compare; returns
        the fused node's leaves."""
        results = []
        for engine, build in ((Tensor, fused), (reference_autograd.Tensor, composed)):
            leaves = [engine(a.copy(), requires_grad=True) for a in arrays]
            node = build(*leaves)
            (node * 0.37).backward()
            results.append((node, leaves))
        (node, leaves), (want, want_leaves) = results
        assert node._parents == tuple(leaves)
        np.testing.assert_allclose(node.item(), want.item(), rtol=1e-12, atol=0.0)
        for leaf, want_leaf in zip(leaves, want_leaves):
            assert_matches_reference(leaf.grad, want_leaf.grad)
        return leaves

    def test_cross_entropy(self):
        rng = np.random.default_rng(30)
        labels = rng.integers(0, 10, size=512)
        self.check(lambda z: cross_entropy_node(z, labels),
                   lambda z: composed_ce(z, labels), rng.normal(size=(512, 10)) * 4)

    def test_hint_both_directions(self):
        rng = np.random.default_rng(31)
        zs, zt = rng.normal(size=(512, 10)) * 4, rng.normal(size=(512, 10)) * 4
        zt[0] = zs[0]  # a row where the distributions agree
        for reverse in (False, True):
            self.check(lambda z: hint_node(z, zt, 2.0, reverse),
                       lambda z: composed_hint(z, zt, 2.0, reverse), zs)

    @staticmethod
    def paper_weights(seed):
        rng = np.random.default_rng(seed)
        teacher = [rng.normal(size=s) * 0.05 for s in ((784, 1200), (1200, 1200), (1200, 10))]
        student = [rng.normal(size=s) * 0.05 for s in ((784, 500), (500, 50), (50, 10))]
        return teacher, student, [s.shape for s in student]

    def test_l1lq(self):
        teacher, student, shapes = self.paper_weights(32)
        for w in teacher + student:
            w[3] = 0.0  # a row that is zero in every matrix of both networks
        student[0][5, :7] = 0.0
        for q in (1.0, 2.0, 3.0):
            ctx = make_bsr_context(teacher, shapes, "l1lq", q)
            thetas = self.check(lambda *t: bsr_node(ctx, list(t)),
                                lambda *t: composed_bsr(ctx, list(t)), *student)
            assert all(np.all(t.grad[3] == 0.0) for t in thetas)
            assert np.all(thetas[0].grad[5, :7] == 0.0) and np.all(thetas[0].grad[5, 7:] != 0.0)

    def test_l1linf_ties(self):
        teacher, student, shapes = self.paper_weights(33)
        agg = make_bsr_context(teacher, shapes, "l1linf").teacher_row_agg
        student[0][1] *= 0.01
        student[0][1, 4] = -agg[1]          # equal to the teacher's row maximum: teacher wins
        student[1][2, [2, 7]] = 9.0         # two equal entries in one row: the first wins
        student[0][6, 3] = student[1][6, 8] = -9.0  # equal across layers: the earlier wins
        student[0][7] = 0.0
        student[0][7, 1] = 9.0              # theta = 0 entries beside the winner
        ctx = make_bsr_context(teacher, shapes, "l1linf")
        thetas = self.check(lambda *t: bsr_node(ctx, list(t)),
                            lambda *t: composed_bsr(ctx, list(t)), *student)
        g0, g1 = thetas[0].grad, thetas[1].grad
        assert np.all(g0[1] == 0.0)
        assert g1[2, 2] == 0.37 and np.count_nonzero(g1[2]) == 1
        assert g0[6, 3] == -0.37 and np.all(g1[6] == 0.0)
        assert g0[7, 1] == 0.37 and np.count_nonzero(g0[7]) == 1
