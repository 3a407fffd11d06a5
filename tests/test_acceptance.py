"""Acceptance gates.

The first seven classes are fast property checks that run on every build.
The remaining classes reproduce the headline quantitative results on the
real MNIST files; they are marked ``slow``, deselected by default, and
expect ``MNIST_DIR`` to point at the four classic IDX files.  Run them
with ``pytest -m slow``.
"""

import numpy as np
import pytest

from sparsedistill.autograd import Tensor
from sparsedistill.losses import (LossConfig, bsr_node, cross_entropy_node, hint_node,
                                  make_bsr_context, resolve_variant, total_loss)
from sparsedistill.metrics import csr_bytes, footprint
from sparsedistill.optim import (StudentTrainConfig, evaluate_student, lowdata_sweep,
                                 summarize_sweep, train_student)
from sparsedistill.student import init_student, kl_svd_node, kl_vbd_node, prune_masks
from sparsedistill.teacher import (TeacherConfig, count_parameters, precompute_logits,
                                   train_teacher)
from sparsedistill.tensor import RngStream

from conftest import finite_difference_check, kl_value, make_blobs, net_param_tensors

FD_STEP = 1e-5
FD_TOL = 1e-4


def truncated_fixture(seed=0):
    """Five samples through a 784-8-10 student, teacher context included."""
    rng = np.random.default_rng(seed)
    net = init_student([784, 8, 10], seed=seed)
    params = net_param_tensors(net)
    xb = rng.random((5, 784))
    yb = rng.integers(0, 10, size=5)
    teacher_rows = rng.normal(size=(5, 10)) * 2
    teacher_weights = [rng.normal(size=(784, 12)) * 0.1, rng.normal(size=(12, 10)) * 0.1]
    return params, xb, yb, teacher_rows, teacher_weights


class TestGradientFidelity:
    """Criterion 1: analytic gradients match central differences."""

    def test_data_term(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(5, 10)) * 3, requires_grad=True)
        labels = rng.integers(0, 10, size=5)
        finite_difference_check(lambda: cross_entropy_node(logits, labels),
                                [logits], h=FD_STEP, tol=FD_TOL)

    def test_hint_term(self):
        rng = np.random.default_rng(2)
        zt = rng.normal(size=(5, 10)) * 2
        for reverse in (False, True):
            zs = Tensor(rng.normal(size=(5, 10)) * 2, requires_grad=True)
            finite_difference_check(
                lambda: hint_node(zs, zt, temperature=2.0, reverse=reverse),
                [zs], h=FD_STEP, tol=FD_TOL)

    def test_posterior_penalties(self):
        rng = np.random.default_rng(3)
        sign = np.where(rng.random((784, 8)) < 0.5, -1.0, 1.0)
        theta = Tensor(sign * (0.05 + np.abs(rng.normal(size=(784, 8)))),
                       requires_grad=True)
        logs2 = Tensor(rng.normal(size=(784, 8)) - 3.0, requires_grad=True)
        for node in (kl_svd_node, kl_vbd_node):
            finite_difference_check(lambda: node(theta, logs2),
                                    [theta, logs2], sample=30, h=FD_STEP, tol=FD_TOL)

    def test_group_norms(self):
        _, _, _, _, teacher_weights = truncated_fixture(4)
        rng = np.random.default_rng(5)
        shapes = [(784, 8), (8, 10)]
        thetas = [Tensor(np.where(rng.random(s) < 0.5, -1.0, 1.0)
                         * rng.uniform(0.5, 2.0, size=s), requires_grad=True)
                  for s in shapes]
        for variant, q in (("l1lq", 2.0), ("l1lq", 3.0), ("l1linf", 2.0)):
            ctx = make_bsr_context(teacher_weights, shapes, variant, q)
            finite_difference_check(lambda: bsr_node(ctx, thetas),
                                    thetas, sample=30, h=FD_STEP, tol=FD_TOL)

    def test_combined_objective(self):
        params, xb, yb, teacher_rows, teacher_weights = truncated_fixture(6)
        cfg = LossConfig(temperature=2.0, lambda_t=2.0, lambda_v_max=0.01,
                         lambda_g=0.01, kl_variant="svd", bsr_variant="l1lq",
                         q=2.0, warmup_epochs=0)
        ctx = make_bsr_context(teacher_weights, [(784, 8), (8, 10)], "l1lq", 2.0)
        flat = [t for triple in params for t in triple]
        finite_difference_check(
            lambda: total_loss(params, xb, yb, teacher_rows, cfg, epoch=1,
                               n_train=100, bsr_ctx=ctx, rng=RngStream(13), dtype=np.float64)[0],
            flat, sample=30, h=FD_STEP, tol=FD_TOL)


class TestKlOracles:
    """Criterion 2: closed-form and high-precision reference values."""

    # Reference values computed once with 50-digit decimal arithmetic and
    # frozen here (see make_oracles.py).
    SVD_REFERENCE = {
        -8: 4.6358994803340266, -4: 2.6342083140622755, -2: 1.5405327412383669,
        -1: 0.91387228501593723, 0: 0.43123895099030883, 1: 0.17796971953858742,
        2: 0.06841654603737568, 4: 0.0093299414504519014, 8: 0.00016836934695539894,
    }

    def test_vbd_at_unit_alpha(self):
        assert abs(kl_value(kl_vbd_node, np.array([0.0])) - 0.34657359027997265) < 1e-12

    def test_svd_reference_table(self):
        for la, expected in self.SVD_REFERENCE.items():
            assert abs(kl_value(kl_svd_node, np.array([float(la)])) - expected) < 1e-9

    def test_both_penalties_vanish_at_large_alpha(self):
        assert kl_value(kl_svd_node, np.array([40.0])) < 1e-9
        assert kl_value(kl_vbd_node, np.array([40.0])) < 1e-9


def group_norm(teacher, student, variant, q=2.0):
    """The training path's group term over the stack of ``teacher`` and ``student``."""
    ctx = make_bsr_context(teacher, [w.shape for w in student], variant, q)
    return bsr_node(ctx, [Tensor(w) for w in student]).item()


class TestBsrAxioms:
    """Criterion 3: norm axioms and the mixed-norm ordering chain."""

    def random_pair(self, rng):
        shapes = [(int(rng.integers(1, 6)), int(rng.integers(1, 6)))
                  for _ in range(3)]
        mats = [rng.normal(size=s) for s in shapes]
        return mats[:2], mats[2:]

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            teacher, student = self.random_pair(rng)
            c = float(rng.uniform(0.1, 4.0))
            for variant, q in (("l1lq", 2.0), ("l1linf", 2.0)):
                a = group_norm([c * w for w in teacher], [c * w for w in student], variant, q)
                b = c * group_norm(teacher, student, variant, q)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            teacher_a, student_a = self.random_pair(rng)
            teacher_b = [rng.normal(size=w.shape) for w in teacher_a]
            student_b = [rng.normal(size=w.shape) for w in student_a]
            teacher_sum = [a + b for a, b in zip(teacher_a, teacher_b)]
            student_sum = [a + b for a, b in zip(student_a, student_b)]
            for variant, q in (("l1lq", 2.0), ("l1linf", 2.0)):
                assert group_norm(teacher_sum, student_sum, variant, q) <= (
                    group_norm(teacher_a, student_a, variant, q)
                    + group_norm(teacher_b, student_b, variant, q) + 1e-9)

    def test_zero_padding_neutrality(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            w = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            for variant, q in (("l1lq", 2.0), ("l1linf", 2.0)):
                assert group_norm([w], [], variant, q) == group_norm(
                    [w], [np.zeros((7, 7))], variant, q)

    def test_mixed_norm_ordering(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            teacher, student = self.random_pair(rng)
            linf = group_norm(teacher, student, "l1linf")
            l2 = group_norm(teacher, student, "l1lq", q=2.0)
            l1 = group_norm(teacher, student, "l1lq", q=1.0)
            assert linf <= l2 + 1e-12
            assert l2 <= l1 + 1e-12


class TestCsrAccounting:
    """Criterion 4: byte counts match a brute-force recount."""

    def brute_force(self, mask):
        nnz = 0
        for row in mask:
            for v in row:
                nnz += int(v != 0)
        return 4 * nnz + 4 * nnz + 4 * (len(mask) + 1)

    def test_hand_fixture(self):
        mask = np.array([[1.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0],
                         [1.0, 1.0, 0.0, 0.0]])
        assert csr_bytes(mask) == 56

    def test_random_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            mask = (rng.random((int(rng.integers(1, 10)), int(rng.integers(1, 10))))
                    < rng.random()).astype(float)
            assert csr_bytes(mask) == self.brute_force(mask)


class TestParameterCounts:
    """Criterion 5: the two reference architectures, exactly."""

    def test_teacher_architecture(self):
        assert count_parameters("784-1200-1200-10") == 2_395_210

    def test_student_architecture(self):
        assert count_parameters("784-500-50-10") == 418_060


class TestDeterminism:
    """Criterion 6: identical config and seed give byte-identical session logs."""

    def test_session_logs_repeat_exactly(self, tmp_path):
        ds = make_blobs(60, 8, 3, seed=12)
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(60, 3)) * 2
        teacher_w = [rng.normal(size=(8, 5)), rng.normal(size=(5, 3))]
        loss_cfg = resolve_variant("st-svd", LossConfig(warmup_epochs=2))
        cfg = StudentTrainConfig(arch=[8, 6, 3], epochs=2, batch_size=16, seed=0)
        for name in ("first", "second"):
            train_student(ds, logits, loss_cfg, cfg, teacher_weights=teacher_w,
                          log_dir=tmp_path / name)
        assert ((tmp_path / "first" / "session.jsonl").read_bytes()
                == (tmp_path / "second" / "session.jsonl").read_bytes())


class TestPruningMonotonicity:
    """Criterion 7: kept weights never shrink as the threshold loosens."""

    def test_kept_counts_non_decreasing(self):
        ds = make_blobs(90, 8, 3, seed=14)
        loss_cfg = LossConfig(lambda_t=0.0, kl_variant="svd", lambda_v_max=0.05,
                              warmup_epochs=0)
        cfg = StudentTrainConfig(arch=[8, 6, 3], epochs=4, batch_size=16, seed=0)
        net, _ = train_student(ds, None, loss_cfg, cfg)
        kept = [sum(int(m.sum()) for m in prune_masks(net, tau))
                for tau in (0.0, 1.0, 3.0, 5.0, 10.0)]
        assert kept == sorted(kept)
        assert kept[-1] > 0


# -- full-scale quantitative reproduction (slow, on demand) ----------------------


S1_ARCH = [784, 500, 50, 10]
TAU = 3.0


@pytest.fixture(scope="module")
def t1(mnist):
    """T1 teacher trained once for every slow criterion."""
    train, test = mnist
    cfg = TeacherConfig(arch=[784, 1200, 1200, 10], epochs=100, batch_size=128,
                        lr=1e-3, seed=0)
    net, records = train_teacher(train, cfg, test_ds=test)
    logits = precompute_logits(net, train).logits
    return {"net": net, "records": records, "logits": logits,
            "test_error_pct": 100.0 * records[-1]["test_error"]}


def train_s1(mnist, t1, variant, *, bsr_variant=None, lambda_g=None, seed=0):
    train, test = mnist
    base = LossConfig(temperature=2.0, lambda_t=2.0, warmup_epochs=10,
                      bsr_variant=bsr_variant)
    loss_cfg = resolve_variant(variant, base, lambda_g=lambda_g)
    cfg = StudentTrainConfig(arch=S1_ARCH, epochs=100, batch_size=512, lr=1e-3,
                             seed=seed, tau=TAU)
    net, records = train_student(train, t1["logits"], loss_cfg, cfg,
                                 teacher_weights=t1["net"].weights, test_ds=None)
    scored = evaluate_student(net, test, TAU)
    return net, scored


@pytest.fixture(scope="module")
def s1_kd_svd(mnist, t1):
    return train_s1(mnist, t1, "kd-svd")


@pytest.fixture(scope="module")
def s1_kd_vbd(mnist, t1):
    return train_s1(mnist, t1, "kd-vbd")


@pytest.fixture(scope="module")
def s1_st_vbd(mnist, t1):
    return train_s1(mnist, t1, "st-vbd", bsr_variant="l1linf", lambda_g=0.01)


@pytest.mark.slow
class TestTeacherReproduction:
    """Criterion 8: dense T1 reaches small test error on the full dataset."""

    def test_t1_error_budget(self, t1):
        err = t1["test_error_pct"]
        print(f"criterion 8: T1 test error {err:.2f}% (budget 2.50%)")
        assert err <= 2.5


@pytest.mark.slow
class TestDistilledStudent:
    """Criterion 9: kd-svd student stays accurate while pruning well."""

    def test_s1_kd_svd_error_and_sparsity(self, s1_kd_svd):
        _, scored = s1_kd_svd
        print(f"criterion 9: S1 kd-svd error {scored['test_error_pct']:.2f}% "
              f"(budget 2.50%), R_s {scored['r_s']:.2f} (floor 5)")
        assert scored["test_error_pct"] <= 2.5
        assert scored["r_s"] >= 5.0


@pytest.mark.slow
class TestGroupNormOrdering:
    """Criterion 10: the group regulariser buys extra sparsity at equal error."""

    def test_st_vbd_beats_kd_vbd_sparsity(self, s1_kd_vbd, s1_st_vbd):
        _, kd = s1_kd_vbd
        _, st = s1_st_vbd
        gap = abs(st["test_error_pct"] - kd["test_error_pct"])
        print(f"criterion 10: st-vbd R_s {st['r_s']:.2f} vs kd-vbd R_s "
              f"{kd['r_s']:.2f} at error gap {gap:.2f}% (budget 0.30%)")
        assert gap <= 0.3
        assert st["r_s"] > kd["r_s"]


@pytest.mark.slow
class TestMemoryFootprint:
    """Criterion 11: the best sparse student compresses 20x under CSR."""

    def test_best_student_footprint(self, s1_kd_svd, s1_kd_vbd, s1_st_vbd):
        teacher_bytes = 4 * 2_395_210
        best = 0.0
        for net, _ in (s1_kd_svd, s1_kd_vbd, s1_st_vbd):
            masks = prune_masks(net, TAU)
            fp = footprint(masks, [l.bias for l in net.layers])
            best = max(best, teacher_bytes / fp["stored_bytes"])
        print(f"criterion 11: best footprint compression {best:.2f}x (floor 20x)")
        assert best >= 20.0


@pytest.mark.slow
class TestLowDataOrdering:
    """Criterion 12: the hint helps most when labeled data is scarce."""

    def test_hint_wins_at_one_thousand_samples(self, mnist, t1):
        train, test = mnist
        loss_cfg = resolve_variant("kd-svd", LossConfig(warmup_epochs=10))
        cfg = StudentTrainConfig(arch=S1_ARCH, epochs=30, batch_size=512,
                                 lr=1e-3, tau=TAU)
        rows = lowdata_sweep(train, test, t1["logits"], loss_cfg, cfg,
                             sizes=[1000], seeds=[0, 1, 2],
                             teacher_weights=t1["net"].weights)
        summary = summarize_sweep(rows)
        on = next(s for s in summary if s["hint"])
        off = next(s for s in summary if not s["hint"])
        print(f"criterion 12: n=1000 hint-on {on['mean_test_error_pct']:.2f}% "
              f"vs hint-off {off['mean_test_error_pct']:.2f}%")
        assert on["mean_test_error_pct"] < off["mean_test_error_pct"]
