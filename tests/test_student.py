"""Variational student: dropout ratios, KL penalties, noisy forward, checkpoints."""

from functools import partial

import numpy as np
import pytest

import reference_autograd
from sparsedistill.autograd import Tensor
from sparsedistill import student as student_module
from sparsedistill.errors import ConsistencyError, DomainError, FormatError, ShapeError
from sparsedistill.optim import evaluate_student
from sparsedistill.student import (K1, K2, K3, LOG_ALPHA_CLAMP, StudentNet,
                                   VariationalDenseLayer, _THETA_SQ_FLOOR, compact,
                                   alpha_log, init_student, kl_svd_node, kl_vbd_node,
                                   load_student, prune_mask,
                                   prune_masks, save_student, student_digest,
                                   student_logits, student_logits_node)
from sparsedistill.teacher import save_checkpoint, init_mlp
from sparsedistill.tensor import ACTIVATIONS, ELEMENT_BLOCK, RngStream, dense_forward, relu

from conftest import (assert_matches_reference, finite_difference_check, kl_value, make_blobs,
                      net_param_tensors)

# Frozen single-weight penalty values from tests/make_oracles.py (50-digit
# arithmetic, printed to 17 significant digits).
SVD_TABLE = {
    -8: 4.6358994803340266,
    -4: 2.6342083140622755,
    -2: 1.5405327412383669,
    -1: 0.91387228501593723,
    0: 0.43123895099030883,
    1: 0.17796971953858742,
    2: 0.06841654603737568,
    4: 0.0093299414504519014,
    8: 0.00016836934695539894,
}
VBD_TABLE = {
    -8: 4.0001677031864479,
    -4: 2.0090749639589049,
    -2: 1.0634640055214862,
    -1: 0.65663084375911142,
    0: 0.34657359027997265,
    1: 0.15663084375911142,
    2: 0.063464005521486248,
    4: 0.0090749639589048702,
    8: 0.00016770318644788442,
}

# (theta, log sigma^2) pairs at the penalty's limits: a zero mean, theta^2 under the floor
# (1e-160, and just under 1e-150) and at it (1e-150) with log alpha inside the clamp, and
# log alpha exactly at and just past each clamp edge
_PAST_CLAMP = np.nextafter(LOG_ALPHA_CLAMP, np.inf)
KL_EDGES = [(0.0, -8.0), (1e-160, -690.0), (np.nextafter(1e-150, 0.0), -690.0), (1e-150, -690.0),
            (1.0, LOG_ALPHA_CLAMP), (1.0, -LOG_ALPHA_CLAMP), (1.0, _PAST_CLAMP), (1.0, -_PAST_CLAMP)]


def composed_kl(theta_t, log_sigma2_t, variant):
    """Reference for the fused penalty nodes, composed from single graph operations
    of the frozen reference engine (pass ``reference_autograd.Tensor`` leaves)."""
    floor = reference_autograd.Tensor(np.float64(_THETA_SQ_FLOOR))
    square = reference_autograd.maximum(theta_t * theta_t, floor)
    la = (log_sigma2_t - square.log()).clip(-LOG_ALPHA_CLAMP, LOG_ALPHA_CLAMP)
    half = ((la * -1.0).exp() + 1.0).log() * 0.5
    if variant == "vbd":
        return half.sum()
    return ((la * -K3 - K2).sigmoid() * K1 + half).sum()


def composed_student_logits(param_ts, x, eps_list, activation="relu"):
    """Reference for the fused noisy-layer nodes, composed from single graph operations
    of the frozen reference engine (pass ``reference_autograd.Tensor`` leaves)."""
    out = reference_autograd.Tensor(np.asarray(x, dtype=np.float64))
    for i, (theta, log_sigma2, bias) in enumerate(param_ts):
        x_sq = out * out if out.requires_grad else reference_autograd.Tensor(np.square(out.data))
        v = x_sq @ log_sigma2.exp()
        out = out @ theta + bias + (v + 1e-18).sqrt() * reference_autograd.Tensor(eps_list[i])
        if i < len(param_ts) - 1:
            out = out.relu() if activation == "relu" else out.sigmoid()
    return out


def layer_fixture():
    theta = np.array([[0.8, -0.5], [0.3, 1.2], [-0.9, 0.4]])
    log_sigma2 = np.array([[-3.0, -1.0], [-6.0, 0.5], [-2.0, -4.0]])
    bias = np.array([0.1, -0.2])
    return VariationalDenseLayer(theta, log_sigma2, bias)


class TestInitStudent:
    def test_shapes_and_defaults(self):
        net = init_student([12, 6, 4], seed=0)
        assert net.arch == [12, 6, 4]
        assert [l.shape for l in net.layers] == [(12, 6), (6, 4)]
        for l in net.layers:
            limit = np.sqrt(6.0 / l.shape[0])
            assert np.all(np.abs(l.theta) <= limit)
            np.testing.assert_array_equal(l.log_sigma2, -8.0)
            np.testing.assert_array_equal(l.bias, 0.0)

    def test_determinism_and_custom_variance(self):
        a = init_student("12-6-4", seed=3, log_sigma2_init=-5.0)
        b = init_student("12-6-4", seed=3, log_sigma2_init=-5.0)
        np.testing.assert_array_equal(a.layers[0].theta, b.layers[0].theta)
        np.testing.assert_array_equal(a.layers[0].log_sigma2, -5.0)
        c = init_student("12-6-4", seed=4)
        assert not np.array_equal(a.layers[0].theta, c.layers[0].theta)

    def test_layer_and_net_validation(self):
        with pytest.raises(ConsistencyError):
            VariationalDenseLayer(np.zeros((3, 2)), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ConsistencyError):  # the net owns the bias-length rule
            StudentNet([VariationalDenseLayer(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros(3))])
        good = layer_fixture()
        with pytest.raises(ConsistencyError):
            StudentNet([good, layer_fixture()])  # 2 outputs feeding 3 inputs

    def test_net_needs_a_layer(self):
        with pytest.raises(ConsistencyError, match="0 weight matrices and 0 bias vectors"):
            StudentNet([])


class TestAlphaLog:
    def test_matches_hand_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = rng.uniform(0.1, 2.0, size=(4, 3)) * rng.choice([-1, 1], size=(4, 3))
            logs2 = rng.uniform(-10, 2, size=(4, 3))
            expected = logs2 - np.log(theta ** 2)
            np.testing.assert_allclose(alpha_log(theta, logs2), expected, rtol=1e-12)

    def test_zero_mean_maps_to_infinity(self):
        la = alpha_log(np.array([[0.0, 1.0]]), np.array([[-8.0, -8.0]]))
        assert np.isposinf(la[0, 0])
        assert np.isfinite(la[0, 1])

    def test_clamped_to_symmetric_range(self):
        la = alpha_log(np.array([[1e100, 1e-100]]), np.array([[0.0, 0.0]]))
        assert la[0, 0] == -LOG_ALPHA_CLAMP
        assert la[0, 1] == LOG_ALPHA_CLAMP


class TestPruneMask:
    def test_threshold_is_inclusive(self):
        # theta 1 and log sigma^2 3 puts log alpha exactly at the threshold
        layer = VariationalDenseLayer(np.array([[1.0, 1.0]]),
                                      np.array([[3.0, 3.0 + 1e-9]]),
                                      np.zeros(2))
        mask = prune_mask(layer, 3.0)
        np.testing.assert_array_equal(mask, [[1.0, 0.0]])

    def test_infinite_tau_keeps_everything(self):
        layer = VariationalDenseLayer(np.array([[0.0, 5.0]]), np.array([[0.0, 0.0]]),
                                      np.zeros(2))
        np.testing.assert_array_equal(prune_mask(layer, np.inf), [[1.0, 1.0]])

    def test_zero_mean_weight_is_pruned_at_finite_tau(self):
        layer = VariationalDenseLayer(np.array([[0.0]]), np.array([[-8.0]]), np.zeros(1))
        np.testing.assert_array_equal(prune_mask(layer, 1e9), [[0.0]])

    def test_prune_masks_covers_all_layers(self):
        net = init_student([6, 4, 2], seed=0)
        masks = prune_masks(net, 3.0)
        assert [m.shape for m in masks] == [(6, 4), (4, 2)]

    def test_masks_are_boolean(self):
        net = init_student([6, 4, 2], seed=0)
        for tau in (3.0, -50.0, np.inf):
            assert all(m.dtype == bool for m in prune_masks(net, tau))

    @pytest.mark.parametrize("tau", [float("nan"), True, np.bool_(False), "3", None])
    def test_tau_must_be_a_real_number(self, tau):
        net = init_student([6, 4, 3], seed=0)
        with pytest.raises(DomainError, match="tau must be a real number"):
            prune_masks(net, tau)
        with pytest.raises(DomainError, match="tau must be a real number"):
            prune_mask(net.layers[0], tau)
        assert not any(m.any() for m in prune_masks(net, -np.inf))
        assert all(m.all() for m in prune_masks(net, np.int64(40)))


def masked_chain(net, x, masks):
    """The masked dense forward: every layer ``x @ (theta * mask) + b``."""
    act = ACTIVATIONS[net.activation]
    for i, (layer, mask) in enumerate(zip(net.layers, masks)):
        x = x @ (layer.theta * mask) + layer.bias
        if i < len(net.layers) - 1:
            x = act(x)
    return x


class TestCompactedForward:
    """The masked forward skips fully pruned rows and still equals the masked dense product."""

    def case(self, activation="relu"):
        rng = np.random.default_rng(8)
        net = init_student([12, 9, 7, 4], seed=4, activation=activation)
        for layer in net.layers:
            layer.bias = rng.normal(size=layer.bias.shape)
        masks = [rng.random(l.shape) < 0.6 for l in net.layers]
        return net, masks, rng.normal(size=(40, 12))

    def check(self, net, masks, x):
        want = masked_chain(net, x, masks)
        got = student_logits(net, x, masks=masks)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))
        return compact(net, masks)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_pruned_input_rows_are_skipped(self, activation):
        net, masks, x = self.case(activation)
        masks[0][[0, 5, 11]] = False
        weights, _, cols = self.check(net, masks, x)
        assert weights[0].shape == (9, 9) and cols.sum() == 9
        want = student_logits(net, x, masks=masks)
        x[:, 5] = np.nan  # a pruned input column no longer reaches the logits
        np.testing.assert_array_equal(student_logits(net, x, masks=masks), want)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_hidden_unit_without_outgoing_weights_is_dropped(self, activation):
        net, masks, x = self.case(activation)
        masks[1][[2, 6]] = False
        masks[2][3] = False
        weights, biases, cols = self.check(net, masks, x)
        assert cols is None
        assert [w.shape for w in weights] == [(12, 7), (7, 6), (6, 4)]
        assert [len(b) for b in biases] == [7, 6, 4]

    def test_fully_pruned_layer(self):
        net, masks, x = self.case()
        masks[1][:] = False
        self.check(net, masks, x)
        masks = prune_masks(net, -50.0)  # every weight of every layer
        assert not any(m.any() for m in masks)
        want = np.broadcast_to(net.layers[-1].bias, (len(x), 4))
        np.testing.assert_array_equal(masked_chain(net, x, masks), want)
        np.testing.assert_array_equal(student_logits(net, x, masks=masks), want)

    def test_nothing_dropped_takes_no_copy(self):
        net, _, x = self.case()
        weights, biases, cols = compact(net, None)
        assert cols is None
        assert all(w is l.theta and b is l.bias for w, b, l in zip(weights, biases, net.layers))
        weights, biases, cols = compact(net, prune_masks(net, np.inf))
        assert cols is None
        assert all(b is l.bias for b, l in zip(biases, net.layers))
        for w, layer in zip(weights, net.layers):
            np.testing.assert_array_equal(w, layer.theta)
        np.testing.assert_array_equal(student_logits(net, x, masks=prune_masks(net, np.inf)),
                                      student_logits(net, x))

    def test_float_masks_from_callers(self):
        net, masks, x = self.case()
        masks[0][[1, 4]] = False
        masks[1][0] = False
        float_masks = [m.astype(np.float64) for m in masks]
        self.check(net, float_masks, x)
        np.testing.assert_array_equal(student_logits(net, x, masks=float_masks),
                                      student_logits(net, x, masks=masks))

    def test_net_and_inputs_are_unmodified(self):
        net, masks, x = self.case()
        masks[0][2] = False
        masks[1][4] = False
        before = [a.copy() for l in net.layers for a in (l.theta, l.log_sigma2, l.bias)]
        masks_before, x_before = [m.copy() for m in masks], x.copy()
        student_logits(net, x, masks=masks)
        after = [a for l in net.layers for a in (l.theta, l.log_sigma2, l.bias)]
        for a, b in zip(after + masks + [x], before + masks_before + [x_before]):
            np.testing.assert_array_equal(a, b)


def sparse_student(seed=3):
    """A 12-9-4 student with about half of its weights past tau 3, three input rows of layer 0
    pruned whole, and non-zero biases."""
    rng = np.random.default_rng(seed)
    net = init_student([12, 9, 4], seed=seed)
    for layer in net.layers:
        gone = rng.random(layer.shape) < 0.5
        layer.log_sigma2 = np.log(np.square(layer.theta)) + np.where(gone, 5.0, -2.0)
        layer.bias = rng.normal(size=layer.bias.shape)
    net.layers[0].log_sigma2[[0, 4, 7]] = 40.0
    return net


def frozen_student(tmp_path, seed=3):
    save_student(sparse_student(seed), tmp_path / "s.ckpt", tau=3.0)
    return load_student(tmp_path / "s.ckpt")[0]


def writable_copy(net):
    return StudentNet([VariationalDenseLayer(l.theta.copy(), l.log_sigma2.copy(), l.bias.copy())
                       for l in net.layers], activation=net.activation, seed=net.seed)


def read_only(a):
    a.flags.writeable = False
    return a


class TestFrozenStudent:
    """A loaded student keeps its masks for the last tau and their compaction, read-only."""

    def test_masks_are_kept_per_tau(self, tmp_path):
        net = frozen_student(tmp_path)
        masks = prune_masks(net, 3.0)
        assert not any(m.flags.writeable for m in masks)
        assert all(a is b for a, b in zip(masks, prune_masks(net, 3.0)))
        for a, b in zip(masks, prune_masks(writable_copy(net), 3.0)):
            np.testing.assert_array_equal(a, b)
        wider = prune_masks(net, 6.0)  # a new tau replaces the kept masks
        assert not any(a is b for a, b in zip(masks, wider))
        assert sum(m.sum() for m in wider) > sum(m.sum() for m in masks)
        again = prune_masks(net, 3.0)
        assert not any(a is b for a, b in zip(masks, again))
        for a, b in zip(masks, again):
            np.testing.assert_array_equal(a, b)

    def test_compaction_is_kept(self, tmp_path, monkeypatch):
        net, calls, compact_impl = frozen_student(tmp_path), [], student_module._compact

        def spy(*args):
            calls.append(args)
            return compact_impl(*args)
        monkeypatch.setattr(student_module, "_compact", spy)
        masks = prune_masks(net, 3.0)
        first = compact(net, masks)
        assert first[2].sum() == 9 == first[0][0].shape[0]
        for _ in range(3):
            weights, biases, cols = compact(net, prune_masks(net, 3.0))
            assert cols is first[2]
            assert all(a is b for a, b in zip(weights + biases, first[0] + first[1]))
        assert len(calls) == 1
        assert not any(a.flags.writeable for a in first[0] + first[1] + (first[2],))
        want = compact(writable_copy(net), [m.copy() for m in masks])
        for a, b in zip(first[0] + first[1] + (first[2],), want[0] + want[1] + (want[2],)):
            np.testing.assert_array_equal(a, b)

    def test_frozen_logits_equal_a_writable_copy_and_compact_once(self, tmp_path, monkeypatch):
        net, calls = frozen_student(tmp_path), []

        def spy(x, weights, *args):
            calls.append(weights)
            return dense_forward(x, weights, *args)
        monkeypatch.setattr(student_module, "dense_forward", spy)
        live = writable_copy(net)
        x = np.random.default_rng(6).normal(size=(1025, 12))
        for n in (1, 100, 1025):
            np.testing.assert_array_equal(
                student_logits(net, x[:n], masks=prune_masks(net, 3.0)),
                student_logits(live, x[:n], masks=prune_masks(live, 3.0)))
        kept, fresh = calls[0::2], calls[1::2]
        assert all(a is b for ws in kept[1:] for a, b in zip(kept[0], ws))
        assert not any(a is b for ws in fresh[1:] for a, b in zip(fresh[0], ws))
        ds = make_blobs(300, 12, 4, seed=6)
        assert evaluate_student(net, ds, 3.0) == evaluate_student(live, ds, 3.0)

    @pytest.mark.parametrize("name", ["theta", "log_sigma2", "bias"])
    def test_replacing_an_array_gives_fresh_values(self, tmp_path, name):
        net = frozen_student(tmp_path)
        x = np.random.default_rng(7).normal(size=(20, 12))
        masks = prune_masks(net, 3.0)
        before = student_logits(net, x, masks=masks)
        layer = net.layers[0]
        new = {"theta": layer.theta * 10.0, "log_sigma2": layer.log_sigma2 - 3.0,
               "bias": layer.bias + 1.0}[name]
        setattr(layer, name, read_only(new))
        after = prune_masks(net, 3.0)
        assert not any(m.flags.writeable for m in after)
        # the masks read theta and log_sigma2 only, so a new bias keeps them
        assert all(a is b for a, b in zip(masks, after)) == (name == "bias")
        logits = student_logits(net, x, masks=after)
        assert not np.array_equal(logits, before)
        live = writable_copy(net)
        for a, b in zip(after, prune_masks(live, 3.0)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(logits, student_logits(live, x, masks=prune_masks(live, 3.0)))

    def test_writable_masks_are_compacted_on_every_call(self, tmp_path):
        net = frozen_student(tmp_path)
        masks = [m.copy() for m in prune_masks(net, 3.0)]
        x = np.random.default_rng(8).normal(size=(20, 12))
        before = student_logits(net, x, masks=masks)
        masks[1][:, 0] = False
        after = student_logits(net, x, masks=masks)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, student_logits(writable_copy(net), x, masks=masks))
        np.testing.assert_array_equal(after, masked_chain(net, x, masks))


class TestKlPenalties:
    def test_svd_frozen_values(self):
        for la, expected in SVD_TABLE.items():
            assert abs(kl_value(kl_svd_node, np.array([float(la)])) - expected) < 1e-12

    def test_vbd_frozen_values(self):
        for la, expected in VBD_TABLE.items():
            assert abs(kl_value(kl_vbd_node, np.array([float(la)])) - expected) < 1e-12

    def test_vbd_at_unit_alpha_is_half_log_two(self):
        assert abs(kl_value(kl_vbd_node, np.array([0.0])) - 0.5 * np.log(2.0)) < 1e-12

    def test_sum_over_array_matches_singles(self):
        grid = np.array(sorted(SVD_TABLE), dtype=np.float64)
        assert abs(kl_value(kl_svd_node, grid) - sum(SVD_TABLE.values())) < 1e-12
        assert abs(kl_value(kl_vbd_node, grid) - sum(VBD_TABLE.values())) < 1e-12

    def test_nonnegative_and_decreasing(self):
        la = np.linspace(-39, 39, 300)
        svd_vals = np.array([kl_value(kl_svd_node, np.array([v])) for v in la])
        vbd_vals = np.array([kl_value(kl_vbd_node, np.array([v])) for v in la])
        assert np.all(svd_vals >= 0) and np.all(vbd_vals >= 0)
        assert np.all(np.diff(svd_vals) < 0)
        assert np.all(np.diff(vbd_vals) < 0)

    def test_vanishes_at_clamp_ceiling(self):
        assert kl_value(kl_svd_node, np.array([LOG_ALPHA_CLAMP])) < 1e-9
        assert kl_value(kl_vbd_node, np.array([LOG_ALPHA_CLAMP])) < 1e-9

    def test_clamp_floor_saturates(self):
        floor = kl_value(kl_svd_node, np.array([-40.0]))
        assert abs(kl_value(kl_svd_node, np.array([-1000.0])) - floor) < 1e-15
        assert abs(kl_value(kl_svd_node, np.array([-40.0])) - 20.63576) < 1e-9
        assert abs(kl_value(kl_vbd_node, np.array([-40.0])) - 20.0) < 1e-9

    def test_infinite_alpha_contributes_zero(self):
        assert kl_value(kl_svd_node, np.array([np.inf])) < 1e-12
        assert kl_value(kl_vbd_node, np.array([np.inf])) < 1e-12


class TestKlGraphNodes:
    def test_nodes_agree_at_zero_mean(self):
        theta = np.array([[0.0, 1.0]])
        logs2 = np.array([[-8.0, -8.0]])
        at_prune_rule = kl_value(kl_svd_node, alpha_log(theta, logs2))  # log alpha +inf at 0
        graph = kl_svd_node(Tensor(theta), Tensor(logs2)).item()
        assert abs(at_prune_rule - graph) < 1e-12

    def test_fused_log_alpha_forward(self):
        theta = np.array([[0.5, -2.0, 1e-30]])
        logs2 = np.array([[-4.0, 1.0, 0.0]])
        la = alpha_log(theta, logs2)
        assert kl_svd_node(Tensor(theta), Tensor(logs2)).item() == kl_value(kl_svd_node, la)
        assert kl_vbd_node(Tensor(theta), Tensor(logs2)).item() == kl_value(kl_vbd_node, la)

    def test_fused_log_alpha_saturated_gradient_is_zero(self):
        # raw log alpha 138 (theta 1e-30), then exactly at and just past each clamp edge
        theta_data = np.array([[1e-30, 1.0, 1.0, 1.0, 1.0]])
        edge = np.nextafter(LOG_ALPHA_CLAMP, np.inf)
        logs2_data = np.array([[0.0, LOG_ALPHA_CLAMP, -LOG_ALPHA_CLAMP, edge, -edge]])
        for node in (kl_svd_node, kl_vbd_node):
            theta = Tensor(theta_data.copy(), requires_grad=True)
            logs2 = Tensor(logs2_data.copy(), requires_grad=True)
            node(theta, logs2).backward()
            np.testing.assert_array_equal(logs2.grad[0, [0, 3, 4]], 0.0)
            np.testing.assert_array_equal(theta.grad[0, [0, 3, 4]], 0.0)
            assert np.all(logs2.grad[0, 1:3] != 0.0) and np.all(theta.grad[0, 1:3] != 0.0)

    def test_fused_matches_composed_graph(self):
        rng = np.random.default_rng(4)
        theta_data = rng.uniform(-0.1, 0.1, size=(784, 500))
        logs2_data = rng.normal(-8.0, 4.0, size=(784, 500))
        below = np.nextafter(1e-150, 0.0)  # theta^2 just under the floor
        theta_data[0, :8] = [0.0, 1e-160, below, 1e-150, 1.0, 1.0, 1.0, 1.0]
        logs2_data[0, :8] = [-8.0, -690.0, -690.0, -690.0, 40.0, -40.0, 41.0, -41.0]
        assert 1e-150 * 1e-150 == _THETA_SQ_FLOOR and below * below < _THETA_SQ_FLOOR
        for variant, fused in (("svd", kl_svd_node), ("vbd", kl_vbd_node)):
            results = []
            composed = (reference_autograd.Tensor, lambda t, s: composed_kl(t, s, variant))
            for engine, build in ((Tensor, fused), composed):
                theta = engine(theta_data.copy(), requires_grad=True)
                logs2 = engine(logs2_data.copy(), requires_grad=True)
                node = build(theta, logs2)
                (node * 0.37).backward()
                results.append((node, theta, logs2))
            (node, theta, logs2), (ref, ref_theta, ref_logs2) = results
            assert node._parents[0] is theta and node._parents[1] is logs2
            assert len(node._parents) == 2
            np.testing.assert_allclose(node.item(), ref.item(), rtol=1e-12, atol=0.0)
            for got, want in ((theta.grad, ref_theta.grad), (logs2.grad, ref_logs2.grad)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
                np.testing.assert_array_equal(got[want == 0.0], 0.0)
            # the floor rule: theta^2 below it gets no gradient, theta^2 equal to it does
            assert theta.grad[0, 1] == theta.grad[0, 2] == 0.0 and theta.grad[0, 3] != 0.0
            assert np.all(logs2.grad[0, 1:6] != 0.0) and np.all(logs2.grad[0, 6:8] == 0.0)

    @pytest.mark.parametrize("shape, at", [((1, 1), j) for j in range(len(KL_EDGES))]
                             + [((43, 381), None), ((5, 3277), None), ((16, 1025), None)],
                             ids=[f"1x1-{j}" for j in range(len(KL_EDGES))]
                             + ["16383", "16385", "16400"])
    def test_block_edges_match_composed_graph(self, shape, at):
        # the floor rule and the clamp edges just before and just after the first block
        # boundary (wrapping to the start of a layer too short to hold them)
        n = shape[0] * shape[1]
        assert n in (1, ELEMENT_BLOCK - 1, ELEMENT_BLOCK + 1, ELEMENT_BLOCK + 16)
        rng = np.random.default_rng(n)
        theta_data = rng.uniform(-0.1, 0.1, size=n)
        logs2_data = rng.normal(-8.0, 4.0, size=n)
        for j, (theta, logs2) in enumerate(KL_EDGES):
            if at is None:
                for i in ((ELEMENT_BLOCK - len(KL_EDGES) + j) % n, (ELEMENT_BLOCK + j) % n):
                    theta_data[i], logs2_data[i] = theta, logs2
            elif at == j:
                theta_data[0], logs2_data[0] = theta, logs2
        theta_data, logs2_data = theta_data.reshape(shape), logs2_data.reshape(shape)
        for variant, fused in (("svd", kl_svd_node), ("vbd", kl_vbd_node)):
            results = []
            composed = (reference_autograd.Tensor, lambda t, s: composed_kl(t, s, variant))
            for engine, build in ((Tensor, fused), composed):
                theta = engine(theta_data.copy(), requires_grad=True)
                logs2 = engine(logs2_data.copy(), requires_grad=True)
                node = build(theta, logs2)
                (node * 0.37).backward()
                results.append((node, theta, logs2))
            (node, theta, logs2), (ref, ref_theta, ref_logs2) = results
            # the reference takes log(1 + e), not log1p(e): near la = 40 it drops e ~ 4e-18
            np.testing.assert_allclose(node.item(), ref.item(), rtol=1e-12, atol=1e-16)
            for got, want in ((theta.grad, ref_theta.grad), (logs2.grad, ref_logs2.grad)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
                np.testing.assert_array_equal(got[want == 0.0], 0.0)
            # below the floor log alpha saturates either way, so alpha_log agrees with the node
            sat = np.where(np.square(theta_data) < _THETA_SQ_FLOOR, 0.0, logs2_data)
            value = fused(Tensor(theta_data), Tensor(sat)).item()
            assert value == kl_value(fused, alpha_log(theta_data, sat))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        theta_data = rng.uniform(0.2, 1.5, size=(4, 3)) * rng.choice([-1, 1], size=(4, 3))
        logs2_data = rng.uniform(-6, 1, size=(4, 3))
        for node in (kl_svd_node, kl_vbd_node):
            theta = Tensor(theta_data.copy(), requires_grad=True)
            logs2 = Tensor(logs2_data.copy(), requires_grad=True)
            finite_difference_check(lambda: node(theta, logs2), [theta, logs2])


def noisy_layer(layer, x, rng, dtype=np.float32):
    """One layer of the training forward, with its noise drawn from ``rng``."""
    eps = rng.normal(x.shape[0], layer.shape[1])
    params = [tuple(Tensor(a) for a in (layer.theta, layer.log_sigma2, layer.bias))]
    return student_logits_node(params, x, [eps], dtype=dtype).data


class TestForward:
    def test_eval_is_masked_matrix_product(self):
        layer = layer_fixture()
        x = np.random.default_rng(3).normal(size=(6, 3))
        mask = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        out = student_logits(StudentNet([layer]), x, masks=[mask])
        np.testing.assert_allclose(out, x @ (layer.theta * mask) + layer.bias, rtol=1e-12)
        out_nomask = student_logits(StudentNet([layer]), x)
        np.testing.assert_allclose(out_nomask, x @ layer.theta + layer.bias, rtol=1e-12)

    def test_shape_validation(self):
        net = StudentNet([layer_fixture()])
        with pytest.raises(ShapeError):
            student_logits(net, np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            student_logits(net, np.zeros((2, 5)), masks=[np.array([[1, 0], [0, 0], [0, 1]])])

    def test_noise_statistics_match_moment_formulas(self):
        # one input row replicated many times: each output row is an
        # independent draw from N(x@theta + b, x^2 @ sigma^2)
        layer = layer_fixture()
        x_row = np.array([[0.7, -1.1, 0.4]])
        n = 100_000
        x = np.repeat(x_row, n, axis=0)
        out = noisy_layer(layer, x, RngStream(11))
        mean_expected = (x_row @ layer.theta + layer.bias)[0]
        var_expected = (x_row ** 2 @ np.exp(layer.log_sigma2))[0]
        se_mean = np.sqrt(var_expected / n)
        assert np.all(np.abs(out.mean(axis=0) - mean_expected) < 3 * se_mean)
        se_var = var_expected * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(out.var(axis=0) - var_expected) < 4 * se_var)

    def test_zero_variance_limit_collapses_to_eval(self):
        theta = np.array([[0.8, -0.5], [0.3, 1.2]])
        layer = VariationalDenseLayer(theta, np.full((2, 2), -60.0), np.array([0.1, -0.2]))
        x = np.random.default_rng(4).normal(size=(8, 2))
        noisy = noisy_layer(layer, x, RngStream(0), np.float64)
        exact = student_logits(StudentNet([layer]), x)
        np.testing.assert_allclose(noisy, exact, atol=1e-8)

    def test_network_eval_matches_hand_chain(self):
        net = init_student([4, 3, 2], seed=5)
        masks = prune_masks(net, 3.0)
        x = np.random.default_rng(5).normal(size=(7, 4))
        h = np.maximum(x @ (net.layers[0].theta * masks[0]) + net.layers[0].bias, 0.0)
        expected = h @ (net.layers[1].theta * masks[1]) + net.layers[1].bias
        np.testing.assert_allclose(student_logits(net, x, masks=masks), expected, rtol=1e-12)

    def test_row_blocks_equal_a_single_pass(self):
        # the teacher test's 32-1200-10 shape, with pruned input rows: there BLAS
        # rounds a row alike in any large block, so a short last block shows.
        # A 500-wide layer is rounded by its position and the call's row count.
        rng = np.random.default_rng(6)
        net = init_student([32, 1200, 10], seed=2)
        masks = [rng.random(l.shape) < 0.5 for l in net.layers]
        masks[0][::3] = False
        masks[1][:, 0] = True  # keeps the 1200 hidden units
        weights, biases, cols = compact(net, masks)
        x = rng.random((4097, 32))
        for n in (1023, 1024, 1025, 2049, 4097):
            want = relu(x[:n].compress(cols, axis=1) @ weights[0] + biases[0])
            want = want @ weights[1] + biases[1]
            np.testing.assert_array_equal(student_logits(net, x[:n], masks=masks), want)

    def test_fused_layers_match_composed_graph(self):
        # 784-500-10 at batch 512; the second layer's input is a node that needs a gradient
        rng = np.random.default_rng(13)
        net = init_student([784, 500, 10], seed=3)
        for layer in net.layers:
            layer.log_sigma2 = rng.normal(-6.0, 2.0, size=layer.shape)
        x = rng.random((512, 784))
        x[:, :20] = 0.0  # blank pixels: exactly-zero gradient rows
        eps = [rng.normal(size=(512, h)) for h in (500, 10)]
        upstream = rng.normal(size=(512, 10))
        for activation in ("relu", "sigmoid"):
            results = []
            for engine, build in ((Tensor, partial(student_logits_node, dtype=np.float64)),
                                  (reference_autograd.Tensor, composed_student_logits)):
                params = [tuple(engine(a.copy(), requires_grad=True)
                                for a in (l.theta, l.log_sigma2, l.bias)) for l in net.layers]
                node = build(params, x, eps, activation)
                (node * engine(upstream)).sum().backward()
                results.append((node, params))
            (node, params), (want, want_params) = results
            hidden = node._parents[3]
            assert node._parents[:3] == params[1] and hidden._parents[0]._parents == params[0]
            np.testing.assert_allclose(node.data, want.data, rtol=1e-12, atol=0.0)
            for triple, want_triple in zip(params, want_params):
                for leaf, want_leaf in zip(triple, want_triple):
                    assert_matches_reference(leaf.grad, want_leaf.grad)
            assert np.all(params[0][0].grad[:20] == 0.0)

    def test_float32_products_match_float64(self):
        # the training default at 784-500-50-10 and batch 512 against float64 products
        rng = np.random.default_rng(26)
        net = init_student([784, 500, 50, 10], seed=4)
        for layer in net.layers:
            layer.log_sigma2 = rng.normal(-6.0, 2.0, size=layer.shape)
        x = rng.random((512, 784))
        x[:, :20] = 0.0  # blank pixels: exactly-zero gradient rows
        eps = [rng.normal(size=(512, l.shape[1])) for l in net.layers]
        upstream = rng.normal(size=(512, 10))
        results = []
        for build in (student_logits_node, partial(student_logits_node, dtype=np.float64)):
            params = net_param_tensors(net)
            node = build(params, x, eps)
            (node * Tensor(upstream)).sum().backward()
            results.append((node, [t for triple in params for t in triple]))
        (node, leaves), (want, want_leaves) = results
        assert node.data.dtype == np.float64
        assert_matches_reference(node.data, want.data, rel=1e-5)
        for leaf, want_leaf in zip(leaves, want_leaves):
            assert leaf.grad.dtype == np.float64
            assert_matches_reference(leaf.grad, want_leaf.grad, rel=1e-5)

    def test_graph_forward_gradcheck(self):
        net = init_student([4, 3, 2], seed=8)
        x = np.random.default_rng(8).normal(size=(5, 4))
        eps = [np.random.default_rng(9).normal(size=(5, l.shape[1])) for l in net.layers]
        params = net_param_tensors(net)
        flat = [t for triple in params for t in triple]
        def build():
            out = student_logits_node(params, x, eps, dtype=np.float64)
            return (out * out).sum()
        finite_difference_check(build, flat)


class TestStudentCheckpoints:
    def test_round_trip_with_tau(self, tmp_path):
        net = init_student([6, 4, 3], seed=12, activation="sigmoid", log_sigma2_init=-4.0)
        digest = save_student(net, tmp_path / "s.ckpt", tau=2.5)
        loaded, tau = load_student(tmp_path / "s.ckpt")
        assert tau == 2.5
        assert loaded.activation == "sigmoid"
        assert loaded.seed == 12
        for a, b in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.log_sigma2, b.log_sigma2)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert student_digest(loaded) == digest

    def test_round_trip_without_tau(self, tmp_path):
        net = init_student([5, 3, 2], seed=0)
        save_student(net, tmp_path / "s.ckpt")
        _, tau = load_student(tmp_path / "s.ckpt")
        assert tau is None

    def test_digest_tracks_content(self):
        a = init_student([5, 3, 2], seed=0)
        b = init_student([5, 3, 2], seed=0)
        assert student_digest(a) == student_digest(b)
        b.layers[0].theta[0, 0] += 1e-9
        assert student_digest(a) != student_digest(b)

    def test_wrong_kind_rejected(self, tmp_path):
        save_checkpoint(init_mlp([5, 3, 2], seed=0), tmp_path / "t.ckpt")
        with pytest.raises(FormatError):
            load_student(tmp_path / "t.ckpt")
