"""Accuracy, sparsity, compression, and report emission checks."""

import csv
import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from sparsedistill.errors import DomainError, UsageError
from sparsedistill.metrics import (SparsityReport, compression_ratio, csr_bytes,
                                   dense_bytes, emit_report, footprint,
                                   inference_time, per_layer_sparsity_pct,
                                   remaining_parameters, sparsity_ratio, to_json,
                                   top1_error)
from sparsedistill.student import init_student, student_logits


class TestTop1Error:
    def test_perfect_prediction(self):
        logits = np.eye(4) * 3
        assert top1_error(logits, np.arange(4)) == 0.0

    def test_constant_logits_pick_lowest_index(self):
        logits = np.zeros((10, 10))
        labels = np.arange(10)
        assert top1_error(logits, labels) == pytest.approx(0.9)

    def test_quarter_wrong_fixture(self):
        logits = np.zeros((12, 3))
        labels = np.tile([0, 1, 2], 4)
        logits[np.arange(12), labels] = 1.0
        logits[[0, 4, 8], :] = 0.0
        logits[[0, 4, 8], (labels[[0, 4, 8]] + 1) % 3] = 1.0
        assert top1_error(logits, labels) == pytest.approx(0.25)

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            top1_error(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_empty_batch(self):
        assert top1_error(np.zeros((0, 5)), np.zeros(0, dtype=int)) == 0.0


class TestSparsityRatio:
    def test_basic_ratio(self):
        masks = [np.array([[1.0, 0.0], [0.0, 0.0]]),
                 np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])]
        assert sparsity_ratio(masks) == pytest.approx(10 / 3)

    def test_dense_network_is_one(self):
        assert sparsity_ratio([np.ones((4, 5))]) == 1.0

    def test_all_pruned_warns_and_returns_inf(self):
        with pytest.warns(UserWarning):
            r = sparsity_ratio([np.zeros((3, 3))])
        assert np.isinf(r)

    def test_per_layer_percentages(self):
        masks = [np.array([[1.0, 0.0], [1.0, 1.0]]), np.zeros((1, 4))]
        np.testing.assert_allclose(per_layer_sparsity_pct(masks), [25.0, 100.0])

    def test_remaining_parameters_counts_dense_biases(self):
        masks = [np.array([[1.0, 0.0], [1.0, 1.0]]), np.ones((1, 2))]
        biases = [np.zeros(2), np.zeros(2)]
        assert remaining_parameters(masks, biases) == 5 + 4


class TestCompressionRatio:
    def test_identity(self):
        assert compression_ratio(100, 100) == 1.0

    def test_reference_architectures(self):
        assert compression_ratio(2_395_210, 418_060) == pytest.approx(2_395_210 / 418_060)

    def test_validation(self):
        with pytest.raises(DomainError):
            compression_ratio(0, 10)
        with pytest.raises(DomainError):
            compression_ratio(10, 0)
        with pytest.raises(DomainError):
            compression_ratio(10, -1)


class TestCsrBytes:
    def test_hand_fixture(self):
        mask = np.array([[1.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0],
                         [1.0, 1.0, 0.0, 0.0]])
        assert mask.sum() == 5
        assert csr_bytes(mask) == 4 * 5 + 4 * 5 + 4 * (3 + 1)

    def test_empty_matrix_keeps_row_pointer(self):
        assert csr_bytes(np.zeros((3, 4))) == 4 * (3 + 1)

    def test_matches_scipy_csr_layout(self):
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(0)
        for _ in range(100):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 12))
            mask = (rng.random((rows, cols)) < 0.35).astype(float)
            m = sparse.csr_matrix(mask)
            expected = 4 * (m.data.size + m.indices.size + m.indptr.size)
            assert csr_bytes(mask) == expected

    def test_dense_bytes_from_shape(self):
        assert dense_bytes((3, 4)) == 4 * 12
        assert dense_bytes((2, 2)) == 16


class TestFootprint:
    def test_fully_dense_layer_stays_dense(self):
        fp = footprint([np.ones((4, 5))], [np.zeros(5)])
        layer = fp["per_layer"][0]
        assert layer["stored"] == "dense"
        assert layer["nnz"] == 20
        assert layer["dense_bytes"] == 80
        assert fp["bias_bytes"] == 20
        assert fp["dense_bytes"] == 100
        assert fp["stored_bytes"] == 100

    def test_sparse_layer_switches_to_csr(self):
        mask = np.zeros((10, 10))
        mask[0, 0] = 1.0
        fp = footprint([mask], [np.zeros(10)])
        layer = fp["per_layer"][0]
        assert layer["stored"] == "csr"
        assert layer["csr_bytes"] == 4 + 4 + 4 * 11
        assert fp["stored_bytes"] == 52 + 40
        assert fp["dense_bytes"] == 400 + 40

    def test_choice_is_per_layer_minimum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mask = (rng.random((6, 8)) < rng.random()).astype(float)
            fp = footprint([mask], [])
            expected = min(csr_bytes(mask), dense_bytes(mask.shape))
            assert fp["stored_bytes"] == expected
            chosen = fp["per_layer"][0]["stored"]
            assert (chosen == "csr") == (csr_bytes(mask) < dense_bytes(mask.shape))

    def test_dense_student_compression_equals_parameter_ratio(self):
        teacher_params = 2_395_210
        masks = [np.ones((784, 500)), np.ones((500, 50)), np.ones((50, 10))]
        biases = [np.zeros(500), np.zeros(50), np.zeros(10)]
        fp = footprint(masks, biases)
        ratio = (teacher_params * 4) / fp["stored_bytes"]
        r_c = compression_ratio(teacher_params, 418_060)
        assert ratio == pytest.approx(r_c, rel=1e-12)


class TestInferenceTime:
    def test_positive_median_seconds(self):
        net = init_student([6, 4, 3], seed=0)
        x = np.random.default_rng(0).random((32, 6))
        calls = []

        def forward(batch):
            calls.append(batch)
            return student_logits(net, batch)

        t = inference_time(forward, x)
        assert t > 0.0
        assert t < 1.0
        assert len(calls) == 8 and all(c is x for c in calls)  # 3 warm-up calls, 5 timed

    def test_masks_are_accepted(self):
        net = init_student([6, 4, 3], seed=0)
        x = np.random.default_rng(0).random((8, 6))
        masks = [np.ones_like(l.theta) for l in net.layers]
        assert inference_time(lambda batch: student_logits(net, batch, masks=masks), x) > 0.0


def make_report(name="s1", err=1.89, inference_ms=None):
    return SparsityReport(
        network=name,
        test_error_pct=err,
        per_layer_sparsity=[98.6, 99.0, 92.0],
        r_s=54.0,
        r_c=5.73,
        dense_bytes=1_672_240,
        csr_bytes=120_000,
        footprint_compression=23.1,
        inference_ms=inference_ms,
        config={"variant": "st-vbd", "tau": 3.0},
    )


class TestEmitReport:
    def test_json_round_trip(self):
        reports = [make_report("a"), make_report("b", err=2.5)]
        text = emit_report(reports, fmt="json")
        assert json.loads(text) == [asdict(r) for r in reports]

    def test_markdown_table_shape(self):
        text = emit_report([make_report("a"), make_report("b"), make_report("c")],
                           fmt="markdown")
        lines = [l for l in text.splitlines() if l.strip()]
        assert len(lines) == 5
        widths = {line.count("|") for line in lines}
        assert len(widths) == 1
        assert lines[0].startswith("| network |")
        assert set(lines[1].replace("|", "").strip()) <= {"-", " "}

    def test_markdown_cell_rendering(self):
        text = emit_report([make_report()], fmt="markdown")
        assert "98.6-99-92" in text
        assert "| 54 |" in text
        assert "| 23.1 |" in text
        inf_report = SparsityReport(**{**asdict(make_report()), "r_s": float("inf")})
        assert "| inf |" in emit_report([inf_report], fmt="markdown")

    def test_csv_round_trip(self):
        reports = [make_report("a"), make_report("b", err=2.0, inference_ms=0.5)]
        rows = list(csv.DictReader(io.StringIO(emit_report(reports, fmt="csv"))))
        assert len(rows) == 2
        assert rows[0]["network"] == "a"
        assert float(rows[1]["test_error_pct"]) == 2.0
        assert float(rows[1]["inference_ms"]) == 0.5
        assert rows[0]["inference_ms"] == ""
        assert json.loads(rows[0]["config"]) == {"variant": "st-vbd", "tau": 3.0}

    def test_json_is_strict(self):
        inf_report = SparsityReport(**{**asdict(make_report()), "r_s": float("inf")})
        assert json.loads(emit_report([inf_report], fmt="json"))[0]["r_s"] == "inf"
        assert to_json({"b": [-np.inf], "a": 1.5}, sort_keys=True) == '{"a": 1.5, "b": ["-inf"]}'
        with pytest.raises(ValueError):
            to_json({"x": float("nan")})

    def test_validation(self):
        with pytest.raises(UsageError):
            emit_report([], fmt="json")
        with pytest.raises(UsageError):
            emit_report([make_report()], fmt="yaml")
