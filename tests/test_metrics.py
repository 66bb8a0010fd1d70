"""Metric tests with hand-derived fixtures and definitional cross-checks."""

import numpy as np
import pytest

from mebf.boolmat import BinaryMatrix, bool_product, complement, elementwise
from mebf.factorize import MebfConfig, mebf_factorize
from mebf.metrics import (
    MetricsReport,
    UndefinedMetricError,
    build_report,
    coverage_rate,
    density,
    reconstruction_error,
    report_from_factors,
)


def mats(*denses):
    return tuple(BinaryMatrix.from_dense(d) for d in denses)


class TestReconstructionError:
    def test_exact_recovery_is_zero(self):
        u, v = mats([[1, 0], [1, 1]], [[0, 1], [1, 1]])
        assert reconstruction_error(u, v, u, v) == 0.0

    def test_empty_estimate_is_one(self):
        u, v = mats([[1, 0], [1, 1]], [[0, 1], [1, 1]])
        a = BinaryMatrix.zeros(2, 0)
        b = BinaryMatrix.zeros(0, 2)
        assert reconstruction_error(u, v, a, b) == 1.0

    def test_hand_example_one_third(self):
        # truth product [[1,1],[1,0]] vs estimate [[1,0],[1,0]]
        u, v = mats([[1, 1], [1, 0]], [[1, 0], [0, 1]])
        a, b = mats([[1], [1]], [[1, 0]])
        truth = bool_product(u, v).to_dense()
        estimate = bool_product(a, b).to_dense()
        assert truth.tolist() == [[1, 1], [1, 0]]
        assert estimate.tolist() == [[1, 0], [1, 0]]
        expected = int((truth ^ estimate).sum()) / int(truth.sum())
        assert expected == 1 / 3
        assert reconstruction_error(u, v, a, b) == expected

    def test_can_exceed_one(self):
        u, v = mats([[1], [0]], [[1, 0]])
        a, b = mats([[1], [1]], [[1, 1]])
        assert reconstruction_error(u, v, a, b) == 3.0

    def test_undefined_for_empty_truth(self):
        u = BinaryMatrix.zeros(2, 1)
        v = BinaryMatrix.zeros(1, 2)
        with pytest.raises(UndefinedMetricError):
            reconstruction_error(u, v, u, v)


class TestDensity:
    def test_extremes(self):
        assert density(BinaryMatrix.ones(3, 2), BinaryMatrix.ones(2, 4)) == 1
        assert density(BinaryMatrix.zeros(3, 2),
                       BinaryMatrix.zeros(2, 4)) == 0

    def test_hand_example_three_quarters(self):
        a, b = mats([[1], [0]], [[1, 1]])
        assert density(a, b) == 3 / 4

    def test_undefined_for_no_patterns(self):
        with pytest.raises(UndefinedMetricError):
            density(BinaryMatrix.zeros(3, 0), BinaryMatrix.zeros(0, 4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            density(BinaryMatrix.zeros(3, 2), BinaryMatrix.zeros(3, 4))


class TestCoverageRate:
    def test_full_cover(self):
        x, = mats([[1, 1], [0, 1]])
        a, b = mats([[1], [1]], [[1, 1]])
        assert coverage_rate(x, a, b) == 1.0

    def test_empty_factorization_covers_nothing(self):
        x, = mats([[1, 1], [0, 1]])
        assert coverage_rate(x, BinaryMatrix.zeros(2, 0),
                             BinaryMatrix.zeros(0, 2)) == 0.0

    def test_hand_example_two_thirds(self):
        x, = mats([[1, 1], [0, 1]])
        a = BinaryMatrix.identity(2)
        b = BinaryMatrix.identity(2)
        assert coverage_rate(x, a, b) == 2 / 3

    def test_undefined_for_empty_input(self):
        with pytest.raises(UndefinedMetricError):
            coverage_rate(BinaryMatrix.zeros(2, 2), BinaryMatrix.zeros(2, 1),
                          BinaryMatrix.zeros(1, 2))

    def test_full_coverage_iff_no_uncovered_ones(self):
        rng = np.random.default_rng(83)
        for _ in range(120):
            n, m = rng.integers(1, 8, size=2)
            x_dense = (rng.random((n, m)) < 0.6).astype(np.uint8)
            if not x_dense.any():
                continue
            k = int(rng.integers(1, 4))
            a = BinaryMatrix.from_dense(rng.random((n, k)) < 0.5)
            b = BinaryMatrix.from_dense(rng.random((k, m)) < 0.5)
            x = BinaryMatrix.from_dense(x_dense)
            uncovered = elementwise(
                "and", x, complement(bool_product(a, b))).count()
            assert (coverage_rate(x, a, b) == 1.0) == (uncovered == 0)


class TestRanges:
    def test_truth_against_itself_is_zero_on_sampled_instances(self):
        from mebf.simulate import SimulationSpec, simulate
        for seed in range(5):
            inst = simulate(SimulationSpec(n=15, m=12, k=3, p0=0.4,
                                           p=0.02, seed=seed))
            assert reconstruction_error(inst.U, inst.V,
                                        inst.U, inst.V) == 0.0

    def test_ratios_bounded_on_random_instances(self):
        rng = np.random.default_rng(89)
        for _ in range(80):
            n, m = rng.integers(2, 10, size=2)
            k = int(rng.integers(1, 4))
            x = BinaryMatrix.from_dense(rng.random((n, m)) < 0.5)
            a = BinaryMatrix.from_dense(rng.random((n, k)) < 0.5)
            b = BinaryMatrix.from_dense(rng.random((k, m)) < 0.5)
            assert 0.0 <= density(a, b) <= 1.0
            if x.count():
                assert 0.0 <= coverage_rate(x, a, b) <= 1.0


class TestBuildReport:
    def test_all_zero_input(self):
        x = BinaryMatrix.zeros(3, 4)
        result = mebf_factorize(x, MebfConfig(t=0.5, k_max=2))
        report = build_report(x, result)
        assert report.final_cost == 0
        assert report.pattern_count == 0
        assert report.coverage_rate is None
        assert report.density is None
        assert report.per_column_coverage == (0, 0, 0, 0)
        assert len(report.warnings) == 2

    def test_perfect_factorization_with_truth(self):
        rng = np.random.default_rng(97)
        u = BinaryMatrix.from_dense(rng.random((8, 3)) < 0.5)
        v = BinaryMatrix.from_dense(rng.random((3, 9)) < 0.5)
        x = bool_product(u, v)
        result = mebf_factorize(x, MebfConfig(t=0.5, k_max=8))
        report = build_report(x, result, truth=(u, v))
        assert report.coverage_rate == 1.0
        assert report.reconstruction_error == 0.0
        assert report.final_cost == 0

    def test_block_diagonal_density_and_coverage(self):
        x, = mats([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
        result = mebf_factorize(x, MebfConfig(t=0.5, k_max=2))
        report = build_report(x, result)
        assert report.coverage_rate == 1.0
        assert report.density == 0.5
        assert report.per_column_coverage == (2, 2, 2, 2)

    def test_report_from_factors_matches_build_report(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            n, m = rng.integers(2, 12, size=2)
            x = BinaryMatrix.from_dense(rng.random((n, m)) < 0.4)
            if x.count() == 0:
                continue
            result = mebf_factorize(x, MebfConfig(t=0.5, k_max=4))
            direct = build_report(x, result)
            rebuilt = report_from_factors(x, result.A, result.B)
            assert rebuilt == direct

    def test_undefined_truth_flagged(self):
        x, = mats([[1, 0], [0, 1]])
        result = mebf_factorize(x, MebfConfig(t=0.5, k_max=2))
        report = build_report(
            x, result,
            truth=(BinaryMatrix.zeros(2, 1), BinaryMatrix.zeros(1, 2)))
        assert report.reconstruction_error is None
        assert any("reconstruction_error" in w for w in report.warnings)


class TestSerialization:
    def test_key_order_and_omission(self):
        report = MetricsReport(final_cost=3, pattern_count=2,
                               cost_history=(5, 3), density=0.25,
                               coverage_rate=0.75,
                               per_column_coverage=(1, 2))
        payload = report.to_json_dict()
        assert list(payload) == ["density", "coverage_rate", "final_cost",
                                 "pattern_count", "cost_history",
                                 "per_column_coverage"]
        assert "reconstruction_error" not in payload
        assert "wall_time_s" not in payload

    def test_warnings_serialized_when_present(self):
        report = MetricsReport(final_cost=0, pattern_count=0,
                               cost_history=(), warnings=("oops",))
        assert report.to_json_dict()["warnings"] == ["oops"]
