"""Metric tests with hand-derived fixtures and definitional cross-checks."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mebf.boolmat import (
    BinaryMatrix,
    RowGroups,
    bool_product,
    complement,
    elementwise,
)
from mebf.factorize import FactorResult, MebfConfig, mebf_factorize
from mebf.metrics import (
    MetricsReport,
    UndefinedMetricError,
    build_report,
    coverage_rate,
    density,
    reconstruction_error,
    report_from_factors,
)
from reference import identity, ones, union_dense


def mats(*denses):
    return tuple(BinaryMatrix.from_dense(d) for d in denses)


class TestReconstructionError:
    def test_exact_recovery_is_zero(self):
        u, v = mats([[1, 0], [1, 1]], [[0, 1], [1, 1]])
        assert reconstruction_error(bool_product(u, v),
                                    bool_product(u, v)) == 0.0

    def test_empty_estimate_is_one(self):
        u, v = mats([[1, 0], [1, 1]], [[0, 1], [1, 1]])
        a = BinaryMatrix.zeros(2, 0)
        b = BinaryMatrix.zeros(0, 2)
        assert reconstruction_error(bool_product(u, v),
                                    bool_product(a, b)) == 1.0

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
        assert reconstruction_error(bool_product(u, v),
                                    bool_product(a, b)) == expected

    def test_can_exceed_one(self):
        u, v = mats([[1], [0]], [[1, 0]])
        a, b = mats([[1], [1]], [[1, 1]])
        assert reconstruction_error(bool_product(u, v),
                                    bool_product(a, b)) == 3.0

    def test_undefined_for_empty_truth(self):
        u = BinaryMatrix.zeros(2, 1)
        v = BinaryMatrix.zeros(1, 2)
        with pytest.raises(UndefinedMetricError):
            reconstruction_error(bool_product(u, v), bool_product(u, v))


class TestDensity:
    def test_extremes(self):
        assert density(ones(3, 2), ones(2, 4)) == 1
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
        assert coverage_rate(x, bool_product(a, b)) == 1.0

    def test_empty_factorization_covers_nothing(self):
        x, = mats([[1, 1], [0, 1]])
        empty = bool_product(BinaryMatrix.zeros(2, 0),
                             BinaryMatrix.zeros(0, 2))
        assert coverage_rate(x, empty) == 0.0

    def test_hand_example_two_thirds(self):
        x, = mats([[1, 1], [0, 1]])
        a = identity(2)
        b = identity(2)
        assert coverage_rate(x, bool_product(a, b)) == 2 / 3

    def test_undefined_for_empty_input(self):
        with pytest.raises(UndefinedMetricError):
            coverage_rate(BinaryMatrix.zeros(2, 2),
                          bool_product(BinaryMatrix.zeros(2, 1),
                                       BinaryMatrix.zeros(1, 2)))

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
            assert ((coverage_rate(x, bool_product(a, b)) == 1.0)
                    == (uncovered == 0))


class TestRanges:
    def test_truth_against_itself_is_zero_on_sampled_instances(self):
        from mebf.simulate import SimulationSpec, simulate
        for seed in range(5):
            inst = simulate(SimulationSpec(n=15, m=12, k=3, p0=0.4,
                                           p=0.02, seed=seed))
            assert reconstruction_error(bool_product(inst.U, inst.V),
                                        bool_product(inst.U, inst.V)) == 0.0

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
                assert 0.0 <= coverage_rate(x, bool_product(a, b)) <= 1.0


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


# factor pairs that MEBF would not return, as (columns of A, rows of B)
FOREIGN = {
    "overlapping": ([[1, 1, 1, 0, 0, 0], [0, 1, 1, 1, 0, 0]],
                    [[1, 1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0, 0]]),
    "repeated": ([[1, 1, 0, 0, 1, 0], [1, 1, 0, 0, 1, 0]],
                 [[0, 1, 1, 0, 0, 1, 0], [0, 1, 1, 0, 0, 1, 0]]),
    "empty_rows": ([[0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 1, 0]],
                   [[1, 1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1]]),
    "empty_cols": ([[1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1]],
                   [[0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0, 0, 1]]),
    "no_patterns": ([], []),
}


def foreign_factors(name):
    """(A, B) as matrices and dense arrays, for a 6 x 7 input."""
    cols, rows = FOREIGN[name]
    a = np.array(cols, dtype=np.uint8).reshape(-1, 6).T
    b = np.array(rows, dtype=np.uint8).reshape(-1, 7)
    return BinaryMatrix.from_dense(a), BinaryMatrix.from_dense(b), a, b


def numpy_costs(x, a, b):
    """Cost of each prefix of patterns against x, in plain numpy."""
    return [int((x ^ (a[:, :l + 1] @ b[:l + 1] > 0)).sum())
            for l in range(a.shape[1])]


class TestForeignFactors:
    """Reports of factors that MEBF did not produce, against plain numpy."""

    @pytest.mark.parametrize("name", sorted(FOREIGN))
    def test_report_from_factors_matches_numpy(self, name):
        rng = np.random.default_rng(131)
        x = (rng.random((6, 7)) < 0.5).astype(np.uint8)
        u = (rng.random((6, 2)) < 0.5).astype(np.uint8)
        v = (rng.random((2, 7)) < 0.5).astype(np.uint8)
        a_mat, b_mat, a, b = foreign_factors(name)
        report = report_from_factors(
            BinaryMatrix.from_dense(x), a_mat, b_mat,
            truth=(BinaryMatrix.from_dense(u), BinaryMatrix.from_dense(v)))
        recon = (a @ b > 0).astype(np.uint8)
        truth = (u @ v > 0).astype(np.uint8)
        assert report.cost_history == tuple(numpy_costs(x, a, b))
        assert report.final_cost == int((x ^ recon).sum())
        assert report.coverage_rate == int((x & recon).sum()) / int(x.sum())
        assert report.per_column_coverage == tuple(recon.sum(axis=0))
        assert report.reconstruction_error == (int((truth ^ recon).sum())
                                               / int(truth.sum()))

    @pytest.mark.parametrize("name", sorted(FOREIGN))
    def test_build_report_final_cost_matches_numpy(self, name):
        a_mat, b_mat, a, b = foreign_factors(name)
        # ones added outside the patterns keep the cost trace non-increasing
        x = (a @ b > 0).astype(np.uint8)
        x[0, 6] = x[5, 0] = 1
        history = numpy_costs(x, a, b)
        result = FactorResult(A=a_mat, B=b_mat, cost_history=tuple(history),
                              iterations=len(history), weak_signal_uses=0,
                              residual_history=())
        report = build_report(BinaryMatrix.from_dense(x), result)
        assert report.final_cost == int((x ^ (a @ b > 0)).sum())


@st.composite
def factor_instances(draw):
    """(x, A, B) in numpy with widths around the 8-bit byte and the 64-bit
    word, and factors MEBF would not return: overlapping, repeated and
    empty patterns, or none at all."""
    n = draw(st.integers(1, 6))
    m = draw(st.sampled_from([1, 7, 8, 9, 63, 64, 65]))
    bits = st.integers(0, 1)
    x = draw(arrays(np.uint8, (n, m), elements=bits))
    cols, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["fresh", "repeat", "empty"]))
        if kind == "repeat" and cols:
            l = draw(st.integers(0, len(cols) - 1))
            col, row = cols[l], rows[l]
        else:
            col = draw(arrays(np.uint8, n, elements=bits))
            row = draw(arrays(np.uint8, m, elements=bits))
            if kind == "empty":
                (col if draw(st.booleans()) else row)[:] = 0
        cols.append(col)
        rows.append(row)
    a = np.array(cols, dtype=np.uint8).reshape(-1, n).T
    b = np.array(rows, dtype=np.uint8).reshape(-1, m)
    return x, a, b


class TestPricingAgainstNumpy:
    """RowGroups.gain and the report's trace on arbitrary factors."""

    @settings(max_examples=200, deadline=None)
    @given(factor_instances())
    def test_gain_and_report_match_numpy(self, instance):
        x, a, b = instance
        x_mat, a_mat, b_mat = mats(x, a, b)
        union = RowGroups(*x.shape)
        before = np.zeros_like(x)
        for l in range(a.shape[1]):
            after = before | np.outer(a[:, l], b[l])
            rows = np.flatnonzero(a[:, l])
            assert union.gain(rows, b_mat.row(l), x_mat) == (
                int((x ^ after).sum()) - int((x ^ before).sum()),
                int((x & after).sum()) - int((x & before).sum()))
            union.add(rows, b_mat.row(l))
            assert np.array_equal(union_dense(union), after)
            before = after

        report = report_from_factors(x_mat, a_mat, b_mat)
        product = (a.astype(np.int64) @ b > 0).astype(np.uint8)
        assert report.cost_history == tuple(numpy_costs(x, a, b))
        assert report.final_cost == int((x ^ product).sum())
        assert report.per_column_coverage == tuple(product.sum(axis=0))
        assert report.pattern_count == a.shape[1]

    def test_peak_memory_with_truth(self):
        # measured at 2.271x the packed input, with X, A∘B and U∘V held
        # while the overlaps are counted a block at a time (3.262x while
        # each count formed its n x m matrix); lower the bound as the report
        # allocates less, never raise it
        from mebf.simulate import SimulationSpec, simulate
        inst = simulate(SimulationSpec(n=2000, m=2000, k=5, p0=0.2, p=0.01,
                                       seed=3))
        result = mebf_factorize(inst.X, MebfConfig(t=0.8, k_max=10))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = report_from_factors(inst.X, result.A, result.B,
                                         truth=(inst.U, inst.V))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.cost_history == result.cost_history
        assert peak <= 2.28 * inst.X._packed.nbytes


class TestReportShapes:
    def test_factors_that_disagree_are_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "factor shapes disagree: (2, 2) vs (3, 4)")):
            report_from_factors(ones(2, 4), ones(2, 2), ones(3, 4))

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("x_shape,message", [
        ((3, 4), "shape mismatch: (3, 4) vs (2, 4)"),
        ((2, 5), "shape mismatch: (2, 5) vs (2, 4)"),
    ])
    def test_factors_that_do_not_fit_x_are_rejected(self, k, x_shape,
                                                    message):
        x = ones(*x_shape)
        with pytest.raises(ValueError, match=re.escape(message)):
            report_from_factors(x, ones(2, k),
                                ones(k, 4))


class TestSerialization:
    def test_key_order_and_omission(self):
        report = MetricsReport(final_cost=3, cost_history=(5, 3),
                               density=0.25, coverage_rate=0.75,
                               per_column_coverage=(1, 2))
        payload = report.to_json_dict()
        assert list(payload) == ["density", "coverage_rate", "final_cost",
                                 "pattern_count", "cost_history",
                                 "per_column_coverage"]
        assert payload["pattern_count"] == 2
        assert "reconstruction_error" not in payload
        assert "wall_time_s" not in payload

    def test_warnings_serialized_when_present(self):
        report = MetricsReport(final_cost=0, cost_history=(),
                               warnings=("oops",))
        assert report.to_json_dict()["warnings"] == ["oops"]
