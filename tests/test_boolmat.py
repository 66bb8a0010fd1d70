"""Kernel tests: packed storage, Boolean products, orderings, cost."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mebf.boolmat import (
    BinaryMatrix,
    BinaryVector,
    axis_sums,
    bool_product,
    col_dot_counts,
    complement,
    cost_gamma,
    dot,
    elementwise,
    rank1_cost,
    rank1_overlap,
    rank1_product,
    row_dot_counts,
    utl_rearrange,
)
from mebf.oracle import naive_bool_product


def binary_arrays(max_rows=8, max_cols=12, min_rows=0, min_cols=0):
    shapes = st.tuples(st.integers(min_rows, max_rows),
                       st.integers(min_cols, max_cols))
    return shapes.flatmap(
        lambda s: arrays(np.uint8, s, elements=st.integers(0, 1)))


def bits(n):
    """All {0,1} vectors of length n."""
    return itertools.product((0, 1), repeat=n)


class TestStorage:
    def test_dense_round_trip(self):
        dense = np.array([[1, 0, 1, 1, 0, 1, 0, 1, 1], [0] * 9], np.uint8)
        assert np.array_equal(BinaryMatrix.from_dense(dense).to_dense(),
                              dense)

    @given(binary_arrays())
    def test_dense_round_trip_random(self, dense):
        mat = BinaryMatrix.from_dense(dense)
        assert np.array_equal(mat.to_dense(), dense)
        assert mat.count() == int(dense.sum())

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            BinaryMatrix.from_dense([[0, 2]])
        with pytest.raises(ValueError, match="0 or 1"):
            BinaryVector.from_dense([0.5])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            BinaryMatrix.from_dense([1, 0, 1])

    def test_zeros_ones_identity(self):
        assert BinaryMatrix.zeros(3, 9).count() == 0
        assert BinaryMatrix.ones(3, 9).count() == 27
        eye = BinaryMatrix.identity(4)
        assert np.array_equal(eye.to_dense(), np.eye(4, dtype=np.uint8))

    def test_degenerate_shapes(self):
        for mat in (BinaryMatrix.zeros(0, 0), BinaryMatrix.zeros(3, 0),
                    BinaryMatrix.zeros(0, 5)):
            assert mat.count() == 0
            assert mat.to_dense().shape == mat.shape

    def test_row_col_extraction(self):
        dense = np.array([[1, 0, 1], [0, 1, 1]], np.uint8)
        mat = BinaryMatrix.from_dense(dense)
        assert np.array_equal(mat.row(1).to_dense(), dense[1])
        assert np.array_equal(mat.col(2).to_dense(), dense[:, 2])

    def test_from_rows_and_columns(self):
        vecs = [BinaryVector.from_dense([1, 0, 1]),
                BinaryVector.from_dense([0, 1, 1])]
        assert np.array_equal(
            BinaryMatrix.from_rows(vecs, 3).to_dense(),
            [[1, 0, 1], [0, 1, 1]])
        assert np.array_equal(
            BinaryMatrix.from_columns(vecs, 3).to_dense(),
            [[1, 0], [0, 1], [1, 1]])
        assert BinaryMatrix.from_rows([], 4).shape == (0, 4)
        assert BinaryMatrix.from_columns([], 4).shape == (4, 0)

    def test_equality_and_copy(self):
        mat = BinaryMatrix.from_dense([[1, 0], [1, 1]])
        dup = mat.copy()
        assert mat == dup
        assert mat != BinaryMatrix.zeros(2, 2)

    def test_complement_keeps_padding_clean(self):
        mat = BinaryMatrix.from_dense([[1, 0, 1, 1, 0, 1, 0, 1, 1]])
        flipped = complement(mat)
        assert flipped.count() == 9 - mat.count()
        assert complement(flipped) == mat
        assert complement(BinaryMatrix.zeros(2, 9)).count() == 18


class TestBoolProduct:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(3)
        mat = BinaryMatrix.from_dense((rng.random((6, 6)) < 0.4))
        assert bool_product(mat, BinaryMatrix.identity(6)) == mat
        assert bool_product(BinaryMatrix.identity(6), mat) == mat

    def test_hand_example(self):
        a = BinaryMatrix.from_dense([[1, 0], [1, 1]])
        b = BinaryMatrix.from_dense([[1, 1], [0, 1]])
        assert bool_product(a, b).to_dense().tolist() == [[1, 1], [1, 1]]

    def test_zero_annihilates(self):
        b = BinaryMatrix.ones(3, 5)
        assert bool_product(BinaryMatrix.zeros(4, 3), b).count() == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            bool_product(BinaryMatrix.zeros(2, 3), BinaryMatrix.zeros(2, 3))

    def test_exhaustive_rank_one_against_naive(self):
        # every (A, B) pair with inner dimension 1, up to 4x4 output
        for n in range(1, 5):
            for m in range(1, 5):
                for a_bits in bits(n):
                    a = BinaryMatrix.from_dense([[v] for v in a_bits])
                    for b_bits in bits(m):
                        b = BinaryMatrix.from_dense([list(b_bits)])
                        assert bool_product(a, b) == naive_bool_product(a, b)

    def test_random_against_naive(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n, k, m = rng.integers(1, 12, size=3)
            a = BinaryMatrix.from_dense(rng.random((n, k)) < rng.random())
            b = BinaryMatrix.from_dense(rng.random((k, m)) < rng.random())
            assert bool_product(a, b) == naive_bool_product(a, b)

    @given(binary_arrays(6, 5, 1, 1), st.data())
    @settings(max_examples=60)
    def test_associative(self, a_dense, data):
        k1 = a_dense.shape[1]
        b_dense = data.draw(arrays(np.uint8, (k1, data.draw(
            st.integers(1, 5))), elements=st.integers(0, 1)))
        c_dense = data.draw(arrays(np.uint8, (b_dense.shape[1], data.draw(
            st.integers(1, 5))), elements=st.integers(0, 1)))
        a, b, c = (BinaryMatrix.from_dense(d)
                   for d in (a_dense, b_dense, c_dense))
        assert (bool_product(bool_product(a, b), c)
                == bool_product(a, bool_product(b, c)))


class TestElementwise:
    def test_self_xor_is_zero(self):
        mat = BinaryMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
        assert elementwise("xor", mat, mat).count() == 0

    def test_and_with_ones_is_identity(self):
        mat = BinaryMatrix.from_dense([[1, 0, 1], [0, 1, 1]])
        assert elementwise("and", mat, BinaryMatrix.ones(2, 3)) == mat

    def test_xor_truth_table(self):
        a = BinaryMatrix.from_dense([[1, 0], [0, 1]])
        b = BinaryMatrix.from_dense([[1, 1], [0, 0]])
        assert elementwise("xor", a, b).to_dense().tolist() == [[0, 1],
                                                                [0, 1]]

    @given(binary_arrays(6, 10))
    @settings(max_examples=60)
    def test_against_numpy(self, dense):
        rng = np.random.default_rng(int(dense.sum()))
        other = (rng.random(dense.shape) < 0.5).astype(np.uint8)
        a, b = BinaryMatrix.from_dense(dense), BinaryMatrix.from_dense(other)
        assert np.array_equal(elementwise("xor", a, b).to_dense(),
                              dense ^ other)
        assert np.array_equal(elementwise("and", a, b).to_dense(),
                              dense & other)
        assert np.array_equal(elementwise("or", a, b).to_dense(),
                              dense | other)

    def test_errors(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            elementwise("xor", BinaryMatrix.zeros(2, 2),
                        BinaryMatrix.zeros(2, 3))
        with pytest.raises(ValueError, match="unknown elementwise op"):
            elementwise("nand", BinaryMatrix.zeros(2, 2),
                        BinaryMatrix.zeros(2, 2))


class TestRank1Product:
    def test_all_ones(self):
        out = rank1_product(BinaryVector.ones(3), BinaryVector.ones(4))
        assert out == BinaryMatrix.ones(3, 4)

    def test_zero_rows(self):
        out = rank1_product(BinaryVector.zeros(3), BinaryVector.ones(4))
        assert out.count() == 0

    def test_hand_example(self):
        out = rank1_product(BinaryVector.from_dense([1, 1, 0]),
                            BinaryVector.from_dense([0, 1]))
        assert out.to_dense().tolist() == [[0, 1], [0, 1], [0, 0]]


class TestSumsAndDots:
    def test_axis_sums_examples(self):
        rows, cols = axis_sums(BinaryMatrix.zeros(3, 3))
        assert rows.tolist() == [0, 0, 0] and cols.tolist() == [0, 0, 0]
        rows, cols = axis_sums(BinaryMatrix.identity(3))
        assert rows.tolist() == [1, 1, 1] and cols.tolist() == [1, 1, 1]
        rows, cols = axis_sums(BinaryMatrix.from_dense([[0, 1, 1],
                                                        [1, 1, 1]]))
        assert rows.tolist() == [2, 3]
        assert cols.tolist() == [1, 2, 2]

    @given(binary_arrays())
    def test_axis_sums_random(self, dense):
        rows, cols = axis_sums(BinaryMatrix.from_dense(dense))
        assert np.array_equal(rows, dense.sum(axis=1))
        assert np.array_equal(cols, dense.sum(axis=0))

    def test_dot(self):
        u = BinaryVector.from_dense([1, 0, 1, 1])
        v = BinaryVector.from_dense([1, 1, 0, 1])
        assert dot(u, v) == 2
        with pytest.raises(ValueError, match="length mismatch"):
            dot(u, BinaryVector.ones(3))

    def test_dot_counts_match_dense(self):
        rng = np.random.default_rng(5)
        dense = (rng.random((9, 13)) < 0.4).astype(np.uint8)
        mat = BinaryMatrix.from_dense(dense)
        over_rows = (rng.random(9) < 0.5).astype(np.uint8)
        over_cols = (rng.random(13) < 0.5).astype(np.uint8)
        assert np.array_equal(
            col_dot_counts(mat, BinaryVector.from_dense(over_rows)),
            dense.T @ over_rows)
        assert np.array_equal(
            row_dot_counts(mat, BinaryVector.from_dense(over_cols)),
            dense @ over_cols)


class TestKernelsAtBlockEdges:
    """Kernels against dense numpy around the 255-row block.

    col_sums tallies each block of 255 rows in uint8, so a column of ones
    reaches the tally's maximum at 255 rows and spills into a second block
    at 256; nonzero and row_blocks unpack the same blocks.  Widths straddle
    the 8-bit byte and the 64-bit word.
    """

    @pytest.mark.parametrize("n_rows", [254, 255, 256, 511])
    @pytest.mark.parametrize("n_cols", [1, 9, 64, 65, 129])
    @pytest.mark.parametrize("density", [0.5, 1.0])
    def test_against_dense(self, n_rows, n_cols, density):
        rng = np.random.default_rng(n_rows * 1000 + n_cols)
        dense = (rng.random((n_rows, n_cols)) < density).astype(np.uint8)
        dense[:, 0] = 1
        dense[:, -1] = 1
        mat = BinaryMatrix.from_dense(dense)
        over_cols = (rng.random(n_cols) < 0.5).astype(np.uint8)
        row_mask = (rng.random(n_rows) < 0.5).astype(np.uint8)
        col_mask = (rng.random(n_cols) < 0.5).astype(np.uint8)

        assert mat.count() == int(dense.sum())
        assert np.array_equal(mat.row_sums(), dense.sum(axis=1))
        assert np.array_equal(mat.col_sums(), dense.sum(axis=0))
        assert mat.col_sums()[0] == n_rows
        assert np.array_equal(
            row_dot_counts(mat, BinaryVector.from_dense(over_cols)),
            dense.astype(np.int64) @ over_cols)
        assert rank1_overlap(BinaryVector.from_dense(row_mask),
                             BinaryVector.from_dense(col_mask), mat) == int(
            (dense & np.outer(row_mask, col_mask)).sum())
        rows, cols = mat.nonzero()
        expected_rows, expected_cols = np.nonzero(dense)
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(cols, expected_cols)
        starts, blocks = zip(*mat.row_blocks())
        assert starts == tuple(range(0, n_rows, 255))
        assert np.array_equal(np.vstack(blocks), dense)

    def test_all_ones(self):
        for n_rows in (254, 255, 256, 511):
            mat = BinaryMatrix.ones(n_rows, 129)
            assert mat.count() == n_rows * 129
            assert mat.col_sums().tolist() == [n_rows] * 129
            assert mat.row_sums().tolist() == [129] * n_rows

    def test_empty_axes(self):
        assert BinaryMatrix.zeros(300, 0).col_sums().shape == (0,)
        for shape in ((300, 0), (0, 70)):
            rows, cols = BinaryMatrix.zeros(*shape).nonzero()
            assert rows.size == cols.size == 0
        assert BinaryMatrix.zeros(0, 70).col_sums().tolist() == [0] * 70
        assert BinaryMatrix.zeros(0, 70).count() == 0


class TestRank1Overlap:
    def test_hand_example(self):
        x = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
        rows = BinaryVector.from_dense([1, 0, 1])
        cols = BinaryVector.from_dense([0, 1, 1])
        assert rank1_overlap(rows, cols, x) == 3

    def test_empty_pattern(self):
        x = BinaryMatrix.ones(4, 5)
        assert rank1_overlap(BinaryVector.zeros(4), BinaryVector.ones(5),
                             x) == 0
        assert rank1_overlap(BinaryVector.ones(4), BinaryVector.zeros(5),
                             x) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not fit"):
            rank1_overlap(BinaryVector.ones(3), BinaryVector.ones(4),
                          BinaryMatrix.zeros(4, 4))

    @given(binary_arrays(min_rows=1, min_cols=1), st.data())
    def test_against_numpy(self, dense, data):
        n, m = dense.shape
        row_mask = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
        col_mask = data.draw(arrays(np.uint8, m, elements=st.integers(0, 1)))
        got = rank1_overlap(BinaryVector.from_dense(row_mask),
                            BinaryVector.from_dense(col_mask),
                            BinaryMatrix.from_dense(dense))
        assert got == int((dense & np.outer(row_mask, col_mask)).sum())


class TestUtlRearrange:
    def test_hand_example(self):
        view = utl_rearrange(BinaryMatrix.from_dense([[0, 1], [1, 1]]))
        assert view.row_order.tolist() == [1, 0]
        assert view.col_order.tolist() == [0, 1]
        assert (view.n_active, view.m_active) == (2, 2)

    def test_already_arranged_is_identity(self):
        view = utl_rearrange(BinaryMatrix.from_dense([[1, 1], [0, 1]]))
        assert view.row_order.tolist() == [0, 1]
        assert view.col_order.tolist() == [0, 1]

    def test_zero_lines_excluded_from_active(self):
        mat = BinaryMatrix.from_dense([[0, 1, 0], [0, 0, 0], [0, 1, 1]])
        view = utl_rearrange(mat)
        assert view.n_active == 2 and view.m_active == 2
        assert view.row_order.tolist()[-1] == 1       # zero row last
        assert view.col_order.tolist()[0] == 0        # zero column first
        assert 0 not in view.active_cols.tolist()

    def test_all_zero(self):
        view = utl_rearrange(BinaryMatrix.zeros(3, 4))
        assert view.n_active == 0 and view.m_active == 0
        assert sorted(view.row_order.tolist()) == [0, 1, 2]

    def test_stable_ties(self):
        # equal sums everywhere: orderings must stay in original order
        view = utl_rearrange(BinaryMatrix.ones(4, 5))
        assert view.row_order.tolist() == [0, 1, 2, 3]
        assert view.col_order.tolist() == [0, 1, 2, 3, 4]

    @given(binary_arrays(9, 9))
    def test_view_properties(self, dense):
        mat = BinaryMatrix.from_dense(dense)
        view = utl_rearrange(mat)
        permuted = dense[np.ix_(view.row_order, view.col_order)]
        active = permuted[:view.n_active,
                          dense.shape[1] - view.m_active:]
        row_totals = active.sum(axis=1)
        col_totals = active.sum(axis=0)
        assert np.all(row_totals[:-1] >= row_totals[1:])
        assert np.all(col_totals[:-1] <= col_totals[1:])
        # inverse permutations recover the original exactly
        inv_rows = np.argsort(view.row_order)
        inv_cols = np.argsort(view.col_order)
        assert np.array_equal(permuted[np.ix_(inv_rows, inv_cols)], dense)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        dense = (rng.random((8, 8)) < 0.3).astype(np.uint8)
        mat = BinaryMatrix.from_dense(dense)
        first, second = utl_rearrange(mat), utl_rearrange(mat)
        assert np.array_equal(first.row_order, second.row_order)
        assert np.array_equal(first.col_order, second.col_order)


class TestCostGamma:
    def test_exact_reproduction_costs_zero(self):
        a = BinaryMatrix.from_dense([[1, 0], [1, 1]])
        b = BinaryMatrix.from_dense([[1, 1], [0, 1]])
        assert cost_gamma(a, b, bool_product(a, b)) == 0

    def test_empty_factorization_costs_all_ones(self):
        x = BinaryMatrix.from_dense([[1, 0, 1], [1, 1, 0]])
        assert cost_gamma(BinaryMatrix.zeros(2, 0),
                          BinaryMatrix.zeros(0, 3), x) == x.count()

    def test_hand_example(self):
        x = BinaryMatrix.from_dense([[1, 1], [1, 0]])
        a = BinaryMatrix.from_dense([[1], [1]])
        b = BinaryMatrix.from_dense([[1, 0]])
        assert cost_gamma(a, b, x) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            cost_gamma(BinaryMatrix.zeros(2, 1), BinaryMatrix.zeros(1, 2),
                       BinaryMatrix.zeros(3, 3))

    def test_two_code_paths_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n, k, m = rng.integers(1, 9, size=3)
            a_dense = (rng.random((n, k)) < 0.5).astype(np.uint8)
            b_dense = (rng.random((k, m)) < 0.5).astype(np.uint8)
            x_dense = (rng.random((n, m)) < 0.5).astype(np.uint8)
            fast = cost_gamma(BinaryMatrix.from_dense(a_dense),
                              BinaryMatrix.from_dense(b_dense),
                              BinaryMatrix.from_dense(x_dense))
            recon = (a_dense.astype(bool) @ b_dense.astype(bool))
            assert fast == int((x_dense.astype(bool) ^ recon).sum())

    def test_rank1_cost_matches_cost_gamma(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n, m = rng.integers(1, 10, size=2)
            row_mask = (rng.random(n) < 0.5).astype(np.uint8)
            col_mask = (rng.random(m) < 0.5).astype(np.uint8)
            x = BinaryMatrix.from_dense(rng.random((n, m)) < 0.5)
            a = BinaryMatrix.from_dense(row_mask.reshape(-1, 1))
            b = BinaryMatrix.from_dense(col_mask.reshape(1, -1))
            assert rank1_cost(BinaryVector.from_dense(row_mask),
                              BinaryVector.from_dense(col_mask),
                              x) == cost_gamma(a, b, x)
