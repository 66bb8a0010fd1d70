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
    UtlView,
    bool_product,
    col_dot_counts,
    complement,
    elementwise,
    or_pattern,
    rank1_cost,
    rank1_gain,
    rank1_product,
    row_dot_counts,
    utl_rearrange,
)
from reference import (
    cost_gamma,
    identity,
    naive_bool_product,
    ones,
    ones_vector,
)


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
        assert ones(3, 9).count() == 27
        eye = identity(4)
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

    def test_equality(self):
        mat = BinaryMatrix.from_dense([[1, 0], [1, 1]])
        assert mat == BinaryMatrix.from_dense([[1, 0], [1, 1]])
        assert mat != BinaryMatrix.zeros(2, 2)

    def test_complement_keeps_padding_clean(self):
        mat = BinaryMatrix.from_dense([[1, 0, 1, 1, 0, 1, 0, 1, 1]])
        flipped = complement(mat)
        assert flipped.count() == 9 - mat.count()
        assert complement(flipped) == mat
        assert complement(BinaryMatrix.zeros(2, 9)).count() == 18

    @pytest.mark.parametrize("n_cols", [1, 9, 64, 65, 129])
    def test_complement_leaves_its_input_and_padding(self, n_cols):
        rng = np.random.default_rng(n_cols)
        dense = (rng.random((5, n_cols)) < 0.5).astype(np.uint8)
        mat = BinaryMatrix.from_dense(dense)
        before = mat._packed.tobytes()
        flipped = complement(mat)
        assert mat._packed.tobytes() == before
        assert np.array_equal(flipped.to_dense(), 1 - dense)
        # padding bits stay zero: repacking the dense bits gives the same
        # words
        assert np.array_equal(flipped._packed,
                              np.packbits(1 - dense, axis=1))


class TestBoolProduct:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(3)
        mat = BinaryMatrix.from_dense((rng.random((6, 6)) < 0.4))
        assert bool_product(mat, identity(6)) == mat
        assert bool_product(identity(6), mat) == mat

    def test_hand_example(self):
        a = BinaryMatrix.from_dense([[1, 0], [1, 1]])
        b = BinaryMatrix.from_dense([[1, 1], [0, 1]])
        assert bool_product(a, b).to_dense().tolist() == [[1, 1], [1, 1]]

    def test_zero_annihilates(self):
        b = ones(3, 5)
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
        assert elementwise("and", mat, ones(2, 3)) == mat

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
        out = rank1_product(ones_vector(3), ones_vector(4))
        assert out == ones(3, 4)

    def test_zero_rows(self):
        out = rank1_product(BinaryVector.zeros(3), ones_vector(4))
        assert out.count() == 0

    def test_hand_example(self):
        out = rank1_product(BinaryVector.from_dense([1, 1, 0]),
                            BinaryVector.from_dense([0, 1]))
        assert out.to_dense().tolist() == [[0, 1], [0, 1], [0, 0]]


class TestSumsAndDots:
    def test_axis_sums_examples(self):
        zeros = BinaryMatrix.zeros(3, 3)
        assert zeros.row_sums().tolist() == [0, 0, 0]
        assert zeros.col_sums().tolist() == [0, 0, 0]
        eye = identity(3)
        assert eye.row_sums().tolist() == [1, 1, 1]
        assert eye.col_sums().tolist() == [1, 1, 1]
        x = BinaryMatrix.from_dense([[0, 1, 1],
                                     [1, 1, 1]])
        assert x.row_sums().tolist() == [2, 3]
        assert x.col_sums().tolist() == [1, 2, 2]

    @given(binary_arrays())
    def test_axis_sums_random(self, dense):
        x = BinaryMatrix.from_dense(dense)
        assert np.array_equal(x.row_sums(), dense.sum(axis=1))
        assert np.array_equal(x.col_sums(), dense.sum(axis=0))

    def test_dot(self):
        u = BinaryVector.from_dense([1, 0, 1, 1])
        v = BinaryVector.from_dense([1, 1, 0, 1])
        assert (u & v).count() == 2
        with pytest.raises(ValueError, match="length mismatch"):
            u & ones_vector(3)

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

    col_sums and col_dot_counts tally each block of 255 rows in uint8, so a
    column of ones reaches the tally's maximum at 255 rows and spills into a
    second block at 256; row_blocks unpacks the same blocks.  Widths
    straddle the 8-bit byte and the 64-bit word.
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
        # anchors of all n_rows rows and of about half of them
        every_row = col_dot_counts(mat, ones_vector(n_rows))
        assert np.array_equal(every_row, dense.sum(axis=0))
        assert every_row[0] == n_rows
        assert np.array_equal(
            col_dot_counts(mat, BinaryVector.from_dense(row_mask)),
            dense.T.astype(np.int64) @ row_mask)
        assert np.array_equal(
            row_dot_counts(mat, BinaryVector.from_dense(over_cols)),
            dense.astype(np.int64) @ over_cols)
        assert gain_on_empty(BinaryVector.from_dense(row_mask),
                             BinaryVector.from_dense(col_mask), mat)[1] == int(
            (dense & np.outer(row_mask, col_mask)).sum())
        starts, blocks = zip(*mat.row_blocks())
        assert starts == tuple(range(0, n_rows, 255))
        assert np.array_equal(np.vstack(blocks), dense)

    def test_all_ones(self):
        for n_rows in (254, 255, 256, 511):
            mat = ones(n_rows, 129)
            assert mat.count() == n_rows * 129
            assert mat.col_sums().tolist() == [n_rows] * 129
            assert col_dot_counts(mat, ones_vector(n_rows)).tolist() \
                == [n_rows] * 129
            assert mat.row_sums().tolist() == [129] * n_rows

    def test_empty_axes(self):
        assert BinaryMatrix.zeros(300, 0).row_sums().shape == (300,)
        assert BinaryMatrix.zeros(300, 0).col_sums().shape == (0,)
        assert col_dot_counts(BinaryMatrix.zeros(300, 0),
                              ones_vector(300)).shape == (0,)
        assert col_dot_counts(BinaryMatrix.zeros(0, 70),
                              ones_vector(0)).tolist() == [0] * 70
        blocks = list(BinaryMatrix.zeros(300, 0).row_blocks())
        assert [(start, block.shape) for start, block in blocks] == [
            (0, (255, 0)), (255, (45, 0))]
        assert list(BinaryMatrix.zeros(0, 70).row_blocks()) == []
        assert BinaryMatrix.zeros(0, 70).col_sums().tolist() == [0] * 70
        assert BinaryMatrix.zeros(0, 70).count() == 0


class TestRowTallyAtChunkEdges:
    """Row kernels around the 8191-byte chunk of the uint16 row tally.

    A chunk of 8191 bytes holds at most 65528 ones; an all-ones row at
    8192 bytes or more would overflow a single uint16 sum, so it must spill
    into a second chunk.
    """

    @pytest.mark.parametrize("n_cols", [65520, 65528, 65536, 65537, 131064])
    def test_against_dense(self, n_cols):
        rng = np.random.default_rng(n_cols)
        dense = np.vstack([np.ones(n_cols, np.uint8),
                           (rng.random(n_cols) < 0.5).astype(np.uint8),
                           np.zeros(n_cols, np.uint8)])
        mat = BinaryMatrix.from_dense(dense)
        assert np.array_equal(mat.row_sums(), dense.sum(axis=1))
        assert mat.row_sums()[0] == n_cols
        over_cols = (rng.random(n_cols) < 0.5).astype(np.uint8)
        assert np.array_equal(
            row_dot_counts(mat, BinaryVector.from_dense(over_cols)),
            dense.astype(np.int64) @ over_cols)
        every_col = row_dot_counts(mat, ones_vector(n_cols))
        assert every_col.tolist() == dense.sum(axis=1).tolist()
        assert every_col[0] == n_cols


def gain_on_empty(row_mask, col_mask, x):
    """rank1_gain against an all-zero recon: the pattern covers exactly its
    overlap with x, and the cost moves by |pattern| - 2 * overlap."""
    return rank1_gain(row_mask, col_mask, x, BinaryMatrix.zeros(*x.shape))


class TestRank1Gain:
    def test_hand_example(self):
        x = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
        rows = BinaryVector.from_dense([1, 0, 1])
        cols = BinaryVector.from_dense([0, 1, 1])
        assert gain_on_empty(rows, cols, x) == (4 - 2 * 3, 3)
        # entries already in recon are not flipped again: only (0, 2) and
        # (2, 2) are added, one of which is a one of x
        recon = BinaryMatrix.from_dense([[1, 1, 0], [0, 0, 0], [0, 1, 0]])
        assert rank1_gain(rows, cols, x, recon) == (2 - 2 * 1, 1)
        assert rank1_gain(rows, cols, x, ones(3, 3)) == (0, 0)

    def test_empty_pattern(self):
        x = ones(4, 5)
        assert gain_on_empty(BinaryVector.zeros(4), ones_vector(5),
                             x) == (0, 0)
        assert gain_on_empty(ones_vector(4), BinaryVector.zeros(5),
                             x) == (0, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not fit"):
            gain_on_empty(ones_vector(3), ones_vector(4),
                          BinaryMatrix.zeros(4, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            rank1_gain(ones_vector(4), ones_vector(4),
                       BinaryMatrix.zeros(4, 4), BinaryMatrix.zeros(4, 5))

    @given(binary_arrays(min_rows=1, min_cols=1), st.data())
    def test_against_numpy(self, dense, data):
        n, m = dense.shape
        row_mask = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
        col_mask = data.draw(arrays(np.uint8, m, elements=st.integers(0, 1)))
        recon = data.draw(arrays(np.uint8, (n, m),
                                 elements=st.integers(0, 1)))
        rows = BinaryVector.from_dense(row_mask)
        cols = BinaryVector.from_dense(col_mask)
        x = BinaryMatrix.from_dense(dense)
        pattern = np.outer(row_mask, col_mask)
        overlap = int((dense & pattern).sum())
        assert gain_on_empty(rows, cols, x) == (
            int(pattern.sum()) - 2 * overlap, overlap)
        after = recon | pattern
        assert rank1_gain(rows, cols, x, BinaryMatrix.from_dense(recon)) == (
            int((dense ^ after).sum()) - int((dense ^ recon).sum()),
            int((dense & after).sum()) - int((dense & recon).sum()))


class TestOrPattern:
    @given(binary_arrays(min_rows=1, min_cols=1), st.data())
    def test_against_numpy(self, dense, data):
        n, m = dense.shape
        row_mask = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
        col_mask = data.draw(arrays(np.uint8, m, elements=st.integers(0, 1)))
        recon = BinaryMatrix.from_dense(dense)
        or_pattern(recon, BinaryVector.from_dense(row_mask),
                   BinaryVector.from_dense(col_mask))
        assert np.array_equal(recon.to_dense(),
                              dense | np.outer(row_mask, col_mask))
        assert recon == BinaryMatrix.from_dense(recon.to_dense())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not fit"):
            or_pattern(BinaryMatrix.zeros(4, 4), ones_vector(4),
                       ones_vector(5))


def view_orders(view):
    """The view's row and column orders, read one rank at a time."""
    return ([view.row_at(r) for r in range(len(view.row_totals))],
            [view.col_at(r) for r in range(len(view.col_totals))])


def line_totals():
    """Line sums with heavy ties and zeros, including lengths 1 and 2,
    all-equal lines and sums far above the line count."""
    lengths = st.integers(1, 40)
    tied = lengths.flatmap(lambda n: arrays(
        np.int64, n, elements=st.integers(0, 3)))
    equal = st.tuples(lengths, st.integers(0, 5)).map(
        lambda nv: np.full(nv[0], nv[1], dtype=np.int64))
    wide = lengths.flatmap(lambda n: arrays(
        np.int64, n, elements=st.integers(0, 10**9)))
    return st.one_of(tied, equal, wide)


class TestUtlRearrange:
    @given(line_totals(), line_totals())
    @settings(max_examples=300)
    def test_selection_matches_a_stable_sort(self, rows, cols):
        # the spec: the stable argsort by descending row sums and by
        # ascending column sums, read at every rank
        view = UtlView.from_totals(rows, cols)
        assert view_orders(view) == (
            np.argsort(-rows, kind="stable").tolist(),
            np.argsort(cols, kind="stable").tolist())
        assert (view.n_active, view.m_active) == (int((rows > 0).sum()),
                                                  int((cols > 0).sum()))

    def test_hand_example(self):
        view = utl_rearrange(BinaryMatrix.from_dense([[0, 1], [1, 1]]))
        assert view_orders(view) == ([1, 0], [0, 1])
        assert (view.n_active, view.m_active) == (2, 2)

    def test_already_arranged_is_identity(self):
        view = utl_rearrange(BinaryMatrix.from_dense([[1, 1], [0, 1]]))
        assert view_orders(view) == ([0, 1], [0, 1])

    def test_zero_lines_excluded_from_active(self):
        mat = BinaryMatrix.from_dense([[0, 1, 0], [0, 0, 0], [0, 1, 1]])
        view = utl_rearrange(mat)
        rows, cols = view_orders(view)
        assert view.n_active == 2 and view.m_active == 2
        assert rows[-1] == 1       # zero row last
        assert cols[0] == 0        # zero column first
        assert 0 not in cols[len(cols) - view.m_active:]

    def test_all_zero(self):
        view = utl_rearrange(BinaryMatrix.zeros(3, 4))
        assert view.n_active == 0 and view.m_active == 0
        assert sorted(view_orders(view)[0]) == [0, 1, 2]

    def test_stable_ties(self):
        # equal sums everywhere: orderings must stay in original order
        view = utl_rearrange(ones(4, 5))
        assert view_orders(view) == ([0, 1, 2, 3], [0, 1, 2, 3, 4])

    @given(binary_arrays(9, 9))
    def test_view_properties(self, dense):
        mat = BinaryMatrix.from_dense(dense)
        view = utl_rearrange(mat)
        row_order, col_order = view_orders(view)
        permuted = dense[np.ix_(row_order, col_order)]
        active = permuted[:view.n_active,
                          dense.shape[1] - view.m_active:]
        row_totals = active.sum(axis=1)
        col_totals = active.sum(axis=0)
        assert np.all(row_totals[:-1] >= row_totals[1:])
        assert np.all(col_totals[:-1] <= col_totals[1:])
        # inverse permutations recover the original exactly
        inv_rows = np.argsort(row_order)
        inv_cols = np.argsort(col_order)
        assert np.array_equal(permuted[np.ix_(inv_rows, inv_cols)], dense)

    @given(binary_arrays(9, 12), st.data())
    def test_cleared_matches_a_fresh_view(self, dense, data):
        n, m = dense.shape
        row_mask = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
        col_mask = data.draw(arrays(np.uint8, m, elements=st.integers(0, 1)))
        mat = BinaryMatrix.from_dense(dense)
        view = utl_rearrange(mat).cleared(mat,
                                          BinaryVector.from_dense(row_mask),
                                          BinaryVector.from_dense(col_mask))
        left = dense & (1 - np.outer(row_mask, col_mask)).astype(np.uint8)
        fresh = utl_rearrange(BinaryMatrix.from_dense(left))
        assert view.row_totals.tolist() == left.sum(axis=1).tolist()
        assert view.col_totals.tolist() == left.sum(axis=0).tolist()
        assert view_orders(view) == view_orders(fresh)
        assert (view.n_active, view.m_active) == (fresh.n_active,
                                                  fresh.m_active)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        dense = (rng.random((8, 8)) < 0.3).astype(np.uint8)
        mat = BinaryMatrix.from_dense(dense)
        first, second = utl_rearrange(mat), utl_rearrange(mat)
        assert view_orders(first) == view_orders(second)


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
