"""Kernel tests: packed storage, Boolean products, orderings, cost."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mebf import boolmat
from mebf.boolmat import (
    BinaryMatrix,
    BinaryVector,
    RowGroups,
    UtlView,
    bool_product,
    col_dot_counts,
    complement,
    elementwise,
    elementwise_count,
    rank1_cost,
    rank1_product,
    row_dot_counts,
    utl_rearrange,
)
from mebf.simulate import SimulationSpec, simulate
from reference import (
    block_bytes,
    cost_gamma,
    identity,
    naive_bool_product,
    ones,
    ones_vector,
    second_peak,
    union_dense,
    zeros_vector,
)


def binary_arrays(max_rows=8, max_cols=12, min_rows=0, min_cols=0):
    shapes = st.tuples(st.integers(min_rows, max_rows),
                       st.integers(min_cols, max_cols))
    return shapes.flatmap(
        lambda s: arrays(np.uint8, s, elements=st.integers(0, 1)))


def bits(n):
    """All {0,1} vectors of length n."""
    return itertools.product((0, 1), repeat=n)


# the rows of an empty pattern
NO_ROWS = np.array([], dtype=np.intp)


@st.composite
def row_patterns(draw):
    """(x, recon, rows, col_mask) as numpy arrays: a width around the 8-bit
    byte and the 64-bit word, and rows that are none, one, every row or a
    random set, ascending as the loop finds them."""
    m = draw(st.sampled_from((1, 7, 8, 9, 63, 64, 65)))
    n = draw(st.integers(1, 12))
    x, recon = (draw(arrays(np.uint8, (n, m), elements=st.integers(0, 1)))
                for _ in range(2))
    col_mask = draw(arrays(np.uint8, m, elements=st.integers(0, 1)))
    rows = draw(st.one_of(
        st.just(NO_ROWS),
        st.integers(0, n - 1).map(lambda i: np.array([i])),
        st.just(np.arange(n)),
        arrays(np.bool_, n).map(np.flatnonzero)))
    return x, recon, rows, col_mask


def dense_pattern(rows, col_mask, n):
    """The pattern (rows, col_mask) as a dense n-row array."""
    out = np.zeros((n, len(col_mask)), np.uint8)
    out[rows] = col_mask
    return out


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

    @given(binary_arrays(max_cols=70))
    def test_bool_input_packs_like_zero_one_input(self, dense):
        # a bool array can hold only 0 and 1, so it is packed unchecked
        as_bool = dense.astype(bool)
        assert (BinaryMatrix.from_dense(as_bool)._packed.tobytes()
                == BinaryMatrix.from_dense(dense)._packed.tobytes())
        vec = BinaryVector.from_dense(as_bool.ravel())
        assert vec == BinaryVector.from_dense(dense.ravel())
        assert vec.length == dense.size

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

    @pytest.mark.parametrize("n_cols", [1, 5, 8, 9, 64, 65])
    def test_col_takes_the_indices_row_takes(self, n_cols):
        # a negative j counts from the end, as row(i) does; a j past either
        # end raises, and never reads the padding bits of the last byte
        rng = np.random.default_rng(n_cols)
        dense = (rng.random((3, n_cols)) < 0.5).astype(np.uint8)
        dense[:, -1] = 1
        mat = BinaryMatrix.from_dense(dense)
        last_bit = 8 * -(-n_cols // 8) - 1
        for j in (-n_cols, -1, n_cols - 1, n_cols, last_bit):
            if -n_cols <= j < n_cols:
                assert np.array_equal(mat.col(j).to_dense(), dense[:, j])
            else:
                with pytest.raises(IndexError, match=f"column {j} outside"):
                    mat.col(j)

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
        with pytest.raises(ValueError, match="row length mismatch"):
            BinaryMatrix.from_rows(vecs, 4)
        with pytest.raises(ValueError, match="column length mismatch"):
            BinaryMatrix.from_columns(vecs, 2)

    def test_equality(self):
        mat = BinaryMatrix.from_dense([[1, 0], [1, 1]])
        assert mat == BinaryMatrix.from_dense([[1, 0], [1, 1]])
        assert mat != BinaryMatrix.zeros(2, 2)

    @pytest.mark.parametrize("value", [
        BinaryVector.from_dense([1, 0, 1]),
        BinaryMatrix.from_dense([[1, 0], [1, 1]]),
    ])
    def test_equality_with_another_type_defers_to_it(self, value):
        # __eq__ returns NotImplemented, so Python asks the other operand
        # and, when that declines too, falls back to identity
        class Decides:
            def __eq__(self, other):
                return "asked"

        assert (value == Decides()) == "asked"
        for other in (None, 3, "101", [1, 0, 1]):
            assert (value == other) is False
            assert (value != other) is True

    def test_repr_names_the_shape_and_ones(self):
        assert repr(BinaryVector.from_dense([1, 0, 1, 1])) == \
            "BinaryVector(length=4, ones=3)"
        assert repr(BinaryMatrix.from_dense([[1, 0], [1, 1], [0, 0]])) == \
            "BinaryMatrix(shape=3x2, ones=3)"

    def test_complement_keeps_padding_clean(self):
        mat = BinaryMatrix.from_dense([[1, 0, 1, 1, 0, 1, 0, 1, 1]])
        flipped = complement(mat)
        assert flipped.count() == 9 - mat.count()
        assert complement(flipped) == mat
        assert complement(BinaryMatrix.zeros(2, 9)).count() == 18

    # widths with a padding byte and without one, and empty axes
    @pytest.mark.parametrize("n_cols", [0, 1, 8, 9, 64, 65, 129])
    def test_complement_leaves_its_input_and_padding(self, n_cols):
        rng = np.random.default_rng(n_cols)
        for n_rows in (5, 0):
            dense = (rng.random((n_rows, n_cols)) < 0.5).astype(np.uint8)
            mat = BinaryMatrix.from_dense(dense)
            before = mat._packed.tobytes()
            flipped = complement(mat)
            assert mat._packed.tobytes() == before
            assert not np.shares_memory(flipped._packed, mat._packed)
            assert np.array_equal(flipped.to_dense(), 1 - dense)
            # padding bits stay zero: repacking the dense bits gives the
            # same words
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

    def test_errors(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            elementwise("xor", BinaryMatrix.zeros(2, 2),
                        BinaryMatrix.zeros(2, 3))
        for op in ("nand", "or"):
            with pytest.raises(ValueError, match="unknown elementwise op"):
                elementwise(op, BinaryMatrix.zeros(2, 2),
                            BinaryMatrix.zeros(2, 2))


class TestElementwiseCount:
    """elementwise_count against numpy: widths around the 8-bit byte and
    the 64-bit word, row counts either side of a multiple of 8 (whole
    words at one byte per row), and either side of its block of packed
    rows."""

    @pytest.mark.parametrize("op", ["and", "xor"])
    @pytest.mark.parametrize("n_cols", [1, 7, 8, 9, 63, 64, 65])
    @pytest.mark.parametrize("n_rows", [
        0, 1, 247, 248, 249, boolmat._BLOCK_ROWS - 1, boolmat._BLOCK_ROWS,
        boolmat._BLOCK_ROWS + 1])
    def test_against_numpy(self, op, n_cols, n_rows):
        rng = np.random.default_rng(n_rows * 100 + n_cols)
        a, b = (rng.random((n_rows, n_cols)) < 0.5 for _ in range(2))
        expected = (a & b) if op == "and" else (a ^ b)
        a_mat, b_mat = BinaryMatrix.from_dense(a), BinaryMatrix.from_dense(b)
        assert elementwise_count(op, a_mat, b_mat) == int(expected.sum())

    def test_errors(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            elementwise_count("and", BinaryMatrix.zeros(2, 2),
                              BinaryMatrix.zeros(3, 2))
        with pytest.raises(ValueError, match="unknown elementwise op"):
            elementwise_count("or", BinaryMatrix.zeros(2, 2),
                              BinaryMatrix.zeros(2, 2))


class TestPopcount:
    """Every count of ones against ``np.unpackbits``: whole uint64 words
    plus a tail of 0 to 7 bytes."""

    @pytest.mark.parametrize("n_bytes", range(18))
    def test_arrays_of_every_length(self, n_bytes):
        rng = np.random.default_rng(n_bytes)
        packed = rng.integers(0, 256, n_bytes, dtype=np.uint8)
        vector = BinaryVector(8 * n_bytes, packed)
        assert vector.count() == int(np.unpackbits(packed).sum())
        matrix = BinaryMatrix(1, 8 * n_bytes, packed[None])
        assert matrix.count() == vector.count()

    @pytest.mark.parametrize("width", [1, 63, 125, 500])
    def test_gathered_hits_of_every_residue(self, width):
        # over 1-9 rows an odd width takes every residue of the byte count
        # mod 8; 500 bytes, a row at m = 4000, takes 4 and 0
        rng = np.random.default_rng(width)
        x = BinaryMatrix.from_dense(rng.random((12, 8 * width)) < 0.5)
        cols = BinaryVector.from_dense(rng.random(8 * width) < 0.5)
        for n_rows in range(1, 10):
            rows = np.sort(rng.choice(12, n_rows, replace=False))
            hit = x._packed[rows] & cols._packed
            ones = int(np.unpackbits(hit).sum())
            assert BinaryMatrix(n_rows, 8 * width, hit).count() == ones
            assert rank1_cost(rows, cols, x) == n_rows * int(
                np.unpackbits(cols._packed).sum()) - 2 * ones


class TestRank1Product:
    def test_all_ones(self):
        out = rank1_product(np.arange(3), ones_vector(4), 3)
        assert out == ones(3, 4)

    def test_zero_rows(self):
        out = rank1_product(NO_ROWS, ones_vector(4), 3)
        assert out.count() == 0

    def test_hand_example(self):
        out = rank1_product(np.array([0, 1]), BinaryVector.from_dense([0, 1]),
                            3)
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
        assert np.array_equal(col_dot_counts(mat, np.flatnonzero(over_rows)),
                              dense.T @ over_rows)
        assert np.array_equal(
            row_dot_counts(mat, BinaryVector.from_dense(over_cols)),
            dense @ over_cols)
        with pytest.raises(ValueError, match="row index outside 9 rows"):
            col_dot_counts(mat, np.array([0, 9]))
        with pytest.raises(ValueError, match="length mismatch: 9 vs 13 cols"):
            row_dot_counts(mat, BinaryVector.from_dense(over_rows))


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
        every_row = col_dot_counts(mat, np.arange(n_rows))
        assert np.array_equal(every_row, dense.sum(axis=0))
        assert every_row[0] == n_rows
        assert np.array_equal(col_dot_counts(mat, np.flatnonzero(row_mask)),
                              dense.T.astype(np.int64) @ row_mask)
        assert np.array_equal(
            row_dot_counts(mat, BinaryVector.from_dense(over_cols)),
            dense.astype(np.int64) @ over_cols)
        assert gain_on_empty(np.flatnonzero(row_mask),
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
            assert col_dot_counts(mat, np.arange(n_rows)).tolist() \
                == [n_rows] * 129
            assert mat.row_sums().tolist() == [129] * n_rows

    def test_empty_axes(self):
        assert BinaryMatrix.zeros(300, 0).row_sums().shape == (300,)
        assert BinaryMatrix.zeros(300, 0).col_sums().shape == (0,)
        assert col_dot_counts(BinaryMatrix.zeros(300, 0),
                              np.arange(300)).shape == (0,)
        assert col_dot_counts(BinaryMatrix.zeros(0, 70),
                              NO_ROWS).tolist() == [0] * 70
        blocks = list(BinaryMatrix.zeros(300, 0).row_blocks())
        assert [(start, block.shape) for start, block in blocks] == [
            (0, (255, 0)), (255, (45, 0))]
        assert list(BinaryMatrix.zeros(0, 70).row_blocks()) == []
        assert BinaryMatrix.zeros(0, 70).col_sums().tolist() == [0] * 70
        assert BinaryMatrix.zeros(0, 70).count() == 0


class TestBlockRule:
    """col_sums, col_dot_counts and row_blocks against numpy across the
    edges of their unpacked blocks.

    A block holds at most 255 rows, and unpacks to at most the packed bytes
    of the matrix it reads, or 64 KiB if that is more, and to 512 KiB at
    most: 255 rows at m = 100, n/8 rows of an n x 1000 or n x 4000 matrix
    past 64 KiB packed, 16 rows of a 4000-column matrix below it, and 131
    rows of one past 512 KiB packed.  The cases sit at a size whose blocks
    come out even, or one row either side of it.
    """

    @staticmethod
    def block_rows(n_rows, n_cols):
        packed = n_rows * ((n_cols + 7) // 8)
        return min(255, min(max(packed, 1 << 16), 1 << 19) // n_cols)

    @pytest.mark.parametrize("n_cols,n_rows", [
        (100, 254), (100, 255), (100, 256), (1000, 999), (1000, 1000),
        (1000, 1001), (4000, 15), (4000, 16), (4000, 17), (4000, 1001),
        (4000, 1048), (4000, 1049), (4000, 1100)])
    def test_against_numpy(self, n_cols, n_rows):
        rng = np.random.default_rng(n_rows * 10000 + n_cols)
        dense = (rng.integers(0, 10, (n_rows, n_cols), dtype=np.uint8)
                 < 3).astype(np.uint8)
        dense[:, 0] = 1
        mat = BinaryMatrix.from_dense(dense)
        half = np.flatnonzero(rng.random(n_rows) < 0.5)
        assert np.array_equal(mat.col_sums(), dense.sum(axis=0))
        assert np.array_equal(col_dot_counts(mat, np.arange(n_rows)),
                              dense.sum(axis=0))
        assert np.array_equal(col_dot_counts(mat, half),
                              dense[half].sum(axis=0))
        starts, blocks = zip(*mat.row_blocks())
        assert starts == tuple(range(0, n_rows,
                                     self.block_rows(n_rows, n_cols)))
        assert max(block.nbytes for block in blocks) <= min(max(
            mat._packed.nbytes, 1 << 16), 1 << 19)
        assert np.array_equal(np.vstack(blocks), dense)


class TestColTallyPeakMemory:
    """A full column tally holds one unpacked block at a time.

    A block holds at most 255 rows and unpacks to at most the packed bytes
    of the matrix it reads, or 64 KiB if that is more: 125 rows of m bytes,
    1.0x the packed matrix, at m = 1000 and 250 rows at m = 2000.  The
    int64 totals and the uint8 tally of a block add little.  col_dot_counts
    also holds the rows it gathers, and unpacks blocks no larger than them.
    The bounds are the measured peaks, as multiples of the packed matrix;
    lower them as the tally allocates less, never raise them.
    """

    @pytest.mark.parametrize("n,bound", [
        # measured 1.109x, and 0.630x beside col_dot_counts' rows (2.149x
        # and 2.150x with blocks of 255 rows, 4.192x and 4.112x while the
        # block before was still held)
        (1000, 1.11),
        # measured 1.043x, and 0.544x beside col_dot_counts' rows (1.063x
        # for both with blocks of 255 rows, 2.084x)
        (2000, 1.05),
    ])
    def test_one_block_plus_the_totals(self, n, bound):
        rng = np.random.default_rng(n)
        mat = BinaryMatrix.from_dense(rng.random((n, n)) < 0.2)
        rows = np.arange(0, n, 2)
        gathered = mat._packed[rows].nbytes
        packed = mat._packed.nbytes
        assert second_peak(mat.col_sums) <= bound * packed
        assert second_peak(lambda: col_dot_counts(mat, rows)) <= (
            bound * packed + gathered)


class TestOnePassRowSumsPeakMemory:
    """``row_sums`` counts every packed byte in one pass, so it holds a
    uint8 count of each, 1x the packed matrix, beside its int64 totals and
    the uint16 tally of one chunk.  It runs once per factorization, in
    ``utl_rearrange`` before the view's copy of x exists, so the copy and
    the count are never held at once and the arrangement peaks where the
    count does.  Both stay below every factorization's peak (1.47x and
    1.87x at these sizes).  The bounds are the measured peaks, as
    multiples of the packed matrix; lower them as the sums allocate less,
    never raise them.
    """

    @pytest.mark.parametrize("spec,bound", [
        # perfbench's factorize_4k instance: measured 1.0362x for both
        # (0.2756x and 1.0324x while row_sums ANDed 256 KiB parts)
        (SimulationSpec(n=4000, m=4000, k=5, p0=0.2, p=0.01, seed=0), 1.037),
        # cli_coo_tall's shape: measured 1.2252x for both (0.5872x and
        # 1.1315x in parts)
        (SimulationSpec(n=16000, m=500, k=12, p0=0.06, p=0.003, seed=0),
         1.226),
    ], ids=["4000x4000", "16000x500"])
    def test_count_then_copy(self, spec, bound):
        x, _, _ = simulate(spec)
        packed = x._packed.nbytes
        assert second_peak(x.row_sums) <= bound * packed
        assert second_peak(lambda: utl_rearrange(x)) <= bound * packed


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


GATHER_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 500]


def anchor_with_bytes(n_cols, touched, data):
    """A dense anchor whose non-zero packed bytes are exactly ``touched``."""
    anchor = np.zeros(n_cols, np.uint8)
    for byte in touched:
        lo, hi = 8 * byte, min(8 * byte + 8, n_cols)
        bits = data.draw(arrays(np.uint8, hi - lo, elements=st.integers(0, 1)))
        bits[data.draw(st.integers(0, hi - lo - 1))] = 1
        anchor[lo:hi] = bits
    return anchor


def assert_row_dots(dense, anchor):
    """row_dot_counts equals numpy's and leaves x as it was."""
    mat = BinaryMatrix.from_dense(dense)
    before = mat._packed.tobytes()
    counts = row_dot_counts(mat, BinaryVector.from_dense(anchor))
    assert mat._packed.tobytes() == before
    assert not np.shares_memory(counts, mat._packed)
    assert np.array_equal(counts, dense.astype(np.int64) @ anchor)


class TestRowDotCountsGather:
    """row_dot_counts around the cutoff of its byte gather.

    An anchor with at most a quarter of its packed bytes non-zero is
    tallied over those bytes only; a denser one over whole rows.  Anchors
    with floor(w/4) non-zero bytes of a w-byte width sit on the gather
    side, one byte more on the full side.
    """

    @given(st.data())
    @settings(max_examples=200)
    def test_against_numpy_at_the_cutoff(self, data):
        n_cols = data.draw(st.sampled_from(GATHER_WIDTHS))
        width = (n_cols + 7) // 8
        n_touched = min(max(width // 4 + data.draw(st.sampled_from(
            [-1, 0, 1])), 0), width)
        touched = data.draw(st.lists(st.integers(0, width - 1),
                                     min_size=n_touched, max_size=n_touched,
                                     unique=True))
        anchor = anchor_with_bytes(n_cols, touched, data)
        n_rows = data.draw(st.integers(0, 12))
        dense = data.draw(st.one_of(
            arrays(np.uint8, (n_rows, n_cols), elements=st.integers(0, 1)),
            st.just(np.ones((n_rows, n_cols), np.uint8))))
        assert_row_dots(dense, anchor)

    @pytest.mark.parametrize("n_cols", GATHER_WIDTHS)
    @pytest.mark.parametrize("anchor_ones", ["none", "last", "all"])
    def test_all_one_rows_and_no_rows(self, n_cols, anchor_ones):
        anchor = np.zeros(n_cols, np.uint8)
        anchor[{"none": slice(0), "last": slice(-1, None),
                "all": slice(None)}[anchor_ones]] = 1
        assert_row_dots(np.ones((5, n_cols), np.uint8), anchor)
        assert_row_dots(np.zeros((0, n_cols), np.uint8), anchor)

    @pytest.mark.parametrize("anchor_bytes", [1, 2, 7, 8])
    def test_both_paths_leave_x_unchanged(self, anchor_bytes):
        # 64 columns: 1 and 2 non-zero bytes gather, 7 and 8 AND whole rows;
        # the anchor's zeros meet ones of x, so any write into x shows
        rng = np.random.default_rng(anchor_bytes)
        dense = (rng.random((40, 64)) < 0.5).astype(np.uint8)
        anchor = np.zeros(64, np.uint8)
        anchor[0:8 * anchor_bytes:2] = 1
        assert_row_dots(dense, anchor)


def gain_on_empty(rows, col_mask, x):
    """RowGroups.gain against an empty union: the pattern covers exactly its
    overlap with x, and the cost moves by |pattern| - 2 * overlap."""
    return RowGroups(*x.shape).gain(rows, col_mask, x)


def union_of(recon):
    """A RowGroups union equal to the dense recon, one row at a time."""
    groups = RowGroups(*recon.shape)
    for i, row in enumerate(recon):
        groups.add(np.array([i]), BinaryVector.from_dense(row))
    return groups


def numpy_gain(x, recon, p):
    """(change of |x xor recon|, ones of x newly covered) on ORing p into
    recon, from dense arrays."""
    after = recon | p
    return (int((x ^ after).sum()) - int((x ^ recon).sum()),
            int((x & after).sum()) - int((x & recon).sum()))


class TestRank1Gain:
    """Pricing a rank-1 pattern against the union before it:
    ``RowGroups.gain``."""

    def test_hand_example(self):
        x = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
        rows = np.array([0, 2])
        cols = BinaryVector.from_dense([0, 1, 1])
        assert gain_on_empty(rows, cols, x) == (4 - 2 * 3, 3)
        # entries already in the union are not flipped again: only (0, 2)
        # and (2, 2) are added, one of which is a one of x
        union = union_of(np.array([[1, 1, 0], [0, 0, 0], [0, 1, 0]]))
        assert union.gain(rows, cols, x) == (2 - 2 * 1, 1)
        assert union_of(np.ones((3, 3), np.uint8)).gain(rows, cols,
                                                        x) == (0, 0)

    def test_empty_pattern(self):
        x = ones(4, 5)
        assert gain_on_empty(NO_ROWS, ones_vector(5), x) == (0, 0)
        assert gain_on_empty(np.arange(4), zeros_vector(5), x) == (0, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not fit"):
            gain_on_empty(np.arange(4), ones_vector(3),
                          BinaryMatrix.zeros(4, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            RowGroups(4, 4).gain(np.arange(4), ones_vector(4),
                                 BinaryMatrix.zeros(4, 5))

    @given(row_patterns())
    def test_against_numpy(self, instance):
        dense, recon, rows, col_mask = instance
        cols = BinaryVector.from_dense(col_mask)
        x = BinaryMatrix.from_dense(dense)
        pattern = dense_pattern(rows, col_mask, len(dense))
        overlap = int((dense & pattern).sum())
        assert gain_on_empty(rows, cols, x) == (
            int(pattern.sum()) - 2 * overlap, overlap)
        assert union_of(recon).gain(rows, cols, x) == numpy_gain(
            dense, recon, pattern)

    @given(row_patterns(), st.data())
    def test_input_and_residual_price_alike(self, instance, data):
        # part of the pattern already lies in the union, so the price reads
        # x off the union only, where x and the residual agree
        dense, recon, rows, col_mask = instance
        pattern = dense_pattern(rows, col_mask, len(dense))
        in_union = data.draw(arrays(np.bool_, len(dense)))
        recon = recon | pattern * in_union[:, None]
        union = union_of(recon)
        cols = BinaryVector.from_dense(col_mask)
        x = BinaryMatrix.from_dense(dense)
        residual = BinaryMatrix.from_dense(dense & (1 - recon))
        assert union.gain(rows, cols, x) == union.gain(
            rows, cols, residual) == numpy_gain(dense, recon, pattern)


class TestOrPattern:
    """ORing a pattern into a union: ``RowGroups.add``, read back whole
    with ``union_dense``."""

    @given(row_patterns())
    def test_against_numpy(self, instance):
        dense, _, rows, col_mask = instance
        union = union_of(dense)
        assert np.array_equal(union_dense(union), dense)
        union.add(rows, BinaryVector.from_dense(col_mask))
        assert np.array_equal(union_dense(union), dense | dense_pattern(
            rows, col_mask, len(dense)))
        # the table keeps every padding bit at zero
        assert np.array_equal(union.table, np.packbits(
            np.unpackbits(union.table, axis=1, count=dense.shape[1]),
            axis=1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not fit"):
            RowGroups(4, 4).add(np.arange(4), ones_vector(5))


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
        # ascending column sums, read at every rank; the selection reads
        # the totals only
        view = UtlView(BinaryMatrix.zeros(len(rows), len(cols)), rows, cols)
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

    @given(row_patterns())
    def test_cleared_matches_a_fresh_view(self, instance):
        dense, _, rows, col_mask = instance
        mat = BinaryMatrix.from_dense(dense)
        view = utl_rearrange(mat)
        residual, totals = view.x, (view.row_totals, view.col_totals)
        outside = np.setdiff1d(np.arange(len(dense)), rows)
        kept = residual._packed[outside].tobytes()
        view.clear(rows, BinaryVector.from_dense(col_mask))
        left = dense & (1 - dense_pattern(rows, col_mask, len(dense)))
        fresh = utl_rearrange(BinaryMatrix.from_dense(left))
        # the view's own residual and totals are written in place, the
        # residual on the pattern's rows only; x is never written
        assert np.array_equal(mat.to_dense(), dense)
        assert view.x is residual
        assert view.x == BinaryMatrix.from_dense(left)
        assert view.x._packed[outside].tobytes() == kept
        assert view.row_totals is totals[0] and view.col_totals is totals[1]
        assert view.row_totals.tolist() == left.sum(axis=1).tolist()
        assert view.col_totals.tolist() == left.sum(axis=0).tolist()
        assert view_orders(view) == view_orders(fresh)
        assert (view.n_active, view.m_active) == (fresh.n_active,
                                                  fresh.m_active)

    @pytest.mark.parametrize("n_rows, n_cols", [(3, 9), (4, 10)])
    def test_clear_rejects_a_pattern_that_does_not_fit(self, n_rows, n_cols):
        view = utl_rearrange(ones(3, 10))
        before = (view.x, view.row_totals.tolist(), view.col_totals.tolist())
        with pytest.raises(ValueError, match="does not fit"):
            view.clear(np.arange(n_rows), ones_vector(n_cols))
        # nothing changed before the raise
        assert view.x is before[0] and view.x == ones(3, 10)
        assert view.row_totals.tolist() == before[1] == [10] * 3
        assert view.col_totals.tolist() == before[2] == [3] * 10

    @given(binary_arrays())
    def test_view_owns_its_residual(self, dense):
        # clear writes view.x, so the view must not share x's words
        mat = BinaryMatrix.from_dense(dense)
        view = utl_rearrange(mat)
        assert view.x == mat
        assert not np.shares_memory(view.x._packed, mat._packed)

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
        # rank1_cost is the change from the empty factorization, whose cost
        # is |x|
        rng = np.random.default_rng(29)
        for _ in range(50):
            n, m = rng.integers(1, 10, size=2)
            row_mask = (rng.random(n) < 0.5).astype(np.uint8)
            col_mask = (rng.random(m) < 0.5).astype(np.uint8)
            x = BinaryMatrix.from_dense(rng.random((n, m)) < 0.5)
            a = BinaryMatrix.from_dense(row_mask.reshape(-1, 1))
            b = BinaryMatrix.from_dense(col_mask.reshape(1, -1))
            assert rank1_cost(np.flatnonzero(row_mask),
                              BinaryVector.from_dense(col_mask),
                              x) == cost_gamma(a, b, x) - x.count()

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65])
    def test_rank1_cost_is_the_gain_on_an_empty_recon(self, width):
        rng = np.random.default_rng(width)
        n = 11
        x = BinaryMatrix.from_dense(rng.random((n, width)) < 0.5)
        row_sets = [NO_ROWS, np.arange(n),
                    np.flatnonzero(rng.random(n) < 0.5)]
        col_masks = [zeros_vector(width), ones_vector(width),
                     BinaryVector.from_dense(rng.random(width) < 0.5)]
        for rows, cols in itertools.product(row_sets, col_masks):
            assert rank1_cost(rows, cols, x) == gain_on_empty(rows, cols,
                                                              x)[0]


def part_sizes(rows, width):
    """``_BLOCK_BYTES`` values that split rows of this packed width at
    their edges: one row per part, 64 bytes, and the rows' packed bytes
    less one row, exactly, and plus one row."""
    whole = len(rows) * width
    return [1, 64] + [max(1, whole + d * width) for d in (-1, 0, 1)]


class TestParts:
    """The kernels that read many packed rows, against numpy when the
    rows span several parts (``_parts``): ``row_dot_counts``' dense path
    steps every row, ``col_dot_counts``, ``rank1_cost``, ``RowGroups.gain``
    and ``UtlView.clear`` a pattern's rows.  ``row_sums`` counts in one
    pass, and is checked here at every part size all the same."""

    @given(row_patterns(), st.integers(0, 4))
    @settings(max_examples=300)
    def test_against_numpy(self, instance, size):
        x, recon, rows, col_mask = instance
        n, m = x.shape
        p = dense_pattern(rows, col_mask, n)
        cols = BinaryVector.from_dense(col_mask)
        x_mat = BinaryMatrix.from_dense(x)
        with block_bytes(part_sizes(rows, (m + 7) // 8)[size]):
            assert np.array_equal(x_mat.row_sums(), x.sum(axis=1))
            for anchor in (col_mask, np.ones(m, np.uint8)):
                assert np.array_equal(row_dot_counts(
                    x_mat, BinaryVector.from_dense(anchor)),
                    x.astype(np.int64) @ anchor)
            assert np.array_equal(col_dot_counts(x_mat, rows),
                                  x[rows].sum(axis=0))
            assert rank1_cost(rows, cols, x_mat) == int(p.sum()) - 2 * int(
                (p & x).sum())
            assert union_of(recon).gain(rows, cols, x_mat) == numpy_gain(
                x, recon, p)
            view = utl_rearrange(x_mat)
            view.clear(rows, cols)
        residual = x & (1 - p)
        assert view.x == BinaryMatrix.from_dense(residual)
        assert view.row_totals.tolist() == residual.sum(axis=1).tolist()
        assert view.col_totals.tolist() == residual.sum(axis=0).tolist()
        assert x_mat == BinaryMatrix.from_dense(x)

    def test_clear_holds_one_part_at_a_time(self):
        # a pattern on all 4000 rows of 500 bytes spans 8 parts, so 7 more
        # than one; measured 3.148 parts (the part, its pattern and that
        # pattern's complement, or the part, the part cleared and a tally
        # block), as in a clear of one part; 4.149 while the part cleared
        # was held through the tallies
        rng = np.random.default_rng(0)
        x = BinaryMatrix(4000, 4000, rng.integers(0, 256, (4000, 500),
                                                  dtype=np.uint8))
        view, rows = utl_rearrange(x), np.arange(4000)
        cols = BinaryVector.from_dense(rng.random(4000) < 0.5)
        part = boolmat._BLOCK_BYTES // 500 * 500
        assert len(boolmat._parts(rows, x)) == 8
        assert second_peak(lambda: view.clear(rows, cols)) <= 3.15 * part

    def test_parts_are_consecutive_and_fit(self):
        rows = np.arange(3, 40, 2)  # 19 rows
        x = BinaryMatrix.zeros(40, 65)  # 9 bytes a row
        with block_bytes(9 * 19):
            assert boolmat._parts(rows, x) == (rows,)
        for size, step in ((9 * 19 - 1, 18), (64, 7), (9, 1), (1, 1)):
            with block_bytes(size):
                parts = boolmat._parts(rows, x)
            assert [len(part) for part in parts[:-1]] == [step] * (
                len(parts) - 1)
            assert 1 <= len(parts[-1]) <= step
            assert np.array_equal(np.concatenate(parts), rows)


class TestRowIndexKernels:
    """The kernels that take a pattern as (rows, col_mask), against numpy;
    ``RowGroups`` and ``UtlView.clear`` take the same instances in their
    own classes."""

    @given(row_patterns())
    def test_against_numpy(self, instance):
        x, recon, rows, col_mask = instance
        n, m = x.shape
        p = dense_pattern(rows, col_mask, n)
        cols = BinaryVector.from_dense(col_mask)
        x_mat = BinaryMatrix.from_dense(x)
        assert rank1_cost(rows, cols, x_mat) == int(p.sum()) - 2 * int(
            (p & x).sum())
        assert np.array_equal(col_dot_counts(x_mat, rows),
                              x[rows].sum(axis=0))
        assert rank1_product(rows, cols, n) == BinaryMatrix.from_dense(p)
        assert x_mat == BinaryMatrix.from_dense(x)

    @given(row_patterns(), st.sampled_from(
        ("below", "above", "unordered", "cols", "last part")))
    @example((np.eye(3, 4, dtype=np.uint8), None, np.array([0]),
              np.ones(4, np.uint8)), "unordered")
    @example((np.ones((12, 65), np.uint8), None, np.arange(12),
              np.ones(65, np.uint8)), "last part")
    def test_a_pattern_that_does_not_fit_changes_nothing(self, instance,
                                                         fault):
        x, _, rows, col_mask = instance
        n, m = x.shape
        # "last part": one row per part, so the one bad row, past the end,
        # is the last part alone
        with block_bytes((m + 7) // 8 if fault == "last part" else
                         boolmat._BLOCK_BYTES):
            self.assert_nothing_changes(x, rows, col_mask, fault)

    @staticmethod
    def assert_nothing_changes(x, rows, col_mask, fault):
        n, m = x.shape
        cols = BinaryVector.from_dense(col_mask)
        if fault == "below":
            rows = np.concatenate(([-1], rows))
        elif fault in ("above", "last part"):
            rows = np.concatenate((rows, [n]))
        elif fault == "unordered":
            # the first and last index alone would pass [0, -1]
            rows = np.concatenate((rows, [-1]))
        else:
            cols = BinaryVector.from_dense(np.append(col_mask, 1))
        x_mat = BinaryMatrix.from_dense(x)
        view = utl_rearrange(x_mat)
        residual = view.x
        groups = RowGroups(n, m)
        kernels = [lambda: rank1_cost(rows, cols, x_mat),
                   lambda: view.clear(rows, cols),
                   lambda: groups.gain(rows, cols, x_mat),
                   lambda: groups.add(rows, cols)]
        if fault != "cols":
            kernels += [lambda: col_dot_counts(x_mat, rows),
                        lambda: rank1_product(rows, cols, n)]
        for kernel in kernels:
            with pytest.raises(ValueError):
                kernel()
        assert x_mat == BinaryMatrix.from_dense(x)
        assert view.x is residual and view.x == x_mat
        assert view.row_totals.tolist() == x.sum(axis=1).tolist()
        assert view.col_totals.tolist() == x.sum(axis=0).tolist()
        assert groups.group.tolist() == [0] * n and len(groups.table) == 1

    @given(row_patterns())
    def test_nonzero_lists_the_ones(self, instance):
        x, _, rows, _ = instance
        mask = np.isin(np.arange(len(x)), rows)
        assert BinaryVector.from_dense(mask).nonzero().tolist() == \
            rows.tolist()
