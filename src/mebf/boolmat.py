"""Bit-packed binary matrices and the Boolean-algebra kernels built on them.

Entries are stored one per bit in row-major uint8 words, most significant
bit first (the ``np.packbits`` convention).  Padding bits past the last
column of each row are kept at zero, so whole-word AND/XOR/OR and popcounts
are valid without masking.  Popcounts use ``np.bitwise_count``; whole-array
totals read contiguous bytes as uint64 words when their count allows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinaryMatrix",
    "BinaryVector",
    "UtlView",
    "axis_sums",
    "bool_product",
    "col_dot_counts",
    "complement",
    "cost_gamma",
    "dot",
    "elementwise",
    "rank1_cost",
    "rank1_overlap",
    "rank1_product",
    "row_dot_counts",
    "utl_rearrange",
]

# Rows per unpacked block: bounds the dense temporaries of a full pass, and
# a uint8 column tally of one block cannot overflow.
_BLOCK_ROWS = 255

_ELEMENTWISE_UFUNCS = {
    "xor": np.bitwise_xor,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
}


def _packed_width(n_cols: int) -> int:
    return (n_cols + 7) // 8


def _popcount(words: np.ndarray) -> int:
    """Total number of set bits in an array of packed words."""
    flat = words.reshape(-1)
    if flat.flags.c_contiguous and flat.size % 8 == 0:
        flat = flat.view(np.uint64)
    return int(np.bitwise_count(flat).sum(dtype=np.int64))


def _pad_mask(n_cols: int) -> np.ndarray:
    """uint8 row mask: ones on real column bits, zeros on padding bits."""
    mask = np.full(_packed_width(n_cols), 0xFF, dtype=np.uint8)
    if n_cols % 8:
        mask[-1] = (0xFF << (8 - n_cols % 8)) & 0xFF
    return mask


def _dense_blocks(packed: np.ndarray, n_cols: int):
    """(first row, dense uint8 rows) for each block of _BLOCK_ROWS rows."""
    for start in range(0, len(packed), _BLOCK_ROWS):
        yield start, np.unpackbits(packed[start:start + _BLOCK_ROWS], axis=1,
                                   count=n_cols)


def _validate_binary(dense: np.ndarray) -> np.ndarray:
    if dense.size and not np.all((dense == 0) | (dense == 1)):
        raise ValueError("entries must be 0 or 1")
    return dense.astype(np.uint8)


class BinaryVector:
    """A {0,1} vector packed into uint8 words (MSB first, zero padding)."""

    __slots__ = ("length", "_packed")

    def __init__(self, length: int, packed: np.ndarray):
        self.length = length
        self._packed = packed

    @classmethod
    def from_dense(cls, values) -> BinaryVector:
        dense = _validate_binary(np.asarray(values).ravel())
        return cls(dense.size, np.packbits(dense))

    @classmethod
    def zeros(cls, length: int) -> BinaryVector:
        return cls(length, np.zeros(_packed_width(length), dtype=np.uint8))

    @classmethod
    def ones(cls, length: int) -> BinaryVector:
        return cls(length, _pad_mask(length))

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self._packed, count=self.length)

    def count(self) -> int:
        """Number of ones."""
        return _popcount(self._packed)

    def copy(self) -> BinaryVector:
        return BinaryVector(self.length, self._packed.copy())

    def __and__(self, other: BinaryVector) -> BinaryVector:
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}")
        return BinaryVector(self.length, self._packed & other._packed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryVector):
            return NotImplemented
        return self.length == other.length and np.array_equal(
            self._packed, other._packed)

    def __hash__(self):
        return hash((self.length, self._packed.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryVector(length={self.length}, ones={self.count()})"


class BinaryMatrix:
    """An n x m matrix over {0,1}, one bit per entry.

    Rows are packed independently, so row extraction and all row-wise word
    operations (AND/XOR/OR, popcount) run on the packed words directly.
    Column extraction materializes a :class:`BinaryVector`.
    """

    __slots__ = ("n_rows", "n_cols", "_packed")

    def __init__(self, n_rows: int, n_cols: int, packed: np.ndarray):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._packed = packed

    @classmethod
    def from_dense(cls, values) -> BinaryMatrix:
        dense = np.asarray(values)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={dense.ndim}")
        dense = _validate_binary(dense)
        return cls(dense.shape[0], dense.shape[1], np.packbits(dense, axis=1))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> BinaryMatrix:
        packed = np.zeros((n_rows, _packed_width(n_cols)), dtype=np.uint8)
        return cls(n_rows, n_cols, packed)

    @classmethod
    def ones(cls, n_rows: int, n_cols: int) -> BinaryMatrix:
        packed = np.tile(_pad_mask(n_cols), (n_rows, 1))
        return cls(n_rows, n_cols, packed)

    @classmethod
    def identity(cls, n: int) -> BinaryMatrix:
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_rows(cls, rows: list[BinaryVector], n_cols: int) -> BinaryMatrix:
        """Stack vectors of equal length as matrix rows."""
        if any(r.length != n_cols for r in rows):
            raise ValueError("row length mismatch")
        if not rows:
            return cls.zeros(0, n_cols)
        return cls(len(rows), n_cols, np.stack([r._packed for r in rows]))

    @classmethod
    def from_columns(cls, cols: list[BinaryVector],
                     n_rows: int) -> BinaryMatrix:
        """Stack vectors of equal length as matrix columns."""
        if any(c.length != n_rows for c in cols):
            raise ValueError("column length mismatch")
        if not cols:
            return cls.zeros(n_rows, 0)
        dense = np.stack([c.to_dense() for c in cols], axis=1)
        return cls(n_rows, len(cols), np.packbits(dense, axis=1))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def to_dense(self) -> np.ndarray:
        if self.n_cols == 0:
            return np.zeros((self.n_rows, 0), dtype=np.uint8)
        return np.unpackbits(self._packed, axis=1, count=self.n_cols)

    def count(self) -> int:
        """Total number of ones (the L1 norm)."""
        return _popcount(self._packed)

    def row_sums(self) -> np.ndarray:
        return np.bitwise_count(self._packed).sum(axis=1, dtype=np.int64)

    def col_sums(self) -> np.ndarray:
        """Ones per column, unpacking one block of rows at a time."""
        totals = np.zeros(self.n_cols, dtype=np.int64)
        for _, block in _dense_blocks(self._packed, self.n_cols):
            totals += block.sum(axis=0, dtype=np.uint8)
        return totals

    def row_blocks(self):
        """Yield (first row, dense uint8 rows) one block of rows at a time."""
        return _dense_blocks(self._packed, self.n_cols)

    def row(self, i: int) -> BinaryVector:
        return BinaryVector(self.n_cols, self._packed[i].copy())

    def col(self, j: int) -> BinaryVector:
        bits = (self._packed[:, j >> 3] >> (7 - (j & 7))) & 1
        return BinaryVector(self.n_rows, np.packbits(bits))

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """(row_indices, col_indices) of the ones, row-major order.

        Unpacks one block of rows at a time.
        """
        rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for start, block in _dense_blocks(self._packed, self.n_cols):
            block_rows, block_cols = np.nonzero(block)
            rows.append(block_rows + start)
            cols.append(block_cols)
        return np.concatenate(rows), np.concatenate(cols)

    def copy(self) -> BinaryMatrix:
        return BinaryMatrix(self.n_rows, self.n_cols, self._packed.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(
            self._packed, other._packed)

    def __hash__(self):
        return hash((self.shape, self._packed.tobytes()))

    def __repr__(self) -> str:
        return (f"BinaryMatrix(shape={self.n_rows}x{self.n_cols}, "
                f"ones={self.count()})")


@dataclass(frozen=True, eq=False)
class UtlView:
    """Row/column orderings that arrange a matrix upper-triangular-like.

    ``row_order`` lists active rows first, by non-increasing row sum;
    all-zero rows follow in original order.  ``col_order`` lists all-zero
    columns first in original order, then active columns by non-decreasing
    column sum.  Ties keep original relative order, so the view is a pure
    function of the matrix.
    """

    row_order: np.ndarray
    col_order: np.ndarray
    n_active: int
    m_active: int

    @property
    def active_rows(self) -> np.ndarray:
        """Active row indices in view order (densest first)."""
        return self.row_order[:self.n_active]

    @property
    def active_cols(self) -> np.ndarray:
        """Active column indices in view order (densest last)."""
        return self.col_order[len(self.col_order) - self.m_active:]


def utl_rearrange(x: BinaryMatrix) -> UtlView:
    """Stable orderings by descending row sums / ascending column sums."""
    row_totals = x.row_sums()
    col_totals = x.col_sums()
    return UtlView(
        row_order=np.argsort(-row_totals, kind="stable"),
        col_order=np.argsort(col_totals, kind="stable"),
        n_active=int((row_totals > 0).sum()),
        m_active=int((col_totals > 0).sum()),
    )


def _check_same_shape(a: BinaryMatrix, b: BinaryMatrix) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def bool_product(a_mat: BinaryMatrix, b_mat: BinaryMatrix) -> BinaryMatrix:
    """Boolean matrix product: entry (i, j) is OR over l of A[i,l] AND B[l,j].

    Accumulates one packed row of B per inner index into the rows of the
    result selected by the matching column of A.
    """
    if a_mat.n_cols != b_mat.n_rows:
        raise ValueError(
            f"incompatible shapes for product: {a_mat.shape} x {b_mat.shape}")
    out = np.zeros((a_mat.n_rows, _packed_width(b_mat.n_cols)),
                   dtype=np.uint8)
    for l in range(a_mat.n_cols):
        selected = ((a_mat._packed[:, l >> 3] >> (7 - (l & 7))) & 1) == 1
        out[selected] |= b_mat._packed[l]
    return BinaryMatrix(a_mat.n_rows, b_mat.n_cols, out)


def elementwise(op: str, a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Entrywise ``xor`` (symmetric difference), ``and``, or ``or``."""
    try:
        ufunc = _ELEMENTWISE_UFUNCS[op.lower()]
    except KeyError:
        raise ValueError(f"unknown elementwise op {op!r}") from None
    _check_same_shape(a, b)
    return BinaryMatrix(a.n_rows, a.n_cols, ufunc(a._packed, b._packed))


def complement(x: BinaryMatrix) -> BinaryMatrix:
    """Entrywise NOT, with padding bits reset to zero."""
    packed = ~x._packed & _pad_mask(x.n_cols)
    return BinaryMatrix(x.n_rows, x.n_cols, packed)


def rank1_product(row_mask: BinaryVector,
                  col_mask: BinaryVector) -> BinaryMatrix:
    """Outer product: entry (i, j) = row_mask[i] AND col_mask[j]."""
    out = np.zeros((row_mask.length, _packed_width(col_mask.length)),
                   dtype=np.uint8)
    out[row_mask.to_dense() == 1] = col_mask._packed
    return BinaryMatrix(row_mask.length, col_mask.length, out)


def axis_sums(x: BinaryMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(row_sums, col_sums) of a binary matrix."""
    return x.row_sums(), x.col_sums()


def cost_gamma(a_mat: BinaryMatrix, b_mat: BinaryMatrix,
               x: BinaryMatrix) -> int:
    """Number of entries where x and the Boolean product A B disagree.

    k = 0 factors are valid; the product is then all-zero and the cost is
    the number of ones in x.
    """
    product = bool_product(a_mat, b_mat)
    _check_same_shape(product, x)
    return elementwise("xor", x, product).count()


def dot(u: BinaryVector, v: BinaryVector) -> int:
    """Inner product of two binary vectors (size of the overlap)."""
    if u.length != v.length:
        raise ValueError(f"length mismatch: {u.length} vs {v.length}")
    return _popcount(u._packed & v._packed)


def col_dot_counts(x: BinaryMatrix, v: BinaryVector) -> np.ndarray:
    """Inner products of every column of x with a vector over the rows."""
    if v.length != x.n_rows:
        raise ValueError(f"length mismatch: {v.length} vs {x.n_rows} rows")
    selected = x._packed[v.to_dense() == 1]
    if selected.size == 0 or x.n_cols == 0:
        return np.zeros(x.n_cols, dtype=np.int64)
    return np.unpackbits(selected, axis=1,
                         count=x.n_cols).sum(axis=0, dtype=np.int64)


def row_dot_counts(x: BinaryMatrix, v: BinaryVector) -> np.ndarray:
    """Inner products of every row of x with a vector over the columns."""
    if v.length != x.n_cols:
        raise ValueError(f"length mismatch: {v.length} vs {x.n_cols} cols")
    return np.bitwise_count(x._packed & v._packed).sum(axis=1, dtype=np.int64)


def rank1_overlap(row_mask: BinaryVector, col_mask: BinaryVector,
                  x: BinaryMatrix) -> int:
    """Number of ones of x inside the pattern (row_mask, col_mask).

    Only the pattern's rows of x are read.
    """
    if row_mask.length != x.n_rows or col_mask.length != x.n_cols:
        raise ValueError(
            f"pattern ({row_mask.length}, {col_mask.length}) does not fit "
            f"matrix {x.shape}")
    selected = x._packed[row_mask.to_dense() == 1]
    return _popcount(selected & col_mask._packed)


def rank1_cost(row_mask: BinaryVector, col_mask: BinaryVector,
               x: BinaryMatrix) -> int:
    """Cost of approximating x by the single pattern (row_mask, col_mask).

    Equals ``cost_gamma`` of the rank-1 product against x, computed without
    materializing the product: |x| + |pattern| - 2 * overlap.
    """
    overlap = rank1_overlap(row_mask, col_mask, x)
    return x.count() + row_mask.count() * col_mask.count() - 2 * overlap
