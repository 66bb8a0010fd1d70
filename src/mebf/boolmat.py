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
    "bool_product",
    "col_dot_counts",
    "complement",
    "elementwise",
    "or_pattern",
    "rank1_cost",
    "rank1_gain",
    "rank1_product",
    "row_dot_counts",
    "utl_rearrange",
]

# Rows per unpacked block: bounds the dense temporaries of a full pass, and
# a uint8 column tally of one block cannot overflow.
_BLOCK_ROWS = 255
# Packed bytes per chunk of a row tally: 8191 bytes hold at most 65528 ones,
# so a uint16 row tally of one chunk cannot overflow.
_TALLY_BYTES = 8191

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


def _col_tally(packed: np.ndarray, n_cols: int) -> np.ndarray:
    """Ones per column of packed rows, tallied in uint8 one block at a time."""
    totals = np.zeros(n_cols, dtype=np.int64)
    for _, block in _dense_blocks(packed, n_cols):
        totals += block.sum(axis=0, dtype=np.uint8)
    return totals


def _row_tally(words: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Ones per row of packed words, tallied in uint16 one chunk at a time.

    With ``in_place`` the words (a temporary of the caller) are overwritten
    by their popcounts instead of copied.
    """
    counts = np.bitwise_count(words, out=words if in_place else None)
    totals = np.zeros(len(counts), dtype=np.int64)
    for start in range(0, counts.shape[1], _TALLY_BYTES):
        totals += counts[:, start:start + _TALLY_BYTES].sum(axis=1,
                                                            dtype=np.uint16)
    return totals


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

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self._packed, count=self.length)

    def count(self) -> int:
        """Number of ones."""
        return _popcount(self._packed)

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
        return _row_tally(self._packed)

    def col_sums(self) -> np.ndarray:
        """Ones per column, unpacking one block of rows at a time."""
        return _col_tally(self._packed, self.n_cols)

    def row_blocks(self):
        """Yield (first row, dense uint8 rows) one block of rows at a time."""
        return _dense_blocks(self._packed, self.n_cols)

    def row(self, i: int) -> BinaryVector:
        return BinaryVector(self.n_cols, self._packed[i].copy())

    def col(self, j: int) -> BinaryVector:
        bits = (self._packed[:, j >> 3] >> (7 - (j & 7))) & 1
        return BinaryVector(self.n_rows, np.packbits(bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(
            self._packed, other._packed)

    def __repr__(self) -> str:
        return (f"BinaryMatrix(shape={self.n_rows}x{self.n_cols}, "
                f"ones={self.count()})")


@dataclass(frozen=True, eq=False)
class UtlView:
    """The upper-triangular-like (UTL) order of a matrix, by its line sums.

    The row order lists active rows first, by non-increasing row sum;
    all-zero rows follow in original order.  The column order lists
    all-zero columns first in original order, then active columns by
    non-decreasing column sum.  Ties keep original relative order, so the
    order is a pure function of the row and column sums, kept as
    ``row_totals`` and ``col_totals``.  It is never sorted:
    :meth:`row_at` and :meth:`col_at` select the line at one position, and
    :meth:`cleared` updates the sums when a pattern is cleared, instead of
    summing the whole matrix again.
    """

    n_active: int
    m_active: int
    row_totals: np.ndarray
    col_totals: np.ndarray

    @classmethod
    def from_totals(cls, row_totals: np.ndarray,
                    col_totals: np.ndarray) -> UtlView:
        """The view of any matrix with these row and column sums."""
        return cls(
            n_active=int((row_totals > 0).sum()),
            m_active=int((col_totals > 0).sum()),
            row_totals=row_totals,
            col_totals=col_totals,
        )

    def row_at(self, rank: int) -> int:
        """The row at position ``rank`` of the row order, in O(n)."""
        return _line_at(self.row_totals.max() - self.row_totals, rank)

    def col_at(self, rank: int) -> int:
        """The column at position ``rank`` of the column order, in O(m)."""
        return _line_at(self.col_totals, rank)

    def cleared(self, x: BinaryMatrix, row_mask: BinaryVector,
                col_mask: BinaryVector) -> UtlView:
        """The view of x once the pattern's ones are set to zero.

        ``self`` must be the view of x.  Only the pattern's rows of x are
        read: their ones inside the pattern leave the totals.
        """
        selected = row_mask.to_dense() == 1
        hit = x._packed[selected] & col_mask._packed
        col_totals = self.col_totals - _col_tally(hit, x.n_cols)
        row_totals = self.row_totals.copy()
        row_totals[selected] -= _row_tally(hit, in_place=True)
        return UtlView.from_totals(row_totals, col_totals)


def _line_at(keys: np.ndarray, rank: int) -> int:
    """The line at position ``rank`` of the stable ascending order of keys.

    Selects instead of sorting: ``key * n + index`` is unique per line and
    ascends in exactly that order.
    """
    n = len(keys)
    return int(np.partition(keys * n + np.arange(n), rank)[rank]) % n


def utl_rearrange(x: BinaryMatrix) -> UtlView:
    """The UTL view of x, from its row and column sums."""
    return UtlView.from_totals(x.row_sums(), x.col_sums())


def bool_product(a_mat: BinaryMatrix, b_mat: BinaryMatrix) -> BinaryMatrix:
    """Boolean matrix product: entry (i, j) is OR over l of A[i,l] AND B[l,j].

    Each pattern l (column l of A with row l of B) is ORed into the result.
    """
    if a_mat.n_cols != b_mat.n_rows:
        raise ValueError(
            f"incompatible shapes for product: {a_mat.shape} x {b_mat.shape}")
    out = BinaryMatrix.zeros(a_mat.n_rows, b_mat.n_cols)
    for l in range(a_mat.n_cols):
        or_pattern(out, a_mat.col(l), b_mat.row(l))
    return out


def or_pattern(recon: BinaryMatrix, row_mask: BinaryVector,
               col_mask: BinaryVector) -> None:
    """OR the pattern into recon in place, writing the pattern's rows only."""
    recon._packed[_pattern_rows(row_mask, col_mask, recon)] |= col_mask._packed


def elementwise(op: str, a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Entrywise ``xor`` (symmetric difference), ``and``, or ``or``."""
    try:
        ufunc = _ELEMENTWISE_UFUNCS[op.lower()]
    except KeyError:
        raise ValueError(f"unknown elementwise op {op!r}") from None
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return BinaryMatrix(a.n_rows, a.n_cols, ufunc(a._packed, b._packed))


def complement(x: BinaryMatrix) -> BinaryMatrix:
    """Entrywise NOT, with padding bits reset to zero."""
    packed = ~x._packed
    packed &= _pad_mask(x.n_cols)
    return BinaryMatrix(x.n_rows, x.n_cols, packed)


def rank1_product(row_mask: BinaryVector,
                  col_mask: BinaryVector) -> BinaryMatrix:
    """Outer product: entry (i, j) = row_mask[i] AND col_mask[j]."""
    out = np.zeros((row_mask.length, _packed_width(col_mask.length)),
                   dtype=np.uint8)
    out[row_mask.to_dense() == 1] = col_mask._packed
    return BinaryMatrix(row_mask.length, col_mask.length, out)


def col_dot_counts(x: BinaryMatrix, v: BinaryVector) -> np.ndarray:
    """Inner products of every column of x with a vector over the rows."""
    if v.length != x.n_rows:
        raise ValueError(f"length mismatch: {v.length} vs {x.n_rows} rows")
    return _col_tally(x._packed[v.to_dense() == 1], x.n_cols)


def row_dot_counts(x: BinaryMatrix, v: BinaryVector) -> np.ndarray:
    """Inner products of every row of x with a vector over the columns."""
    if v.length != x.n_cols:
        raise ValueError(f"length mismatch: {v.length} vs {x.n_cols} cols")
    return _row_tally(x._packed & v._packed, in_place=True)


def _pattern_rows(row_mask: BinaryVector, col_mask: BinaryVector,
                  x: BinaryMatrix) -> np.ndarray:
    """The pattern's rows, as a boolean row selection of x it must fit."""
    if row_mask.length != x.n_rows or col_mask.length != x.n_cols:
        raise ValueError(
            f"pattern ({row_mask.length}, {col_mask.length}) does not fit "
            f"matrix {x.shape}")
    return row_mask.to_dense() == 1


def rank1_cost(row_mask: BinaryVector, col_mask: BinaryVector,
               x: BinaryMatrix) -> int:
    """Cost of approximating x by the single pattern (row_mask, col_mask).

    Counts the entries where x and the rank-1 product disagree without
    materializing the product: |x| + |pattern| - 2 * overlap.
    """
    selected = x._packed[_pattern_rows(row_mask, col_mask, x)]
    overlap = _popcount(selected & col_mask._packed)
    return x.count() + row_mask.count() * col_mask.count() - 2 * overlap


def rank1_gain(row_mask: BinaryVector, col_mask: BinaryVector,
               x: BinaryMatrix, recon: BinaryMatrix) -> tuple[int, int]:
    """(change of |x xor recon|, ones of x newly covered) on ORing the
    pattern into recon: it flips N = pattern AND NOT recon, so the cost
    moves by |N| - 2 |N and x|.  Reads the pattern's rows only.
    """
    if recon.shape != x.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {recon.shape}")
    selected = _pattern_rows(row_mask, col_mask, x)
    added = ~recon._packed[selected] & col_mask._packed
    hit = x._packed[selected]
    hit &= added
    covered = _popcount(hit)
    return _popcount(added) - 2 * covered, covered
