"""Bit-packed binary matrices and the Boolean-algebra kernels built on them.

Entries are stored one per bit in row-major uint8 words, most significant
bit first (the ``np.packbits`` convention).  Padding bits past the last
column of each row are kept at zero, so whole-word AND/XOR/OR and popcounts
are valid without masking.  Popcounts use ``np.bitwise_count``: every
total counts the whole uint64 words of its bytes and then the tail bytes
past them.  ``row_sums`` counts x in one pass; ``elementwise_count``
counts an AND or XOR of two matrices 255 rows at a time without forming
it.  A pass that needs dense rows (a column tally, ``row_blocks``) keeps
each unpacked block within the packed bytes of the matrix it reads, or
64 KiB if that is more (512 KiB at most), and drops it before it unpacks
the next.  A round gathers and ANDs many packed rows in 256 KiB parts
(``_parts``), so it holds the residual plus one part, save the sparse
path of ``row_dot_counts``: it gathers up to a quarter of every row.

A rank-1 pattern is a pair ``(rows, col_mask)``: the indices of its rows,
distinct and ascending, as an integer array, and its columns as a packed
:class:`BinaryVector`.  Every row-restricted kernel takes that pair and
reads or writes the pattern's rows only; a column mask of the wrong length
or a row outside the matrix raises ``ValueError`` before anything changes.

Row growth reads only what its anchor can hit: when at most a quarter of
the anchor's packed bytes are non-zero, ``row_dot_counts`` gathers those
byte columns of x and tallies them, instead of ANDing every byte of every
row.  ``rank1_cost`` prices a pattern alone from its own rows.
``UtlView`` holds a copy of x as the residual, with its line sums, and
``UtlView.clear`` clears each accepted pattern from it in place, on the
pattern's rows only: ``rank1_product``, ``complement`` and an
``elementwise`` AND of that block.  ``RowGroups`` holds a union of patterns as
groups of rows: it is the one place that prices a pattern against the
patterns before it, for the loop and for a report rebuilt from factors,
and never forms an n x m matrix; ``bool_product`` forms a product of factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinaryMatrix",
    "BinaryVector",
    "RowGroups",
    "UtlView",
    "bool_product",
    "col_dot_counts",
    "complement",
    "elementwise",
    "elementwise_count",
    "rank1_cost",
    "rank1_product",
    "row_dot_counts",
    "utl_rearrange",
]

# Rows per block of a full pass over packed rows: it holds one block at a
# time, so this bounds its temporaries, and a uint8 column tally of one
# block cannot overflow.  An unpacked block also stays within the packed
# bytes of the matrix it reads, or _BLOCK_FLOOR (64 KiB, the floor of
# simulate's draw blocks too) if that is more, and within 2 * _BLOCK_BYTES:
# 125 rows at 1000 x 1000, 250 at 2000 x 2000, 131 at 4000 x 4000, all
# 100 rows at 100 x 100.
_BLOCK_ROWS = 255
_BLOCK_FLOOR = 1 << 16
_BLOCK_BYTES = 1 << 18  # packed bytes of a part (_parts)
# Packed bytes per chunk of a row tally: 8191 bytes hold at most 65528 ones,
# so a uint16 row tally of one chunk cannot overflow.
_TALLY_BYTES = 8191
# row_dot_counts gathers the anchor's non-zero bytes when this many times
# their number is at most the packed width; denser anchors take the full
# AND, which reads contiguous rows.
_GATHER_RATIO = 4

_ELEMENTWISE_UFUNCS = {
    "xor": np.bitwise_xor,
    "and": np.bitwise_and,
}


def _packed_width(n_cols: int) -> int:
    return (n_cols + 7) // 8


def _popcount(words: np.ndarray) -> int:
    """Total number of set bits in an array of packed bytes: its whole
    uint64 words, then the tail bytes past the last of them."""
    flat = words.reshape(-1)
    whole = flat.size & -8
    tail = int.from_bytes(flat[whole:].tobytes(), "big").bit_count()
    return int(np.bitwise_count(flat[:whole].view(np.uint64)).sum()) + tail


def _block_rows(x: BinaryMatrix) -> int:
    """Rows per unpacked block of a pass that reads rows of x, one at
    least."""
    unpacked = min(max(x._packed.nbytes, _BLOCK_FLOOR), 2 * _BLOCK_BYTES)
    return max(1, min(_BLOCK_ROWS, unpacked // max(x.n_cols, 1)))


def _parts(rows, x: BinaryMatrix):
    """Rows of x (indices, or x's packed rows) in consecutive parts of at most
    _BLOCK_BYTES packed, one row at least each; ``(rows,)`` when they fit."""
    width = (x.n_cols + 7) >> 3
    if len(rows) * width <= _BLOCK_BYTES:
        return (rows,)
    step = max(1, _BLOCK_BYTES // width)
    return [rows[start:start + step] for start in range(0, len(rows), step)]


def _col_tally(packed: np.ndarray, x: BinaryMatrix) -> np.ndarray:
    """Ones per column of packed rows read from x, tallied in uint8 one
    block at a time."""
    totals = np.zeros(x.n_cols, dtype=np.int64)
    rows = _block_rows(x)
    for start in range(0, len(packed), rows):
        totals += np.unpackbits(packed[start:start + rows], axis=1,
                                count=x.n_cols).sum(axis=0, dtype=np.uint8)
    return totals


def _row_tally(counts: np.ndarray) -> np.ndarray:
    """Ones per row from the popcounts of packed words, tallied in uint16 one
    chunk at a time.  A caller that owns its words counts them in place
    (``np.bitwise_count(words, out=words)``)."""
    totals = np.zeros(len(counts), dtype=np.int64)
    for start in range(0, counts.shape[1], _TALLY_BYTES):
        totals += counts[:, start:start + _TALLY_BYTES].sum(axis=1,
                                                            dtype=np.uint16)
    return totals


def _validate_binary(dense: np.ndarray) -> np.ndarray:
    if dense.dtype == np.bool_:  # holds only 0 and 1; packs as it is
        return dense
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

    def nonzero(self) -> np.ndarray:
        """The indices of the ones, ascending."""
        return np.flatnonzero(self.to_dense())

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
        dense = np.unpackbits(np.stack([c._packed for c in cols], axis=1),
                              axis=0, count=n_rows)
        return cls(n_rows, len(cols), np.packbits(dense, axis=1))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def to_dense(self) -> np.ndarray:
        return np.unpackbits(self._packed, axis=1, count=self.n_cols)

    def count(self) -> int:
        """Total number of ones (the L1 norm)."""
        return _popcount(self._packed)

    def row_sums(self) -> np.ndarray:
        return _row_tally(np.bitwise_count(self._packed))

    def col_sums(self) -> np.ndarray:
        """Ones per column, unpacking one block of rows at a time."""
        return _col_tally(self._packed, self)

    def row_blocks(self):
        """Yield (first row, dense uint8 rows) for each block of rows; the
        generator keeps no block once it has yielded it."""
        rows = _block_rows(self)
        for start in range(0, self.n_rows, rows):
            yield start, np.unpackbits(self._packed[start:start + rows],
                                       axis=1, count=self.n_cols)

    def row(self, i: int) -> BinaryVector:
        return BinaryVector(self.n_cols, self._packed[i].copy())

    def col(self, j: int) -> BinaryVector:
        """Column j, counted from the end when negative, as ``row`` does."""
        if not -self.n_cols <= j < self.n_cols:
            raise IndexError(f"column {j} outside {self.n_cols} columns")
        j %= self.n_cols
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


@dataclass(eq=False)
class UtlView:
    """The residual of a factorization in upper-triangular-like (UTL) order.

    ``x`` is the residual and ``row_totals`` and ``col_totals`` are its
    line sums.  The row order lists active rows first, by non-increasing
    row sum; all-zero rows follow in original order.  The column order
    lists all-zero columns first in original order, then active columns by
    non-decreasing column sum.  Ties keep original relative order, so the
    order is a pure function of the totals.  It is never sorted:
    :meth:`row_at` and :meth:`col_at` select the line at one position.
    :meth:`clear` is the one place that sets a pattern's ones of the
    residual to zero.  It writes ``x`` in place (``utl_rearrange`` copies
    its input; a view built by hand has its ``x`` written) and lowers the
    totals from the pattern's rows instead of summing the residual again.
    """

    x: BinaryMatrix
    row_totals: np.ndarray
    col_totals: np.ndarray

    @property
    def n_active(self) -> int:
        """Rows with at least one one: the first n_active of the order."""
        return int(np.count_nonzero(self.row_totals))

    @property
    def m_active(self) -> int:
        """Columns with at least one one: the last m_active of the order."""
        return int(np.count_nonzero(self.col_totals))

    def row_at(self, rank: int) -> int:
        """The row at position ``rank`` of the row order, in O(n)."""
        return _line_at(self.row_totals.max() - self.row_totals, rank)

    def col_at(self, rank: int) -> int:
        """The column at position ``rank`` of the column order, in O(m)."""
        return _line_at(self.col_totals, rank)

    def clear(self, rows: np.ndarray, col_mask: BinaryVector) -> None:
        """Set the pattern's ones of the residual to zero.

        A pattern that does not fit raises ``ValueError`` before anything
        changes.  ``x`` is written in place, one part of the pattern's rows
        (``_parts``) at a time: a part is gathered, written back AND NOT the
        pattern, and its cleared ones lower the totals before the next one.
        """
        x = self.x
        _check_fit(rows, col_mask, x.shape)
        for part in _parts(rows, x):
            hit = x._packed[part]
            kept = elementwise("and", BinaryMatrix(len(part), x.n_cols, hit),
                               complement(rank1_product(
                                   np.arange(len(part)), col_mask, len(part))))
            x._packed[part] = kept._packed
            hit ^= kept._packed  # the ones cleared
            del kept  # not held while the cleared ones are tallied
            self.col_totals -= _col_tally(hit, x)
            self.row_totals[part] -= _row_tally(np.bitwise_count(hit, out=hit))


class RowGroups:
    """A union of rank-1 patterns, held as groups of rows.

    Rows in one group lie in the same patterns, so row i of the union is
    ``table[group[i]]``, the OR of those patterns' packed column masks.  It
    starts as one empty group.  It prices patterns (:meth:`gain`) and adds
    them (:meth:`add`), never forms an n x m matrix, and raises
    ``ValueError`` on a pattern that does not fit the union's shape.
    Groups left without rows are dropped whenever the table holds more rows
    than the union, so between calls it is no larger than the union's
    packed bytes.
    """

    __slots__ = ("shape", "group", "table")

    def __init__(self, n_rows: int, n_cols: int):
        self.shape = (n_rows, n_cols)
        self.group = np.zeros(n_rows, dtype=np.intp)
        self.table = np.zeros((1, _packed_width(n_cols)), dtype=np.uint8)

    def gain(self, rows: np.ndarray, col_mask: BinaryVector,
             x: BinaryMatrix) -> tuple[int, int]:
        """(change of |x xor union|, ones of x newly covered) on adding the
        pattern (rows, col_mask).  It flips N = pattern AND NOT union, whose
        row i is ``~table[group[i]] & col_mask``, so the cost moves by |N| -
        2 |N and x|.  x may be the input or any matrix that agrees with it
        off the union, such as the residual x AND NOT union."""
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {x.shape}")
        _check_fit(rows, col_mask, self.shape)
        fresh = ~self.table & col_mask._packed
        covered = 0
        for part in _parts(rows, x):
            hit = x._packed[part]
            hit &= fresh[self.group[part]]
            covered += _popcount(hit)
        added = _row_tally(np.bitwise_count(fresh, out=fresh))
        return int(added[self.group[rows]].sum()) - 2 * covered, covered

    def add(self, rows: np.ndarray, col_mask: BinaryVector) -> None:
        """OR the pattern (rows, col_mask) into the union: its rows in each
        group they touch move to one new group, whose table row is the old
        one ORed with the column mask."""
        _check_fit(rows, col_mask, self.shape)
        n_groups = len(self.table)
        old = self.group[rows]
        touched, remap = _renumber(old, n_groups, n_groups)
        self.group[rows] = remap[old]
        self.table = np.concatenate(
            (self.table, self.table[touched] | col_mask._packed))
        if len(self.table) > len(self.group):
            live, remap = _renumber(self.group, len(self.table), 0)
            self.group = remap[self.group]
            self.table = self.table[live]


def _renumber(labels: np.ndarray, n_labels: int,
              first: int) -> tuple[np.ndarray, np.ndarray]:
    """The labels in use, ascending, and a map from each of them to first,
    first + 1, ... in that order."""
    used = np.flatnonzero(np.bincount(labels, minlength=n_labels))
    remap = np.empty(n_labels, dtype=np.intp)
    remap[used] = np.arange(first, first + len(used))
    return used, remap


def _line_at(keys: np.ndarray, rank: int) -> int:
    """The line at position ``rank`` of the stable ascending order of keys.

    Selects instead of sorting: ``key * n + index`` is unique per line and
    ascends in exactly that order.
    """
    n = len(keys)
    return int(np.partition(keys * n + np.arange(n), rank)[rank]) % n


def utl_rearrange(x: BinaryMatrix) -> UtlView:
    """x as a residual in UTL order, from its row and column sums, held in
    a copy of x that ``clear`` writes."""
    row_totals, col_totals = x.row_sums(), x.col_sums()
    return UtlView(BinaryMatrix(x.n_rows, x.n_cols, x._packed.copy()),
                   row_totals, col_totals)


def bool_product(a_mat: BinaryMatrix, b_mat: BinaryMatrix) -> BinaryMatrix:
    """Boolean matrix product: entry (i, j) is OR over l of A[i,l] AND B[l,j].

    Each pattern l (column l of A with row l of B) is ORed into the rows
    of the result that it covers.
    """
    if a_mat.n_cols != b_mat.n_rows:
        raise ValueError(
            f"incompatible shapes for product: {a_mat.shape} x {b_mat.shape}")
    out = BinaryMatrix.zeros(a_mat.n_rows, b_mat.n_cols)
    for l in range(a_mat.n_cols):
        out._packed[a_mat.col(l).nonzero()] |= b_mat.row(l)._packed
    return out


def _elementwise_ufunc(op: str, a: BinaryMatrix, b: BinaryMatrix):
    """The ufunc of an elementwise op, once a and b are known to match."""
    try:
        ufunc = _ELEMENTWISE_UFUNCS[op]
    except KeyError:
        raise ValueError(f"unknown elementwise op {op!r}") from None
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return ufunc


def elementwise(op: str, a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Entrywise ``xor`` (symmetric difference) or ``and``."""
    ufunc = _elementwise_ufunc(op, a, b)
    return BinaryMatrix(a.n_rows, a.n_cols, ufunc(a._packed, b._packed))


def elementwise_count(op: str, a: BinaryMatrix, b: BinaryMatrix) -> int:
    """Ones of ``elementwise(op, a, b)``, counted one block of packed rows
    at a time without forming it."""
    ufunc = _elementwise_ufunc(op, a, b)
    return sum(_popcount(ufunc(a._packed[start:start + _BLOCK_ROWS],
                               b._packed[start:start + _BLOCK_ROWS]))
               for start in range(0, a.n_rows, _BLOCK_ROWS))


def complement(x: BinaryMatrix) -> BinaryMatrix:
    """Entrywise NOT, with the padding bits of each row's last byte reset
    to zero."""
    packed = ~x._packed
    if x.n_cols % 8:
        packed[:, -1] &= (0xFF << (8 - x.n_cols % 8)) & 0xFF
    return BinaryMatrix(x.n_rows, x.n_cols, packed)


def rank1_product(rows: np.ndarray, col_mask: BinaryVector,
                  n_rows: int) -> BinaryMatrix:
    """The pattern (rows, col_mask) as an n_rows x col_mask.length matrix."""
    out = BinaryMatrix.zeros(n_rows, col_mask.length)
    _check_fit(rows, col_mask, out.shape)
    out._packed[rows] = col_mask._packed
    return out


def col_dot_counts(x: BinaryMatrix, rows: np.ndarray) -> np.ndarray:
    """Ones of every column of x within the given rows: the inner products
    of the columns with the rows' indicator vector."""
    if not _rows_fit(rows, x.n_rows):
        raise ValueError(f"row index outside {x.n_rows} rows")
    parts = _parts(rows, x)  # (rows,) adds nothing to the first's peak
    totals = _col_tally(x._packed[parts[0]], x)
    for part in parts[1:]:
        totals += _col_tally(x._packed[part], x)
    return totals


def row_dot_counts(x: BinaryMatrix, v: BinaryVector) -> np.ndarray:
    """Inner products of every row of x with a vector over the columns.

    A sparse v (see ``_GATHER_RATIO``) reads only the byte columns where v
    has ones, a denser one every part of rows; both tally fresh arrays.
    """
    if v.length != x.n_cols:
        raise ValueError(f"length mismatch: {v.length} vs {x.n_cols} cols")
    touched = np.flatnonzero(v._packed)
    if _GATHER_RATIO * len(touched) > len(v._packed):
        tallies = []
        for part in _parts(x._packed, x):
            words = part & v._packed
            tallies.append(_row_tally(np.bitwise_count(words, out=words)))
        return tallies[0] if len(tallies) == 1 else np.concatenate(tallies)
    words = x._packed[:, touched]
    words &= v._packed[touched]
    return _row_tally(np.bitwise_count(words, out=words))


def _rows_fit(rows: np.ndarray, n_rows: int) -> bool:
    """Whether row indices all lie in [0, n_rows), in any order: read as
    unsigned, a negative index lies past every row."""
    unsigned = np.asarray(rows, dtype=np.intp).view(np.uintp)
    return not len(rows) or unsigned.max() < n_rows


def _check_fit(rows: np.ndarray, col_mask: BinaryVector,
               shape: tuple[int, int]) -> None:
    """Raise ValueError unless the pattern (rows, col_mask) fits a matrix of
    this shape."""
    if col_mask.length != shape[1] or not _rows_fit(rows, shape[0]):
        raise ValueError(
            f"pattern ({len(rows)} rows, {col_mask.length} columns) does not "
            f"fit matrix {shape}")


def rank1_cost(rows: np.ndarray, col_mask: BinaryVector,
               x: BinaryMatrix) -> int:
    """Change of cost when the pattern (rows, col_mask) alone approximates
    x: |pattern| - 2 |pattern and x|, read from the pattern's rows.  This
    is ``RowGroups.gain``'s delta against an empty union; the absolute cost
    adds |x|, which every candidate against one x shares.
    """
    _check_fit(rows, col_mask, x.shape)
    covered = 0
    for part in _parts(rows, x):
        hit = x._packed[part]
        hit &= col_mask._packed
        covered += _popcount(hit)
    return len(rows) * col_mask.count() - 2 * covered
