"""Slow, literal references that the tests check the fast code against.

None of this is used by the package itself: ``naive_bool_product`` is a
triple loop, ``exhaustive_bmf`` enumerates every factor pair, and
``cost_gamma`` forms the full product to count the cost.  The builders
``identity``, ``ones`` and ``ones_vector``, the ``pattern`` accessor,
``as_lists``, ``union_dense`` and ``block_bytes`` serve only the tests.
"""

from __future__ import annotations

import contextlib

import numpy as np

from mebf import boolmat
from mebf.boolmat import (
    BinaryMatrix,
    BinaryVector,
    RowGroups,
    bool_product,
    elementwise,
)
from mebf.factorize import FactorResult

# 2^((n+m)*k) candidate factor pairs are enumerated; this bound keeps the
# search space at ~10^6.
MAX_SEARCH_BITS = 20


def identity(n: int) -> BinaryMatrix:
    """The n x n identity matrix."""
    return BinaryMatrix.from_dense(np.eye(n, dtype=np.uint8))


def ones(n_rows: int, n_cols: int) -> BinaryMatrix:
    """The n_rows x n_cols all-ones matrix."""
    return BinaryMatrix.from_dense(np.ones((n_rows, n_cols), dtype=np.uint8))


def ones_vector(length: int) -> BinaryVector:
    """The all-ones vector of this length."""
    return BinaryVector.from_dense(np.ones(length, dtype=np.uint8))


def pattern(result: FactorResult,
            l: int) -> tuple[np.ndarray, BinaryVector]:
    """The l-th rank-1 pattern of a result in the loop's shape: (ascending
    row indices, column mask)."""
    return result.A.col(l).nonzero(), result.B.row(l)


def as_lists(pair) -> tuple[list[int], list[int]] | None:
    """A pattern (rows, col_mask) as (row indices, dense column mask) lists,
    which compare with ==; None stays None."""
    if pair is None:
        return None
    rows, cols = pair
    return rows.tolist(), cols.to_dense().tolist()


def union_dense(union: RowGroups) -> np.ndarray:
    """A union of patterns read whole, as a dense n x m uint8 array: row i
    is the unpacked table row of its group."""
    return np.unpackbits(union.table, axis=1,
                         count=union.shape[1])[union.group]


@contextlib.contextmanager
def block_bytes(size: int):
    """Within the block, ``boolmat._BLOCK_BYTES`` is size: a pattern's
    rows then span several parts at sizes the dense references afford."""
    saved = boolmat._BLOCK_BYTES
    boolmat._BLOCK_BYTES = size
    try:
        yield
    finally:
        boolmat._BLOCK_BYTES = saved


def cost_gamma(a_mat: BinaryMatrix, b_mat: BinaryMatrix,
               x: BinaryMatrix) -> int:
    """Number of entries where x and the Boolean product A B disagree.

    k = 0 factors are valid; the product is then all-zero and the cost is
    the number of ones in x.
    """
    return elementwise("xor", x, bool_product(a_mat, b_mat)).count()


def naive_bool_product(a_mat: BinaryMatrix,
                       b_mat: BinaryMatrix) -> BinaryMatrix:
    """Triple-loop Boolean product, the reference for ``bool_product``."""
    if a_mat.n_cols != b_mat.n_rows:
        raise ValueError(
            f"incompatible shapes for product: {a_mat.shape} x {b_mat.shape}")
    a = a_mat.to_dense()
    b = b_mat.to_dense()
    k = a_mat.n_cols
    out = [[0] * b_mat.n_cols for _ in range(a_mat.n_rows)]
    for i in range(a_mat.n_rows):
        for j in range(b_mat.n_cols):
            out[i][j] = int(any(a[i][l] and b[l][j] for l in range(k)))
    if a_mat.n_rows == 0 or b_mat.n_cols == 0:
        return BinaryMatrix.zeros(a_mat.n_rows, b_mat.n_cols)
    return BinaryMatrix.from_dense(out)


def _int_to_bits(value: int, n_bits: int) -> list[int]:
    """Bits of value, most significant first."""
    return [(value >> (n_bits - 1 - i)) & 1 for i in range(n_bits)]


def exhaustive_bmf(x: BinaryMatrix,
                   k: int) -> tuple[BinaryMatrix, BinaryMatrix, int]:
    """Globally optimal k-pattern factorization by brute force.

    Enumerates A then B, each counting in binary over row-major entries,
    and keeps the first pair attaining the minimal cost, so ties break
    lexicographically and the result is reproducible.

    Raises:
        ValueError: if (n_rows + n_cols) * k exceeds ``MAX_SEARCH_BITS``.
    """
    n, m = x.shape
    if k < 0:
        raise ValueError("k must be non-negative")
    total_bits = (n + m) * k
    if total_bits > MAX_SEARCH_BITS:
        raise ValueError(
            f"instance too large: (n + m) * k = {total_bits} exceeds the "
            f"exhaustive search bound of {MAX_SEARCH_BITS} bits")

    # Rows of x as integers with column 0 in the most significant bit.
    x_rows = [int("".join(map(str, row)), 2) if m else 0
              for row in x.to_dense().tolist()]

    best_cost = None
    best_pair = None
    for a_code in range(1 << (n * k)):
        # a_cols[l] holds column l of A as an n-bit row-index mask.
        a_bits = _int_to_bits(a_code, n * k)
        a_cols = [0] * k
        for i in range(n):
            for l in range(k):
                if a_bits[i * k + l]:
                    a_cols[l] |= 1 << (n - 1 - i)
        for b_code in range(1 << (k * m)):
            b_bits = _int_to_bits(b_code, k * m)
            b_rows = [0] * k
            for l in range(k):
                for j in range(m):
                    if b_bits[l * m + j]:
                        b_rows[l] |= 1 << (m - 1 - j)
            cost = 0
            for i in range(n):
                recon = 0
                for l in range(k):
                    if a_cols[l] >> (n - 1 - i) & 1:
                        recon |= b_rows[l]
                cost += (x_rows[i] ^ recon).bit_count()
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_pair = (a_code, b_code)
                if cost == 0:
                    break
        if best_cost == 0:
            break

    a_code, b_code = best_pair
    a_dense = [_int_to_bits(a_code, n * k)[i * k:(i + 1) * k]
               for i in range(n)]
    b_dense = [_int_to_bits(b_code, k * m)[l * m:(l + 1) * m]
               for l in range(k)]
    a_mat = (BinaryMatrix.from_dense(a_dense) if n and k
             else BinaryMatrix.zeros(n, k))
    b_mat = (BinaryMatrix.from_dense(b_dense) if k and m
             else BinaryMatrix.zeros(k, m))
    return a_mat, b_mat, best_cost
