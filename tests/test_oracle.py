"""Oracle tests: the brute-force search and naive product references."""

import itertools

import numpy as np
import pytest

from mebf.boolmat import (
    BinaryMatrix,
    BinaryVector,
    bool_product,
    rank1_product,
)
from mebf.factorize import MebfConfig, mebf_factorize
from reference import (
    MAX_SEARCH_BITS,
    cost_gamma,
    exhaustive_bmf,
    identity,
    naive_bool_product,
    ones,
)


def test_naive_product_matches_fast_product():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n, k, m = rng.integers(1, 9, size=3)
        a = BinaryMatrix.from_dense(rng.random((n, k)) < 0.5)
        b = BinaryMatrix.from_dense(rng.random((k, m)) < 0.5)
        assert naive_bool_product(a, b) == bool_product(a, b)


def test_naive_product_hand_examples():
    a = BinaryMatrix.from_dense([[1, 0], [1, 1]])
    assert naive_bool_product(a, identity(2)) == a
    b = BinaryMatrix.from_dense([[1, 1], [0, 1]])
    assert naive_bool_product(a, b).to_dense().tolist() == [[1, 1], [1, 1]]
    assert naive_bool_product(BinaryMatrix.zeros(3, 2),
                              ones(2, 4)).count() == 0


def test_naive_product_shape_check():
    with pytest.raises(ValueError, match="incompatible"):
        naive_bool_product(BinaryMatrix.zeros(2, 3), BinaryMatrix.zeros(2, 2))


def brute_min_cost_k1(x_dense):
    """Independent enumeration over all rank-1 factor pairs."""
    n, m = x_dense.shape
    best = None
    for a in itertools.product((0, 1), repeat=n):
        for b in itertools.product((0, 1), repeat=m):
            cost = int((x_dense ^ np.outer(a, b)).sum())
            best = cost if best is None else min(best, cost)
    return best


def test_identity_needs_one_error_at_k1():
    x_dense = np.eye(2, dtype=np.uint8)
    a, b, cost = exhaustive_bmf(BinaryMatrix.from_dense(x_dense), 1)
    assert cost == 1
    assert cost == brute_min_cost_k1(x_dense)
    assert cost_gamma(a, b, BinaryMatrix.from_dense(x_dense)) == cost


def test_returned_factors_attain_reported_cost():
    rng = np.random.default_rng(107)
    for _ in range(10):
        x = BinaryMatrix.from_dense(rng.random((3, 4)) < 0.5)
        for k in (1, 2):
            a, b, cost = exhaustive_bmf(x, k)
            assert cost_gamma(a, b, x) == cost
            assert a.shape == (3, k) and b.shape == (k, 4)


def test_k1_agrees_with_independent_enumeration():
    rng = np.random.default_rng(109)
    for _ in range(15):
        x_dense = (rng.random((3, 3)) < 0.5).astype(np.uint8)
        _, _, cost = exhaustive_bmf(BinaryMatrix.from_dense(x_dense), 1)
        assert cost == brute_min_cost_k1(x_dense)


def test_rank_one_input_recovered_exactly():
    rng = np.random.default_rng(113)
    for _ in range(10):
        rows = np.flatnonzero(rng.random(4) < 0.6)
        col_mask = BinaryVector.from_dense(rng.random(5) < 0.6)
        x = rank1_product(rows, col_mask, 4)
        _, _, cost = exhaustive_bmf(x, 1)
        assert cost == 0


def test_all_zero_input_yields_empty_pattern():
    a, b, cost = exhaustive_bmf(BinaryMatrix.zeros(3, 3), 1)
    assert cost == 0
    assert a.count() == 0 and b.count() == 0


def test_size_bound_enforced():
    with pytest.raises(ValueError, match=str(MAX_SEARCH_BITS)):
        exhaustive_bmf(BinaryMatrix.zeros(3, 4), 3)


def test_deterministic_tie_break():
    x = BinaryMatrix.from_dense([[1, 0], [0, 1]])
    first = exhaustive_bmf(x, 1)
    second = exhaustive_bmf(x, 1)
    assert first[0] == second[0] and first[1] == second[1]


def test_heuristic_never_beats_optimum():
    rng = np.random.default_rng(127)
    for _ in range(10):
        x = BinaryMatrix.from_dense(rng.random((4, 4)) < 0.5)
        for k in (1, 2):
            result = mebf_factorize(x, MebfConfig(t=0.5, k_max=k))
            heuristic = (result.cost_history[-1] if result.k
                         else x.count())
            _, _, optimum = exhaustive_bmf(x, k)
            assert heuristic >= optimum
