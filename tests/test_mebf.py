"""Algorithm tests, cross-checked against a dense-numpy reference.

The reference below re-implements the whole loop on plain numpy arrays
(sorting, median anchors, similarity thresholds, acceptance rule) without
touching the packed kernels, so it independently pins every behavioral
choice of the fast path.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mebf.boolmat
import mebf.factorize
from mebf.boolmat import (
    BinaryMatrix,
    BinaryVector,
    RowGroups,
    UtlView,
    bool_product,
    elementwise,
    utl_rearrange,
)
from mebf.factorize import (
    FactorResult,
    MebfConfig,
    bidirectional_growth,
    mebf_factorize,
    weak_signal_detection,
)
from mebf.metrics import report_from_factors
from mebf.simulate import SimulationSpec, simulate
from reference import (
    as_lists,
    block_bytes,
    cost_gamma,
    identity,
    ones,
    pattern,
    union_dense,
)

# fixture known to exercise the weak-signal fallback inside the loop
WEAK_PATH_DENSE = [
    [1, 0, 0, 1, 1, 1, 1, 0, 1],
    [1, 1, 0, 0, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 1, 1],
    [1, 0, 0, 0, 0, 1, 0, 1, 1],
    [1, 1, 0, 0, 0, 0, 1, 1, 0],
    [1, 0, 0, 1, 0, 0, 0, 1, 1],
    [0, 1, 1, 1, 0, 0, 0, 0, 1],
]
WEAK_PATH_T = 0.15


def mask_lists(row_mask, col_mask):
    """A reference pattern of dense masks in ``as_lists``'s form."""
    return np.flatnonzero(row_mask).tolist(), col_mask.tolist()


def ref_orderings(residual):
    row_totals = residual.sum(axis=1)
    col_totals = residual.sum(axis=0)
    active_rows = [i for i in np.argsort(-row_totals, kind="stable")
                   if row_totals[i] > 0]
    active_cols = [j for j in np.argsort(col_totals, kind="stable")
                   if col_totals[j] > 0]
    return active_rows, active_cols


def ref_growth(residual, t):
    active_rows, active_cols = ref_orderings(residual)
    if not active_rows:
        return None
    med_col = active_cols[(len(active_cols) + 1) // 2 - 1]
    med_row = active_rows[(len(active_rows) + 1) // 2 - 1]

    anchor_col = residual[:, med_col]
    col_members = ((residual.T @ anchor_col) / anchor_col.sum()
                   > t).astype(np.uint8)
    anchor_row = residual[med_row, :]
    row_members = ((residual @ anchor_row) / anchor_row.sum()
                   > t).astype(np.uint8)

    cost_col = int((residual ^ np.outer(anchor_col, col_members)).sum())
    cost_row = int((residual ^ np.outer(row_members, anchor_row)).sum())
    if cost_col > cost_row:
        return row_members, anchor_row.copy()
    return anchor_col.copy(), col_members


def ref_weak(residual, t):
    active_rows, active_cols = ref_orderings(residual)
    candidates = []
    if len(active_cols) >= 2:
        anchor = residual[:, active_cols[-1]] & residual[:, active_cols[-2]]
        if anchor.sum():
            members = ((residual.T @ anchor) / anchor.sum()
                       > t).astype(np.uint8)
            candidates.append((anchor, members))
    if len(active_rows) >= 2:
        anchor = residual[active_rows[0], :] & residual[active_rows[1], :]
        if anchor.sum():
            members = ((residual @ anchor) / anchor.sum()
                       > t).astype(np.uint8)
            candidates.append((members, anchor))
    if not candidates:
        return None
    costs = [int((residual ^ np.outer(a, b)).sum()) for a, b in candidates]
    return candidates[int(np.argmin(costs))]


def ref_factorize(dense, t, k_max):
    """Reference loop; returns (patterns, cost_history, weak_uses)."""
    dense = np.asarray(dense, dtype=np.uint8)
    residual = dense.copy()
    recon = np.zeros_like(dense)
    patterns, history = [], []
    best = None
    weak_uses = 0
    while len(patterns) < k_max and residual.any():
        pair = ref_growth(residual, t)
        cost = int((dense ^ (recon | np.outer(*pair))).sum())
        used_weak = False
        if best is not None and cost > best:
            pair = ref_weak(residual, t)
            if pair is None:
                break
            cost = int((dense ^ (recon | np.outer(*pair))).sum())
            if cost > best:
                break
            used_weak = True
        patterns.append(pair)
        recon |= np.outer(*pair)
        best = cost
        history.append(cost)
        residual[np.outer(*pair).astype(bool)] = 0
        weak_uses += used_weak
    return patterns, history, weak_uses


def factorize_recording_fallbacks(dense, t, k_max):
    """mebf_factorize's result, and what each fallback call returned."""
    fallbacks = []

    def recording(view, t):
        fallbacks.append(weak_signal_detection(view, t))
        return fallbacks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mebf.factorize, "weak_signal_detection", recording)
        result = mebf_factorize(BinaryMatrix.from_dense(dense),
                                MebfConfig(t=t, k_max=k_max))
    return result, fallbacks


# widths on both sides of the 8-bit byte and the 64-bit word
WORD_WIDTHS = (1, 7, 8, 9, 63, 64, 65, 127, 129)


@st.composite
def boundary_instances(draw):
    """(dense, t, k_max) with a word-boundary width along one axis.

    The other axis is often 1, giving 1 x m and n x 1 shapes, and reaches
    32, where the weak-signal fallback fires.  Whole rows or columns may
    be forced to ones or zeros, and a matrix may be tiled from a few rows
    so that many row and column sums tie.  Both axes stay below 256, which
    keeps the reference's uint8 products exact.
    """
    width = draw(st.sampled_from(WORD_WIDTHS))
    other = draw(st.sampled_from((16, 24, 32, 1, 2, 3, 8)))
    n, m = (other, width) if draw(st.booleans()) else (width, other)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.2, 0.3, 0.05, 0.5, 0.95)))
    if draw(st.integers(0, 3)):
        dense = (rng.random((n, m)) < density).astype(np.uint8)
    else:
        base = (rng.random((draw(st.integers(1, 3)), m)) < density)
        dense = np.resize(base.astype(np.uint8), (n, m))
    for axis, value in draw(st.lists(st.tuples(st.integers(0, 1),
                                               st.integers(0, 1)),
                                     max_size=3)):
        index = draw(st.integers(0, dense.shape[axis] - 1))
        if axis == 0:
            dense[index, :] = value
        else:
            dense[:, index] = value
    t = draw(st.sampled_from(("mid", "low", "mid", "high")).flatmap(
        lambda band: {"low": st.floats(1e-6, 0.05),
                      "mid": st.floats(0.05, 0.95),
                      "high": st.floats(0.95, 1 - 1e-6)}[band]))
    return dense, t, draw(st.sampled_from((10, 4, 2, 1)))


def random_matrix(rng, max_dim=12):
    n = int(rng.integers(1, max_dim))
    m = int(rng.integers(1, max_dim))
    return (rng.random((n, m)) < rng.uniform(0.1, 0.9)).astype(np.uint8)


class TestBidirectionalGrowth:
    def test_planted_block(self):
        dense = np.zeros((4, 4), np.uint8)
        dense[np.ix_([0, 1, 2], [1, 2, 3])] = 1
        for t in (0.1, 0.5, 0.9):
            x = BinaryMatrix.from_dense(dense)
            rows, cols = bidirectional_growth(utl_rearrange(x), t)
            assert rows.tolist() == [0, 1, 2]
            assert cols.to_dense().tolist() == [0, 1, 1, 1]

    def test_all_ones(self):
        x = ones(3, 5)
        rows, cols = bidirectional_growth(utl_rearrange(x), 0.7)
        assert rows.tolist() == [0, 1, 2] and cols.count() == 5

    def test_identity_tie_prefers_column_candidate(self):
        x = identity(2)
        rows, cols = bidirectional_growth(utl_rearrange(x), 0.5)
        # both candidates cover one diagonal entry at cost 1
        assert rows.tolist() == [0]
        assert cols.to_dense().tolist() == [1, 0]

    def test_empty_residual(self):
        x = BinaryMatrix.zeros(3, 3)
        assert bidirectional_growth(utl_rearrange(x), 0.5) is None

    def test_matches_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            dense = random_matrix(rng)
            if not dense.any():
                continue
            t = float(rng.uniform(0.05, 0.95))
            x = BinaryMatrix.from_dense(dense)
            got = bidirectional_growth(utl_rearrange(x), t)
            assert as_lists(got) == mask_lists(*ref_growth(dense, t))


class TestWeakSignalDetection:
    def test_hand_example(self):
        mat = BinaryMatrix.from_dense([[1, 1, 0], [1, 1, 0], [0, 1, 1]])
        rows, cols = weak_signal_detection(utl_rearrange(mat), 0.6)
        assert rows.tolist() == [0, 1]
        assert cols.to_dense().tolist() == [1, 1, 0]

    def test_disjoint_densest_columns_fall_back_to_rows(self):
        # columns never overlap, rows 0 and 1 do
        mat = BinaryMatrix.from_dense([[1, 0], [1, 0], [0, 1]])
        rows, cols = weak_signal_detection(utl_rearrange(mat), 0.5)
        assert cols.to_dense().tolist() == [1, 0]
        assert rows.tolist() == [0, 1]

    def test_both_candidates_invalid(self):
        x = identity(2)
        assert weak_signal_detection(utl_rearrange(x), 0.5) is None

    def test_all_zero(self):
        x = BinaryMatrix.zeros(4, 4)
        assert weak_signal_detection(utl_rearrange(x), 0.5) is None

    def test_matches_reference(self):
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(300):
            dense = random_matrix(rng)
            t = float(rng.uniform(0.05, 0.95))
            x = BinaryMatrix.from_dense(dense)
            got = weak_signal_detection(utl_rearrange(x), t)
            want = ref_weak(dense, t)
            if want is None:
                assert got is None
                continue
            checked += 1
            assert as_lists(got) == mask_lists(*want)
        assert checked > 100


def test_overlap_ratio_equal_to_t_stays_out():
    # ratios of small counts hit these t exactly; a line joins only above t
    rng = np.random.default_rng(47)
    for _ in range(300):
        dense = random_matrix(rng)
        t = float(rng.choice([0.25, 0.5, 0.75]))
        x = BinaryMatrix.from_dense(dense)
        view = utl_rearrange(x)
        for got, want in ((bidirectional_growth(view, t),
                           ref_growth(dense, t)),
                          (weak_signal_detection(view, t),
                           ref_weak(dense, t))):
            assert as_lists(got) == (want if want is None
                                     else mask_lists(*want))


class TestConfig:
    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_range(self, t):
        with pytest.raises(ValueError, match="strictly between"):
            MebfConfig(t=t, k_max=3)

    def test_budget_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            MebfConfig(t=0.5, k_max=0)

    @pytest.mark.parametrize("k_max", [2.5, 3.0, float("inf"), np.float64(4),
                                       "3", None])
    def test_budget_must_be_an_integer(self, k_max):
        message = f"k_max must be an integer, got {k_max!r}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            MebfConfig(t=0.3, k_max=k_max)

    @pytest.mark.parametrize("k_max", [3, np.int64(3), np.uint8(3)])
    def test_integer_budgets_are_kept(self, k_max):
        x = BinaryMatrix.from_dense(
            np.random.default_rng(0).random((60, 50)) < 0.5)
        cfg = MebfConfig(t=0.3, k_max=k_max)
        assert cfg.k_max == 3
        assert mebf_factorize(x, cfg).k == 3


class TestFactorize:
    def test_all_zero_input(self):
        result = mebf_factorize(BinaryMatrix.zeros(4, 6),
                                MebfConfig(t=0.5, k_max=3))
        assert result.k == 0
        assert result.cost_history == ()
        assert result.A.shape == (4, 0) and result.B.shape == (0, 6)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mebf_factorize(BinaryMatrix.zeros(0, 3),
                           MebfConfig(t=0.5, k_max=1))

    def test_block_diagonal(self):
        mat = BinaryMatrix.from_dense([[1, 1, 0, 0], [1, 1, 0, 0],
                                       [0, 0, 1, 1], [0, 0, 1, 1]])
        result = mebf_factorize(mat, MebfConfig(t=0.5, k_max=2))
        assert result.k == 2
        assert result.cost_history == (4, 0)
        assert bool_product(result.A, result.B) == mat

    def test_single_block_recovered_with_one_pattern(self):
        dense = np.zeros((6, 7), np.uint8)
        dense[np.ix_([1, 2, 4], [0, 3, 5, 6])] = 1
        mat = BinaryMatrix.from_dense(dense)
        for t in (0.3, 0.5, 0.7):
            result = mebf_factorize(mat, MebfConfig(t=t, k_max=5))
            assert result.k == 1
            assert result.cost_history == (0,)

    def test_budget_respected(self):
        rng = np.random.default_rng(47)
        mat = BinaryMatrix.from_dense(rng.random((15, 15)) < 0.5)
        result = mebf_factorize(mat, MebfConfig(t=0.4, k_max=3))
        assert result.k <= 3
        assert result.A.n_cols == result.k and result.B.n_rows == result.k

    @pytest.mark.parametrize("k_max", [1, 3, 6, 10])
    def test_pattern_that_fills_the_budget_is_not_applied(self, k_max,
                                                          monkeypatch):
        # nothing reads the residual or the row groups after the last
        # pattern, so only the patterns before it are applied to them
        mat = BinaryMatrix.from_dense(WEAK_PATH_DENSE)
        cleared = []
        added = []
        clear, add = UtlView.clear, RowGroups.add

        def recording_clear(view, rows, cols):
            cleared.append(as_lists((rows, cols)))
            clear(view, rows, cols)

        def recording_add(groups, rows, cols):
            added.append(as_lists((rows, cols)))
            add(groups, rows, cols)

        monkeypatch.setattr(UtlView, "clear", recording_clear)
        monkeypatch.setattr(RowGroups, "add", recording_add)
        result = mebf_factorize(mat, MebfConfig(t=WEAK_PATH_T, k_max=k_max))
        assert result.k == min(k_max, 6)
        assert cleared == [as_lists(pattern(result, l))
                           for l in range(result.k - (result.k == k_max))]
        assert added == cleared

    def test_deterministic(self):
        rng = np.random.default_rng(53)
        mat = BinaryMatrix.from_dense(rng.random((20, 18)) < 0.3)
        cfg = MebfConfig(t=0.6, k_max=8)
        assert mebf_factorize(mat, cfg) == mebf_factorize(mat, cfg)

    def test_weak_signal_path_fixture(self):
        mat = BinaryMatrix.from_dense(WEAK_PATH_DENSE)
        result = mebf_factorize(mat, MebfConfig(t=WEAK_PATH_T, k_max=10))
        assert result.weak_signal_uses == 1
        assert result.cost_history == (23, 19, 17, 14, 13, 12)
        _, want_history, want_weak = ref_factorize(
            WEAK_PATH_DENSE, WEAK_PATH_T, 10)
        assert list(result.cost_history) == want_history
        assert result.weak_signal_uses == want_weak

    def test_run_ends_when_the_fallback_candidate_is_rejected(self):
        # seeded so that the last round's fallback finds a candidate that
        # raises the cost as well: the loop's final break
        dense = (np.random.default_rng(30).random((24, 40))
                 < 0.25).astype(np.uint8)
        t, k_max = 0.3, 20
        result, fallbacks = factorize_recording_fallbacks(dense, t, k_max)
        assert fallbacks[-1] is not None
        assert result.k < k_max and result.iterations == result.k + 1
        assert result.weak_signal_uses == len(fallbacks) - 1 == 1
        assert_matches_reference(dense, t, k_max)
        recon = np.zeros_like(dense)
        for l in range(result.k):
            recon |= np.outer(result.A.col(l).to_dense(),
                              result.B.row(l).to_dense())
            assert result.residual_history[l] == int((dense & ~recon).sum())

    # (seed, shape, density, t, k_max, cost_history, residual_history,
    # iterations, weak uses): the smallest seeded witness, and the 24x40
    # draw that tests/contract.py pins as weak_no_candidate
    @pytest.mark.parametrize("seed, shape, density, t, k_max, costs, "
                             "residuals, iterations, weak_uses", [
        (111, (11, 14), 0.2, 0.1, 10, (35, 33), (26, 24), 3, 1),
        (18, (24, 40), 0.25, 0.1, 20, (319, 318, 306, 300, 294),
         (183, 145, 121, 101, 77), 6, 4),
    ])
    def test_run_ends_when_the_fallback_finds_no_candidate(
            self, seed, shape, density, t, k_max, costs, residuals,
            iterations, weak_uses):
        # the last round's fallback returns None: on each axis the two
        # densest residual lines share no one, or fewer than two are active
        dense = (np.random.default_rng(seed).random(shape)
                 < density).astype(np.uint8)
        result, fallbacks = factorize_recording_fallbacks(dense, t, k_max)
        assert fallbacks[-1] is None
        assert result.cost_history == costs
        assert result.residual_history == residuals
        assert result.iterations == iterations == result.k + 1
        assert result.weak_signal_uses == len(fallbacks) - 1 == weak_uses
        assert_matches_reference(dense, t, k_max)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
           st.sampled_from((0.05, 0.2, 0.5, 0.9)),
           st.floats(0.5, 1.0, exclude_max=True), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_no_fallback_from_one_half_up(self, n, m, seed, density, t,
                                          k_max):
        # every line a grown pattern takes shares more than t of the
        # anchor's ones, so its change of cost is below (1 - 2t)|P| <= 0
        dense = np.random.default_rng(seed).random((n, m)) < density

        def unreachable(view, t):
            raise AssertionError("fallback called at t >= 1/2")

        x = BinaryMatrix.from_dense(dense)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mebf.factorize, "weak_signal_detection", unreachable)
            result = mebf_factorize(x, MebfConfig(t=t, k_max=k_max))
        assert result.iterations == result.k
        assert result.weak_signal_uses == 0
        costs = (x.count(),) + result.cost_history
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(59)
        for _ in range(150):
            dense = random_matrix(rng)
            t = float(rng.uniform(0.1, 0.9))
            k_max = int(rng.integers(1, 8))
            result = mebf_factorize(BinaryMatrix.from_dense(dense),
                                    MebfConfig(t=t, k_max=k_max))
            patterns, history, weak_uses = ref_factorize(dense, t, k_max)
            assert list(result.cost_history) == history
            assert result.k == len(patterns)
            assert result.weak_signal_uses == weak_uses
            for l, (a, b) in enumerate(patterns):
                assert as_lists(pattern(result, l)) == mask_lists(a, b)


def assert_matches_reference(dense, t, k_max):
    """Run both loops; every pattern and trace must agree.  Returns the
    reference's weak-signal use count."""
    result = mebf_factorize(BinaryMatrix.from_dense(dense),
                            MebfConfig(t=t, k_max=k_max))
    patterns, history, weak_uses = ref_factorize(dense, t, k_max)
    assert list(result.cost_history) == history
    assert result.weak_signal_uses == weak_uses
    assert result.k == len(patterns)
    for l, (a, b) in enumerate(patterns):
        assert as_lists(pattern(result, l)) == mask_lists(a, b)
    return weak_uses


class TestWordBoundaries:
    @given(boundary_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, instance):
        assert_matches_reference(*instance)

    @given(boundary_instances(), st.sampled_from((1, 64)))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_loop_in_parts(self, instance, size):
        # one row or 64 bytes per part: every pattern's rows span parts
        with block_bytes(size):
            assert_matches_reference(*instance)

    def test_fallback_at_word_widths(self):
        # sparse 24-line matrices make the fallback fire; the random cases
        # above reach it only now and then
        rng = np.random.default_rng(79)
        fallback_runs = 0
        for width in WORD_WIDTHS:
            for shape in ((24, width), (width, 24)) * 10:
                dense = (rng.random(shape) < 0.25).astype(np.uint8)
                t = float(rng.uniform(0.2, 0.8))
                fallback_runs += assert_matches_reference(dense, t, 10) > 0
        assert fallback_runs >= 10


class TestFactorizeInvariants:
    def test_histories_and_termination(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            dense = random_matrix(rng)
            mat = BinaryMatrix.from_dense(dense)
            k_max = int(rng.integers(1, 10))
            result = mebf_factorize(mat, MebfConfig(
                t=float(rng.uniform(0.1, 0.9)), k_max=k_max))
            assert all(a >= b for a, b in zip(result.cost_history,
                                              result.cost_history[1:]))
            assert all(a > b for a, b in zip(result.residual_history,
                                             result.residual_history[1:]))
            assert result.iterations <= min(k_max, max(mat.count(), 1))
            assert result.k <= result.iterations <= result.k + 1

    def test_residual_equals_uncovered_ones(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            dense = random_matrix(rng)
            mat = BinaryMatrix.from_dense(dense)
            result = mebf_factorize(mat, MebfConfig(t=0.5, k_max=6))
            # after each prefix of patterns the residual count must equal
            # the ones of x outside the prefix reconstruction
            a, b = result.A.to_dense(), result.B.to_dense()
            recon = np.zeros_like(dense)
            for l in range(result.k):
                recon |= np.outer(a[:, l], b[l])
                assert result.residual_history[l] == int(
                    (dense & (1 - recon)).sum())

    def test_final_cost_matches_cost_gamma(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            dense = random_matrix(rng)
            mat = BinaryMatrix.from_dense(dense)
            result = mebf_factorize(mat, MebfConfig(t=0.4, k_max=5))
            expected = (result.cost_history[-1] if result.k
                        else mat.count())
            assert cost_gamma(result.A, result.B, mat) == expected

    def test_disjoint_blocks_fully_recovered(self):
        rng = np.random.default_rng(73)
        for _ in range(25):
            n = m = 16
            blocks = int(rng.integers(2, 5))
            rows = rng.permutation(n)
            cols = rng.permutation(m)
            dense = np.zeros((n, m), np.uint8)
            row_splits = np.array_split(rows, blocks)
            col_splits = np.array_split(cols, blocks)
            for rr, cc in zip(row_splits, col_splits):
                dense[np.ix_(rr, cc)] = 1
            for t in (0.3, 0.7):
                result = mebf_factorize(BinaryMatrix.from_dense(dense),
                                        MebfConfig(t=t, k_max=8))
                assert result.k == blocks
                assert result.cost_history[-1] == 0


@st.composite
def union_steps(draw):
    """(x, steps) for RowGroups against a numpy reconstruction.

    x has a word-boundary width along one axis; each step is (rows, cols)
    or ("split", cols), a pattern that takes every other row of each group.
    Up to 70 steps, more than a 64-bit mask of patterns could index; with
    one to three rows the table outgrows the rows and is compacted.
    """
    width = draw(st.sampled_from(WORD_WIDTHS))
    other = draw(st.sampled_from((1, 2, 3, 16, 40)))
    n, m = (other, width) if draw(st.booleans()) else (width, other)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, m)) < draw(st.sampled_from((0.1, 0.5, 0.9)))
    steps = []
    for _ in range(draw(st.sampled_from((1, 4, 12, 70)))):
        cols = rng.random(m) < draw(st.sampled_from((0.05, 0.3, 0.8)))
        if draw(st.booleans()):
            steps.append(("split", cols))
        else:
            rows = rng.random(n) < draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))
            steps.append((np.flatnonzero(rows), cols))
    return x, steps


def every_other_row_of_each_group(group):
    """Rows at even positions within their group: splits each group of at
    least two rows in two."""
    return np.sort(np.concatenate(
        [np.flatnonzero(group == g)[::2] for g in np.unique(group)]))


class TestRowGroups:
    """The loop's grouped union and its pricing, against a numpy
    reconstruction and against the dense reference loop."""

    @given(union_steps())
    @settings(max_examples=200, deadline=None)
    def test_pricing_matches_a_dense_reconstruction(self, instance):
        x, steps = instance
        n, m = x.shape
        groups = RowGroups(n, m)
        recon = np.zeros((n, m), bool)
        for rows, cols in steps:
            before = groups.group.copy()
            if isinstance(rows, str):
                rows = every_other_row_of_each_group(before)
            p = np.zeros((n, m), bool)
            p[rows] = cols
            residual = x & ~recon
            col_mask = BinaryVector.from_dense(cols)
            delta, covered = groups.gain(rows, col_mask,
                                         BinaryMatrix.from_dense(x))
            assert groups.gain(rows, col_mask, BinaryMatrix.from_dense(
                residual)) == (delta, covered)
            assert covered == int((p & residual).sum())
            assert delta == int((x ^ (recon | p)).sum() - (x ^ recon).sum())
            overlap = len(rows) * int(cols.sum()) - delta - 2 * covered
            assert overlap == int((p & recon).sum())

            groups.add(rows, col_mask)
            recon |= p
            assert len(groups.table) <= n
            assert np.array_equal(union_dense(groups), recon)
            # each group the pattern takes only part of splits in two
            taken = np.isin(np.arange(n), rows)
            partial = sum(0 < taken[before == g].sum() < (before == g).sum()
                          for g in np.unique(before))
            assert len(np.unique(groups.group)) == \
                len(np.unique(before)) + partial

    @pytest.mark.parametrize("seed", range(3))
    def test_more_patterns_than_a_word_has_bits(self, seed):
        # from 65 patterns on, no bitmask of memberships would fit
        for shape in ((129, 65), (65, 129)):
            dense = (np.random.default_rng(seed).random(shape)
                     < 0.05).astype(np.uint8)
            assert_matches_reference(dense, 0.5, 80)
            result = mebf_factorize(BinaryMatrix.from_dense(dense),
                                    MebfConfig(t=0.5, k_max=80))
            assert 65 <= result.k < 80

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compaction_on_one_to_three_rows(self, n, monkeypatch):
        compacted = []
        add = RowGroups.add

        def recording_add(groups, rows, cols):
            appended = len(groups.table) + len(np.unique(groups.group[rows]))
            add(groups, rows, cols)
            compacted.append(len(groups.table) < appended)
            assert len(groups.table) <= n

        monkeypatch.setattr(RowGroups, "add", recording_add)
        rng = np.random.default_rng(83 + n)
        for width in WORD_WIDTHS:
            for _ in range(6):
                dense = (rng.random((n, width)) < 0.4).astype(np.uint8)
                t = float(rng.uniform(0.05, 0.95))
                assert_matches_reference(dense, t, int(rng.integers(10, 30)))
        assert sum(compacted) >= 20


# planted instances of at least 500 x 500; the second takes the
# weak-signal fallback four times
PLANTED = {
    "dense_blocks": (SimulationSpec(n=600, m=600, k=5, p0=0.2, p=0.01,
                                    seed=0), 0.8, 10),
    "weak_fallback": (SimulationSpec(n=600, m=600, k=12, p0=0.06, p=0.003,
                                     seed=2), 0.3, 20),
}


class TestPlantedInvariants:
    """The running cost and residual counts against full recomputation."""

    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_running_counts_match_recomputation(self, name):
        spec, t, k_max = PLANTED[name]
        x, _, _ = simulate(spec)
        result = mebf_factorize(x, MebfConfig(t=t, k_max=k_max))
        assert result.k > 1
        if name == "weak_fallback":
            assert result.weak_signal_uses > 0
        dense, a, b = x.to_dense(), result.A.to_dense(), result.B.to_dense()
        recon = np.zeros_like(dense)
        for l in range(result.k):
            recon |= np.outer(a[:, l], b[l])
            assert result.residual_history[l] == int(
                (dense & (1 - recon)).sum())
        assert BinaryMatrix.from_dense(recon) == bool_product(result.A,
                                                              result.B)
        assert result.cost_history[-1] == cost_gamma(result.A, result.B, x)

    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_input_is_left_unchanged(self, name):
        spec, t, k_max = PLANTED[name]
        x, _, _ = simulate(spec)
        before = x._packed.tobytes()
        result = mebf_factorize(x, MebfConfig(t=t, k_max=k_max))
        assert result.weak_signal_uses == (4 if name == "weak_fallback" else 0)
        assert x._packed.tobytes() == before

    def test_peak_memory_is_a_small_multiple_of_the_input(self):
        # measured at 2.364x, set by col_dot_counts beside the view's own
        # residual (3.131x while UtlView.clear built three n x m
        # matrices); lower the bound as the loop allocates less, never
        # raise it
        x, _, _ = simulate(SimulationSpec(n=2000, m=2000, k=5, p0=0.2,
                                          p=0.01, seed=3))
        cfg = MebfConfig(t=0.8, k_max=10)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = mebf_factorize(x, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.k == 10
        assert peak <= 2.37 * x._packed.nbytes, peak / x._packed.nbytes

    @pytest.mark.parametrize("p0,bound", [
        # measured 3.000x, set by col_dot_counts, and 2.551x, set by
        # UtlView.clear on the pattern's rows (col_dot_counts 2.554x);
        # 3.290x and 3.286x while the clear built three n x m matrices,
        # 3.824x while the column tally unpacked blocks of 255 rows, 2.04x
        # packed at m = 1000, and 5.085x and 4.259x while it held two of
        # them
        (0.4, 3.01),
        (0.2, 2.56),
    ])
    def test_peak_memory_at_the_bench_scale(self, p0, bound):
        # a 1000 x 1000 scenario of preset_grid(), with noise
        assert_second_peak(SimulationSpec(n=1000, m=1000, k=5, p0=p0,
                                          p=0.01, seed=0),
                           MebfConfig(t=0.8, k_max=10), bound)

    def test_peak_memory_on_the_tall_instance(self):
        # the tall instance whose weak fallback is accepted: measured
        # 1.887x, set by row_dot_counts' parts of rows and their tallies
        # (2.515x while its full AND formed n x m/8 bytes, 3.316x while
        # UtlView.clear built three n x m matrices)
        assert_second_peak(SimulationSpec(n=16000, m=500, k=12, p0=0.06,
                                          p=0.003, seed=4),
                           MebfConfig(t=0.3, k_max=20), 1.89)

    def test_peak_memory_on_the_factorize_4k_instance(self):
        # perfbench's factorize_4k instance: measured 1.4697x, set by
        # col_dot_counts on one 256 KiB part of the anchor's rows beside
        # the view's residual (UtlView.clear 1.467x); 2.097x while
        # row_dot_counts' full AND formed n x m/8 bytes
        assert_second_peak(SimulationSpec(n=4000, m=4000, k=5, p0=0.2,
                                          p=0.01, seed=0),
                           MebfConfig(t=0.8, k_max=10), 1.47)


def assert_second_peak(spec, cfg, bound):
    """The tracemalloc peak of a second factorization of spec's X, once
    the first has paid one-off costs, is at most bound times packed X."""
    x, _, _ = simulate(spec)
    mebf_factorize(x, cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mebf_factorize(x, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound * x._packed.nbytes, peak / x._packed.nbytes


# the planted instances plus a tall one whose weak fallback is accepted
VIEW_INSTANCES = {
    **PLANTED,
    "tall": (SimulationSpec(n=16000, m=500, k=12, p0=0.06, p=0.003,
                            seed=4), 0.3, 20),
}


class TestSharedView:
    """The loop keeps one view per round instead of re-sorting the residual.

    Every view it hands to a pattern finder must hold the residual of the
    patterns accepted so far, with the totals of a fresh ``utl_rearrange``
    of that residual.
    """

    @pytest.mark.parametrize("name", sorted(VIEW_INSTANCES))
    def test_view_matches_a_fresh_one(self, name, monkeypatch):
        spec, t, k_max = VIEW_INSTANCES[name]
        x, _, _ = simulate(spec)
        finders = []
        calls = []

        def recording(finder):
            def wrapper(view, t):
                # every round but the current one accepted a pattern,
                # and a round's fallback runs after its growth
                accepted = finders.count(bidirectional_growth) \
                    - (finder is weak_signal_detection)
                finders.append(finder)
                # clear() writes the residual and lowers the totals in
                # place: keep them as handed
                residual = BinaryMatrix(*view.x.shape, view.x._packed.copy())
                calls.append((accepted, UtlView(
                    residual, view.row_totals.copy(), view.col_totals.copy())))
                return finder(view, t)
            return wrapper

        for finder in (bidirectional_growth, weak_signal_detection):
            monkeypatch.setattr(mebf.factorize, finder.__name__,
                                recording(finder))
        result = mebf_factorize(x, MebfConfig(t=t, k_max=k_max))
        monkeypatch.undo()

        if name != "dense_blocks":
            assert result.weak_signal_uses > 0
        assert finders.count(bidirectional_growth) == result.iterations
        assert finders.count(weak_signal_detection) >= \
            result.weak_signal_uses
        for accepted, view in calls:
            union = RowGroups(*x.shape)
            for l in range(accepted):
                union.add(*pattern(result, l))
            residual = view.x
            assert residual == BinaryMatrix.from_dense(
                x.to_dense() & (1 - union_dense(union)))
            fresh = utl_rearrange(residual)
            for field in ("row_totals", "col_totals"):
                assert np.array_equal(getattr(view, field),
                                      getattr(fresh, field)), field
            assert (view.n_active, view.m_active) == (fresh.n_active,
                                                      fresh.m_active)
            # the view's order against the spec, a stable argsort of the
            # residual's own line sums
            dense = residual.to_dense()
            row_order = np.argsort(-dense.sum(axis=1, dtype=np.int64),
                                   kind="stable")
            col_order = np.argsort(dense.sum(axis=0, dtype=np.int64),
                                   kind="stable")
            rows = spec_ranks(view)
            assert [view.row_at(r) for r in rows] == row_order[rows].tolist()
            cols = range(residual.n_cols)
            assert [view.col_at(r) for r in cols] == col_order.tolist()
            for finder in (bidirectional_growth, weak_signal_detection):
                assert as_lists(finder(view, t)) == as_lists(finder(fresh, t))


class TestLoopWork:
    """Work the loop must not repeat: x is counted once, and each accepted
    pattern is cleared from its own rows of the residual, never the
    whole, one part of them at a time."""

    @pytest.mark.parametrize("name", sorted(VIEW_INSTANCES))
    def test_one_count_and_only_and(self, name, monkeypatch):
        # at the block size, and with 4 KiB parts, where every accepted
        # pattern spans several of them
        spec, t, k_max = VIEW_INSTANCES[name]
        x, _, _ = simulate(spec)
        for size in (mebf.boolmat._BLOCK_BYTES, 4096):
            with block_bytes(size):
                self.assert_one_count_and_only_and(x, t, k_max, monkeypatch)

    @staticmethod
    def assert_one_count_and_only_and(x, t, k_max, monkeypatch):
        counted = []
        ops = []
        count = BinaryMatrix.count

        def recording_count(mat):
            counted.append(mat)
            return count(mat)

        def recording_elementwise(op, a, b):
            ops.append((op, a._packed.copy(), b.n_rows))
            return elementwise(op, a, b)

        monkeypatch.setattr(BinaryMatrix, "count", recording_count)
        monkeypatch.setattr(mebf.boolmat, "elementwise",
                            recording_elementwise)
        result = mebf_factorize(x, MebfConfig(t=t, k_max=k_max))
        monkeypatch.undo()

        assert result.k > 1
        assert len(counted) == 1 and counted[0] is x
        assert all(op == "and" and len(a) == b for op, a, b in ops)
        # the ANDs of one accept, every accept but the one that fills the
        # budget, cover exactly that pattern's rows of the residual before
        # it, in order, in parts of step rows and a last one of at most
        # step
        step = max(1, mebf.boolmat._BLOCK_BYTES // x._packed.shape[1])
        union = RowGroups(*x.shape)
        dense = x.to_dense()
        for l in range(result.k - (result.k == k_max)):
            rows, cols = pattern(result, l)
            assert 0 < len(rows) < x.n_rows
            parts = []
            while sum(map(len, parts)) < len(rows):
                parts.append(ops.pop(0)[1])
            assert [len(p) for p in parts[:-1]] == [step] * (len(parts) - 1)
            assert len(parts[-1]) <= step
            residual = dense[rows] & (1 - union_dense(union)[rows])
            assert np.array_equal(np.vstack(parts),
                                  np.packbits(residual, axis=1))
            union.add(rows, cols)
        assert ops == []
        if step < 1000:
            assert max(result.A.to_dense().sum(axis=0)) > step

    @pytest.mark.parametrize("name", sorted(VIEW_INSTANCES))
    def test_rows_are_unpacked_once_per_column_anchor(self, name,
                                                      monkeypatch):
        # a pattern's row indices are found where it is grown; no kernel
        # unpacks a row mask again, and A is stacked from its packed
        # columns in one unpack, not one per column
        spec, t, k_max = VIEW_INSTANCES[name]
        x, _, _ = simulate(spec)
        unpacked, anchors = [], []
        to_dense, grow = BinaryVector.to_dense, mebf.factorize._grow

        def recording_to_dense(vector):
            unpacked.append(vector)
            return to_dense(vector)

        def recording_grow(x_res, t, anchor_col, anchor_row):
            anchors.append(anchor_col)
            return grow(x_res, t, anchor_col, anchor_row)

        monkeypatch.setattr(BinaryVector, "to_dense", recording_to_dense)
        monkeypatch.setattr(mebf.factorize, "_grow", recording_grow)
        result = mebf_factorize(x, MebfConfig(t=t, k_max=k_max))
        monkeypatch.undo()

        assert result.k > 1
        column_anchors = [a for a in anchors if a is not None]
        assert len(unpacked) == len(column_anchors)
        assert all(u is a for u, a in zip(unpacked, column_anchors))


def spec_ranks(view):
    """Every rank of the row order, or on more than 1000 rows (where each
    read costs O(n)) the ranks the finders read and the active block's
    edge."""
    n = len(view.row_totals)
    if n <= 1000:
        return list(range(n))
    read = (0, 1, (view.n_active + 1) // 2 - 1, view.n_active - 1,
            view.n_active, n - 1)
    return sorted({r for r in read if 0 <= r < n})


class TestFactorResult:
    def test_rejects_increasing_cost_history(self):
        with pytest.raises(ValueError, match="non-increasing"):
            FactorResult(
                A=BinaryMatrix.from_dense([[1, 0], [1, 1]]),
                B=BinaryMatrix.from_dense([[1, 1], [0, 1]]),
                cost_history=(1, 2), iterations=2,
                weak_signal_uses=0, residual_history=(2, 1))

    def test_rejects_stalled_residual(self):
        with pytest.raises(ValueError, match="strictly decrease"):
            FactorResult(
                A=BinaryMatrix.from_dense([[1, 0], [1, 1]]),
                B=BinaryMatrix.from_dense([[1, 1], [0, 1]]),
                cost_history=(2, 1), iterations=2,
                weak_signal_uses=0, residual_history=(2, 2))

    def test_rejects_mismatched_history_length(self):
        with pytest.raises(ValueError, match="length"):
            FactorResult(
                A=BinaryMatrix.from_dense([[1], [1]]),
                B=BinaryMatrix.from_dense([[1, 1]]),
                cost_history=(2, 1), iterations=1,
                weak_signal_uses=0, residual_history=(0,))

    def test_rejects_factors_that_disagree(self):
        with pytest.raises(ValueError, match="factor shapes disagree"):
            FactorResult(
                A=BinaryMatrix.from_dense([[1, 0], [1, 1]]),
                B=BinaryMatrix.from_dense([[1, 1]]),
                cost_history=(2, 1), iterations=2,
                weak_signal_uses=0, residual_history=(2, 1))

    def test_pattern_pairing(self):
        mat = BinaryMatrix.from_dense([[1, 1, 0, 0], [1, 1, 0, 0],
                                       [0, 0, 1, 1], [0, 0, 1, 1]])
        result = mebf_factorize(mat, MebfConfig(t=0.5, k_max=2))
        a, b = result.A.to_dense(), result.B.to_dense()
        recon = np.zeros(mat.shape, np.uint8)
        for l in range(result.k):
            recon |= np.outer(a[:, l], b[l])
        assert BinaryMatrix.from_dense(recon) == bool_product(result.A,
                                                              result.B)


def insert_zeros(dense, rows, cols):
    """dense with zero rows inserted before the given row positions and zero
    columns before the given column positions (positions of dense, in any
    order, repeats allowed), and the indices of its own lines in the
    result."""
    padded = np.insert(np.insert(dense, sorted(rows), 0, axis=0), sorted(cols),
                       0, axis=1)
    kept = [np.delete(np.arange(size + len(pos)),
                      np.sort(pos).astype(np.intp) + np.arange(len(pos)))
            for size, pos in ((dense.shape[0], rows), (dense.shape[1], cols))]
    return padded, kept


def assert_same_run(dense, rows, cols, t, k_max, plain=None):
    """Zero lines inserted into x give the same run as x's, plain: equal
    traces, and A and B with zero rows and columns at the inserted places.
    Returns plain."""
    cfg = MebfConfig(t=t, k_max=k_max)
    plain = plain or mebf_factorize(BinaryMatrix.from_dense(dense), cfg)
    padded, (kept_rows, kept_cols) = insert_zeros(dense, rows, cols)
    run = mebf_factorize(BinaryMatrix.from_dense(padded), cfg)
    for field in ("cost_history", "residual_history", "iterations",
                  "weak_signal_uses"):
        assert getattr(run, field) == getattr(plain, field), field
    a, b = run.A.to_dense(), run.B.to_dense()
    assert np.array_equal(a[kept_rows], plain.A.to_dense())
    assert np.array_equal(b[:, kept_cols], plain.B.to_dense())
    assert a.sum() == a[kept_rows].sum() and b.sum() == b[:, kept_cols].sum()
    return plain


def assert_same_report(dense, a, b, truth, rows, cols):
    """Zero lines inserted into x, and alike into its factors A, B and the
    truth's U, V (rows of A and U at x's inserted rows, columns of B and V
    at its inserted columns), give the same report from factors:
    ``per_column_coverage`` gains zeros at the inserted columns, density
    keeps its numerator over the new line count, and every other field is
    equal, the cost trace among them."""

    def report(pad_rows, pad_cols):
        x, a_mat, b_mat, u, v = (BinaryMatrix.from_dense(d) for d in (
            insert_zeros(dense, pad_rows, pad_cols)[0],
            insert_zeros(a, pad_rows, [])[0],
            insert_zeros(b, [], pad_cols)[0],
            insert_zeros(truth[0], pad_rows, [])[0],
            insert_zeros(truth[1], [], pad_cols)[0]))
        return report_from_factors(x, a_mat, b_mat, (u, v))

    plain, padded = report([], []), report(rows, cols)
    assert list(padded) == list(plain)
    lines = sum(dense.shape), sum(dense.shape) + len(rows) + len(cols)
    for key, value in plain.items():
        if key == "per_column_coverage":
            value = np.insert(value, sorted(cols), 0).tolist()
        elif key == "density":
            value = pytest.approx(value * lines[0] / lines[1], rel=1e-12)
        assert padded[key] == value, key
    return plain


class TestLayoutInvariance:
    """An all-zero line is never active, never anchors and is never taken
    by growth, and the UTL order keeps the original relative order of
    ties; so zero rows and columns inserted anywhere leave the run as it
    was.  An inserted column moves every later bit of each row to another
    bit and byte, and an inserted row moves every part boundary, so each
    packed kernel is checked against itself at another alignment.  A
    report rebuilt from factors padded alike keeps its cost trace, so its
    pricing is checked the same way."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_zero_lines_anywhere_give_the_same_run(self, data):
        n = data.draw(st.integers(1, 39))
        m = data.draw(st.sampled_from((1, 5, 7, 8, 9, 30, 57, 63, 64, 65)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dense = (rng.random((n, m)) < data.draw(st.sampled_from(
            (0.03, 0.1, 0.3, 0.6)))).astype(np.uint8)
        rows, cols = (data.draw(st.lists(st.integers(0, size), max_size=8))
                      for size in (n, m))
        size = data.draw(st.sampled_from((None, 1, 64)))
        with block_bytes(size or mebf.boolmat._BLOCK_BYTES):
            assert_same_run(dense, rows, cols,
                            data.draw(st.floats(0.05, 0.95)),
                            data.draw(st.integers(1, 9)))

    @pytest.mark.parametrize("name", ["2000s3", "tall_weak"])
    def test_zero_columns_at_column_0(self, name):
        # 1 to 7 zero columns at column 0 move every bit of every row
        spec, t, k_max = {
            "2000s3": (SimulationSpec(n=2000, m=2000, k=5, p0=0.2, p=0.01,
                                      seed=3), 0.8, 10),
            "tall_weak": VIEW_INSTANCES["tall"]}[name]
        x, _, _ = simulate(spec)
        dense, plain = x.to_dense(), None
        for zeros in range(1, 8):
            plain = assert_same_run(dense, [], [0] * zeros, t, k_max, plain)
        assert plain.k == k_max
        assert plain.weak_signal_uses == (name == "tall_weak")

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_zero_lines_anywhere_give_the_same_report(self, data):
        n = data.draw(st.integers(1, 39))
        m = data.draw(st.sampled_from((1, 5, 7, 8, 9, 30, 57, 63, 64, 65)))
        k, k_truth = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        density = data.draw(st.sampled_from((0.03, 0.1, 0.3, 0.6)))
        dense, a, b, u, v = ((rng.random(shape) < density).astype(np.uint8)
                             for shape in ((n, m), (n, k), (k, m),
                                           (n, k_truth), (k_truth, m)))
        rows, cols = (data.draw(st.lists(st.integers(0, size), max_size=8))
                      for size in (n, m))
        size = data.draw(st.sampled_from((None, 1, 64)))
        with block_bytes(size or mebf.boolmat._BLOCK_BYTES):
            assert_same_report(dense, a, b, (u, v), rows, cols)

    def test_zero_columns_at_column_0_give_the_same_report(self):
        # the 2000 x 2000 s3 run, one zero row at row 0 (every part
        # boundary moves) and 1 to 7 zero columns at column 0
        spec = SimulationSpec(n=2000, m=2000, k=5, p0=0.2, p=0.01, seed=3)
        x, u, v = simulate(spec)
        result = mebf_factorize(x, MebfConfig(t=0.8, k_max=10))
        dense, a, b = x.to_dense(), result.A.to_dense(), result.B.to_dense()
        for zeros in range(1, 8):
            plain = assert_same_report(dense, a, b, (u.to_dense(),
                                                     v.to_dense()),
                                       [0], [0] * zeros)
        assert plain["cost_history"] == list(result.cost_history)
        assert plain["pattern_count"] == 10
