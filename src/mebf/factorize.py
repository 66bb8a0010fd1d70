"""Median-expansion factorization of binary matrices.

Each round arranges the residual matrix upper-triangular-like, grows a
rank-1 pattern out of the median column and median row of the active
block, and keeps whichever direction approximates the residual better.
When that pattern would raise the cost against the input, a weak-signal
fallback seeds a pattern from the overlap of the two densest columns or
rows instead.  For t >= 1/2 that never happens: every line a grown
pattern takes shares more than half of the anchor's ones, so its change
of cost is below (1 - 2t)|pattern| <= 0.  The run stops where the
fallback finds no candidate (``default_rng(111).random((11, 14)) < 0.2``
at t 0.1) or its candidate raises the cost too (``default_rng(30)``'s
24x40 draw of density 0.25 at t 0.3).  A candidate covers at least one
residual one: it takes its anchor's own line, of overlap ratio 1 > t.
Accepted patterns zero out the residual entries they cover, in place on
their own rows (``UtlView.clear``, the residual's only update).
``rank1_cost`` picks the direction by a change of cost read from the
pattern's rows only.  A pattern is the pair (row indices, packed column
mask); the indices are found once, where the pattern is grown, and every
kernel that reads its rows takes them.

No reconstruction is formed.  The accepted patterns are held as row groups
(``RowGroups``): rows in one group lie in the same patterns, so their row
of the reconstruction R is one packed row of a table.  Adding a pattern P
flips N = P AND NOT R, so ``RowGroups.gain`` prices P from X and the groups
alone: it covers c = |N and X| new ones of X, and the cost |X xor R| moves
by delta = |N| - 2c, where |N| sums over P's rows one popcount per group,
of P's columns AND NOT the group's row.

The row and column sums behind the arrangement are counted once per
factorization and then lowered by the ones each accepted pattern covers,
instead of being recounted over the whole residual every round.  The
arrangement itself is never sorted: the few lines a round reads (the
medians, and the two densest of each axis for the fallback) are selected
from the sums in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .boolmat import (
    BinaryMatrix,
    BinaryVector,
    RowGroups,
    UtlView,
    col_dot_counts,
    rank1_cost,
    row_dot_counts,
    utl_rearrange,
)

__all__ = [
    "FactorResult",
    "MebfConfig",
    "bidirectional_growth",
    "mebf_factorize",
    "weak_signal_detection",
]

# a pattern's ascending row indices and its packed column mask
Pattern = tuple[np.ndarray, BinaryVector]


@dataclass(frozen=True)
class MebfConfig:
    """Factorization knobs.

    t: similarity threshold in the open interval (0, 1); a column or row
       joins a pattern only when its overlap ratio with the anchor
       strictly exceeds t.
    k_max: maximum number of patterns to accept, an integer.
    """

    t: float
    k_max: int

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError(
                f"t must lie strictly between 0 and 1, got {self.t}")
        if not isinstance(self.k_max, Integral):
            raise ValueError(f"k_max must be an integer, got {self.k_max!r}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")


@dataclass(frozen=True)
class FactorResult:
    """Accepted patterns and the traces recorded while they accumulated.

    Pattern l is column l of A paired with row l of B.  ``cost_history``
    holds the cost against the input after each acceptance and never
    increases; ``residual_history`` holds the residual one-count after
    each acceptance and strictly decreases.  ``iterations`` counts growth
    attempts, which exceeds ``k`` by one when the run ended on a rejected
    candidate.  ``weak_signal_uses`` counts accepted patterns that came
    from the fallback finder.
    """

    A: BinaryMatrix
    B: BinaryMatrix
    cost_history: tuple[int, ...]
    iterations: int
    weak_signal_uses: int
    residual_history: tuple[int, ...]

    @property
    def k(self) -> int:
        """The number of accepted patterns: the columns of A."""
        return self.A.n_cols

    def __post_init__(self):
        if self.A.n_cols != self.B.n_rows:
            raise ValueError("factor shapes disagree with the pattern count")
        if len(self.cost_history) != self.k:
            raise ValueError("cost history length must equal k")
        if any(a < b for a, b in zip(self.cost_history,
                                     self.cost_history[1:])):
            raise ValueError("cost history must be non-increasing")
        if any(a <= b for a, b in zip(self.residual_history,
                                      self.residual_history[1:])):
            raise ValueError("residual history must strictly decrease")


def _grow(x_res: BinaryMatrix, t: float, anchor_col: BinaryVector | None,
          anchor_row: BinaryVector | None) -> Pattern | None:
    """Grow each given anchor along the other axis; keep the cheaper pattern.

    A column anchor (a vector over the rows) takes every column whose
    overlap ratio with it strictly exceeds t, and a row anchor every such
    row.  Returns the candidate that costs less against the residual, the
    column pattern on ties, or None when no anchor is given.
    """
    candidates: list[Pattern] = []
    if anchor_col is not None:
        rows = anchor_col.nonzero()
        members = col_dot_counts(x_res, rows) / len(rows) > t
        candidates.append((rows, BinaryVector.from_dense(members)))
    if anchor_row is not None:
        members = row_dot_counts(x_res, anchor_row) / anchor_row.count() > t
        candidates.append((np.flatnonzero(members), anchor_row))
    if not candidates:
        return None
    return min(candidates, key=lambda pair: rank1_cost(*pair, x_res))


def _overlap(u: BinaryVector, v: BinaryVector) -> BinaryVector | None:
    """The AND of two lines, or None when they share no one."""
    both = u & v
    return both if both.count() else None


def bidirectional_growth(view: UtlView, t: float) -> Pattern | None:
    """Grow a pattern from the median column and row of the residual.

    In the residual's upper-triangular-like view the median active column
    anchors a column pattern (columns whose overlap ratio with the anchor
    exceeds t) and the median active row anchors a row pattern.  Returns
    whichever costs less against the residual as (ascending row indices,
    column mask), the column pattern on ties, or None when the residual
    has no ones.
    """
    x_res = view.x
    n_active, m_active = view.n_active, view.m_active
    if n_active == 0:
        return None

    # the active columns are the last m_active of the column order
    med_col = view.col_at(x_res.n_cols - m_active + (m_active + 1) // 2 - 1)
    med_row = view.row_at((n_active + 1) // 2 - 1)
    return _grow(x_res, t, x_res.col(med_col), x_res.row(med_row))


def weak_signal_detection(view: UtlView, t: float) -> Pattern | None:
    """Seed a pattern from the overlap of the two densest columns or rows.

    Each candidate anchors on the AND of the two densest lines along one
    axis and grows along the other axis exactly like bidirectional growth.
    A candidate is skipped when its axis has fewer than two active lines
    or the overlap is empty.  Returns the cheaper candidate against the
    residual (the column-seeded one on ties), or None when both are
    skipped.
    """
    x_res = view.x
    anchor_col = anchor_row = None
    if view.m_active >= 2:
        m = x_res.n_cols
        anchor_col = _overlap(x_res.col(view.col_at(m - 1)),
                              x_res.col(view.col_at(m - 2)))
    if view.n_active >= 2:
        anchor_row = _overlap(x_res.row(view.row_at(0)),
                              x_res.row(view.row_at(1)))
    return _grow(x_res, t, anchor_col, anchor_row)


def mebf_factorize(x: BinaryMatrix, cfg: MebfConfig) -> FactorResult:
    """Factorize x into at most cfg.k_max rank-1 patterns.

    The loop grows one pattern per round from the residual and accepts it
    while the cost against x does not increase (the first pattern is always
    accepted).  It ends at the budget, on an empty residual, or at one of
    the fallback's two stops.  The cost and the residual one-count are
    running integers, moved by each pattern's delta and c rather than
    recounted over the whole matrix (the module docstring states the stops,
    delta and c).  The residual lives in its view, which both pattern
    finders of a round share; ``view.clear`` updates its line sums from the
    pattern's rows.
    """
    if x.n_rows < 1 or x.n_cols < 1:
        raise ValueError(f"matrix must have at least one row and one "
                         f"column, got {x.shape}")

    view = utl_rearrange(x)  # the view clears its own copy; x is unchanged
    accepted = RowGroups(x.n_rows, x.n_cols)
    # the empty factorization misses every one of x
    best_cost = residual_count = x.count()
    row_parts: list[BinaryVector] = []
    col_parts: list[BinaryVector] = []
    cost_history: list[int] = []
    residual_history: list[int] = []
    iterations = 0
    weak_uses = 0

    while residual_count:
        iterations += 1
        pair = bidirectional_growth(view, cfg.t)
        delta, covered = accepted.gain(*pair, x)
        from_weak = False

        if row_parts and delta > 0:
            pair = weak_signal_detection(view, cfg.t)
            if pair is None:
                break
            delta, covered = accepted.gain(*pair, x)
            if delta > 0:
                break
            from_weak = True

        # covered >= 1: every candidate takes its anchor's line (ratio 1 > t;
        # the fallback's overlap lies in both lines), whose ones are residual
        # ones.

        # the rows are kept packed until A is stacked: 1 bit per row of x,
        # where the indices would hold 8 bytes per row of the pattern
        row_parts.append(BinaryVector.from_dense(
            np.bincount(pair[0], minlength=x.n_rows) > 0))
        col_parts.append(pair[1])
        best_cost += delta
        residual_count -= covered
        cost_history.append(best_cost)
        residual_history.append(residual_count)
        weak_uses += from_weak
        if len(row_parts) == cfg.k_max:
            break  # nothing reads the view or the groups after this
        view.clear(*pair)
        accepted.add(*pair)

    return FactorResult(
        A=BinaryMatrix.from_columns(row_parts, x.n_rows),
        B=BinaryMatrix.from_rows(col_parts, x.n_cols),
        cost_history=tuple(cost_history),
        iterations=iterations,
        weak_signal_uses=weak_uses,
        residual_history=tuple(residual_history),
    )
