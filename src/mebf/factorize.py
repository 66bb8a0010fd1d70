"""Median-expansion factorization of binary matrices.

Each round arranges the residual matrix upper-triangular-like, grows a
rank-1 pattern out of the median column and median row of the active
block, and keeps whichever direction approximates the residual better.
When that pattern would raise the cost against the input, a weak-signal
fallback seeds a pattern from the overlap of the two densest columns or
rows instead.  Accepted patterns zero out the residual entries they cover.
A candidate is priced by ``rank1_gain``, its change to the cost |x xor
recon| read from its own rows; the report rebuilds its trace the same way.
The row and column sums behind the arrangement are counted once per
factorization and then lowered by the ones each accepted pattern covers,
instead of being recounted over the whole residual every round.  The
arrangement itself is never sorted: the few lines a round reads (the
medians, and the two densest of each axis for the fallback) are selected
from the sums in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolmat import (
    BinaryMatrix,
    BinaryVector,
    UtlView,
    col_dot_counts,
    complement,
    elementwise,
    rank1_cost,
    rank1_gain,
    rank1_product,
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

Pattern = tuple[BinaryVector, BinaryVector]


@dataclass(frozen=True)
class MebfConfig:
    """Factorization knobs.

    t: similarity threshold in the open interval (0, 1); a column or row
       joins a pattern only when its overlap ratio with the anchor
       strictly exceeds t.
    k_max: maximum number of patterns to accept.
    """

    t: float
    k_max: int

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError(
                f"t must lie strictly between 0 and 1, got {self.t}")
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
    k: int
    iterations: int
    weak_signal_uses: int
    residual_history: tuple[int, ...]

    def __post_init__(self):
        if self.A.n_cols != self.k or self.B.n_rows != self.k:
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
        members = col_dot_counts(x_res, anchor_col) / anchor_col.count() > t
        candidates.append((anchor_col, BinaryVector.from_dense(members)))
    if anchor_row is not None:
        members = row_dot_counts(x_res, anchor_row) / anchor_row.count() > t
        candidates.append((BinaryVector.from_dense(members), anchor_row))
    if not candidates:
        return None
    return min(candidates, key=lambda ab: rank1_cost(ab[0], ab[1], x_res))


def _overlap(u: BinaryVector, v: BinaryVector) -> BinaryVector | None:
    """The AND of two lines, or None when they share no one."""
    both = u & v
    return both if both.count() else None


def bidirectional_growth(x_res: BinaryMatrix, t: float,
                         view: UtlView) -> Pattern | None:
    """Grow a pattern from the median column and row of the residual.

    The residual is viewed upper-triangular-like; the median active column
    anchors a column pattern (columns whose overlap ratio with the anchor
    exceeds t) and the median active row anchors a row pattern.  Returns
    whichever costs less against the residual, the column pattern on ties,
    or None when the residual has no ones.  ``view`` must equal
    ``utl_rearrange(x_res)``.
    """
    if view.n_active == 0:
        return None

    # the active columns are the last m_active of the column order
    med_col = view.col_at(x_res.n_cols - view.m_active
                          + (view.m_active + 1) // 2 - 1)
    med_row = view.row_at((view.n_active + 1) // 2 - 1)
    return _grow(x_res, t, x_res.col(med_col), x_res.row(med_row))


def weak_signal_detection(x_res: BinaryMatrix, t: float,
                          view: UtlView) -> Pattern | None:
    """Seed a pattern from the overlap of the two densest columns or rows.

    Each candidate anchors on the AND of the two densest lines along one
    axis and grows along the other axis exactly like bidirectional growth.
    A candidate is skipped when its axis has fewer than two active lines
    or the overlap is empty.  Returns the cheaper candidate against the
    residual (the column-seeded one on ties), or None when both are
    skipped.  ``view`` is as in :func:`bidirectional_growth`.
    """
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
    while the cost against x does not increase (the first pattern is
    always accepted).  A rejected growth candidate triggers the
    weak-signal fallback; if that candidate is also rejected the run ends.
    Accepted patterns are flipped to zero in the residual, so the run also
    ends when the residual empties or the budget is reached.  The cost and
    the residual one-count are kept as running integers, moved by each
    pattern's ``rank1_gain`` rather than recounted over the whole matrix;
    the residual's view, which both pattern finders of a round share, is
    updated from the pattern's rows as well.
    """
    if x.n_rows < 1 or x.n_cols < 1:
        raise ValueError(f"matrix must have at least one row and one "
                         f"column, got {x.shape}")

    residual = x  # each update builds a new matrix; x is never written
    view = utl_rearrange(x)
    recon = BinaryMatrix.zeros(x.n_rows, x.n_cols)
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
        pair = bidirectional_growth(residual, cfg.t, view)
        delta, covered = rank1_gain(*pair, x, recon)
        from_weak = False

        if row_parts and delta > 0:
            pair = weak_signal_detection(residual, cfg.t, view)
            if pair is None:
                break
            delta, covered = rank1_gain(*pair, x, recon)
            if delta > 0:
                break
            from_weak = True

        if not covered:
            raise RuntimeError(
                "accepted pattern covered no residual ones; "
                "factorization cannot progress")
        row_parts.append(pair[0])
        col_parts.append(pair[1])
        best_cost += delta
        residual_count -= covered
        cost_history.append(best_cost)
        residual_history.append(residual_count)
        weak_uses += from_weak
        if len(row_parts) == cfg.k_max:
            break  # nothing reads the view, recon or residual after this
        view = view.cleared(residual, *pair)
        # each n x m temporary is dropped once used, so at most four n x m
        # matrices are live: residual, recon and the two being combined
        pattern = rank1_product(*pair)
        recon = elementwise("or", recon, pattern)
        keep = complement(pattern)
        del pattern
        residual = elementwise("and", residual, keep)
        del keep

    return FactorResult(
        A=BinaryMatrix.from_columns(row_parts, x.n_rows),
        B=BinaryMatrix.from_rows(col_parts, x.n_cols),
        cost_history=tuple(cost_history),
        k=len(row_parts),
        iterations=iterations,
        weak_signal_uses=weak_uses,
        residual_history=tuple(residual_history),
    )
