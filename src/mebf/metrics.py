"""Evaluation metrics and the consolidated run report.

Three ratio metrics are defined: reconstruction error (disagreement of the
estimated product with the ground-truth product, relative to the truth's
ones), density (average fill of the factor matrices), and coverage rate
(fraction of the input's ones reproduced by the product).  A metric whose
denominator is zero raises :class:`UndefinedMetricError`; report builders
turn that into an absent field plus a warning instead of serializing NaN.
A report rebuilt from factor files alone recovers the cost trace with the
factorization loop's own pricing, ``rank1_gain``, one pattern at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolmat import (BinaryMatrix, bool_product, elementwise, or_pattern,
                      rank1_gain)
from .factorize import FactorResult

__all__ = [
    "MetricsReport",
    "UndefinedMetricError",
    "build_report",
    "coverage_rate",
    "density",
    "reconstruction_error",
    "report_from_factors",
]


class UndefinedMetricError(ValueError):
    """A metric's denominator is zero for the given inputs."""


def reconstruction_error(truth: BinaryMatrix,
                         estimate: BinaryMatrix) -> float:
    """Disagreement between the true and estimated products.

    Takes the two Boolean products (e.g. ``bool_product(U, V)`` and
    ``bool_product(A, B)``), not the (possibly noisy) observed matrix, and
    counts their disagreement relative to the number of ones in the truth.
    Can exceed 1 when the estimate covers far more than the truth.
    """
    denom = truth.count()
    if denom == 0:
        raise UndefinedMetricError(
            "reconstruction_error undefined: true product has no ones")
    return elementwise("xor", truth, estimate).count() / denom


def density(a_mat: BinaryMatrix, b_mat: BinaryMatrix) -> float:
    """Average fill of the factors: (|A| + |B|) / ((n + m) * k)."""
    if a_mat.n_cols != b_mat.n_rows:
        raise ValueError(
            f"factor shapes disagree: {a_mat.shape} vs {b_mat.shape}")
    k = a_mat.n_cols
    if k == 0:
        raise UndefinedMetricError(
            "density undefined: factorization has no patterns")
    return (a_mat.count() + b_mat.count()) / ((a_mat.n_rows + b_mat.n_cols)
                                              * k)


def coverage_rate(x: BinaryMatrix, recon: BinaryMatrix) -> float:
    """Fraction of x's ones reproduced by recon, the product of A and B."""
    denom = x.count()
    if denom == 0:
        raise UndefinedMetricError("coverage_rate undefined: x has no ones")
    return elementwise("and", x, recon).count() / denom


@dataclass(frozen=True)
class MetricsReport:
    """Consolidated metrics for one factorization.

    Ratio metrics are None when undefined for the inputs, with the reason
    recorded in ``warnings``.  ``per_column_coverage`` holds the column
    sums of the reconstructed matrix.
    """

    final_cost: int
    pattern_count: int
    cost_history: tuple[int, ...]
    reconstruction_error: float | None = None
    density: float | None = None
    coverage_rate: float | None = None
    per_column_coverage: tuple[int, ...] | None = None
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """JSON-ready view with fixed key order; absent metrics are omitted.

        Reports carry no timing, so a report rebuilt from the written
        factor files is byte-identical to the original.
        """
        out: dict = {}
        if self.reconstruction_error is not None:
            out["reconstruction_error"] = self.reconstruction_error
        if self.density is not None:
            out["density"] = self.density
        if self.coverage_rate is not None:
            out["coverage_rate"] = self.coverage_rate
        out["final_cost"] = self.final_cost
        out["pattern_count"] = self.pattern_count
        out["cost_history"] = list(self.cost_history)
        if self.per_column_coverage is not None:
            out["per_column_coverage"] = list(self.per_column_coverage)
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def _assemble(x: BinaryMatrix, recon: BinaryMatrix, a_mat: BinaryMatrix,
              b_mat: BinaryMatrix, cost_history: tuple[int, ...],
              truth: tuple[BinaryMatrix, BinaryMatrix] | None
              ) -> MetricsReport:
    """The report of factors A, B of x, whose product is recon."""
    warnings: list[str] = []

    cov = None
    try:
        cov = coverage_rate(x, recon)
    except UndefinedMetricError as exc:
        warnings.append(str(exc))

    dens = None
    try:
        dens = density(a_mat, b_mat)
    except UndefinedMetricError as exc:
        warnings.append(str(exc))

    rec_err = None
    if truth is not None:
        try:
            rec_err = reconstruction_error(bool_product(*truth), recon)
        except UndefinedMetricError as exc:
            warnings.append(str(exc))

    return MetricsReport(
        # the last cost of the trace; with no patterns, every one of x
        final_cost=cost_history[-1] if cost_history else x.count(),
        pattern_count=a_mat.n_cols,
        cost_history=cost_history,
        reconstruction_error=rec_err,
        density=dens,
        coverage_rate=cov,
        per_column_coverage=tuple(int(c) for c in recon.col_sums()),
        warnings=tuple(warnings),
    )


def build_report(x: BinaryMatrix, result: FactorResult,
                 truth: tuple[BinaryMatrix, BinaryMatrix] | None = None
                 ) -> MetricsReport:
    """Report for a factorization result of x.

    x must be the matrix that was factorized: the final cost is read from
    the result's cost trace, not recounted against x.  ``truth`` is the
    optional pair of planted factor matrices; providing it enables the
    reconstruction error.
    """
    return _assemble(x, bool_product(result.A, result.B), result.A, result.B,
                     result.cost_history, truth)


def report_from_factors(x: BinaryMatrix, a_mat: BinaryMatrix,
                        b_mat: BinaryMatrix,
                        truth: tuple[BinaryMatrix, BinaryMatrix] | None = None
                        ) -> MetricsReport:
    """Report rebuilt from factor matrices alone.

    The cost trace is recovered as the cost of each prefix of patterns
    against x, which reproduces the trace recorded during factorization:
    from |x|, each pattern moves the cost by its ``rank1_gain`` against
    the product of the patterns before it, then is ORed into it, on its
    own rows only.  The last product is the product of A and B.
    """
    if a_mat.n_cols != b_mat.n_rows:
        raise ValueError(
            f"factor shapes disagree: {a_mat.shape} vs {b_mat.shape}")
    if (a_mat.n_rows, b_mat.n_cols) != x.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs "
                         f"{(a_mat.n_rows, b_mat.n_cols)}")
    recon = BinaryMatrix.zeros(x.n_rows, x.n_cols)
    cost = x.count()
    history = []
    for l in range(a_mat.n_cols):
        rows, cols = a_mat.col(l), b_mat.row(l)
        cost += rank1_gain(rows, cols, x, recon)[0]
        or_pattern(recon, rows, cols)
        history.append(cost)
    return _assemble(x, recon, a_mat, b_mat, tuple(history), truth)
