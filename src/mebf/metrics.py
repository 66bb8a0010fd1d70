"""Evaluation metrics and the consolidated run report.

Three ratio metrics are defined: reconstruction error (disagreement of the
estimated product with the ground-truth product, relative to the truth's
ones), density (average fill of the factor matrices), and coverage rate
(fraction of the input's ones reproduced by the product).  A metric whose
denominator is zero raises :class:`UndefinedMetricError`; report builders
turn that into an absent field plus a warning instead of serializing NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolmat import BinaryMatrix, bool_product, elementwise, rank1_product
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


def reconstruction_error(u: BinaryMatrix, v: BinaryMatrix,
                         a_mat: BinaryMatrix, b_mat: BinaryMatrix) -> float:
    """Disagreement between the true and estimated products.

    Compares the two reconstructions, not the (possibly noisy) observed
    matrix, relative to the number of ones in the true product.  Can
    exceed 1 when the estimate covers far more than the truth.
    """
    truth = bool_product(u, v)
    estimate = bool_product(a_mat, b_mat)
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


def coverage_rate(x: BinaryMatrix, a_mat: BinaryMatrix,
                  b_mat: BinaryMatrix) -> float:
    """Fraction of x's ones reproduced by the Boolean product of A and B."""
    denom = x.count()
    if denom == 0:
        raise UndefinedMetricError("coverage_rate undefined: x has no ones")
    covered = elementwise("and", x, bool_product(a_mat, b_mat)).count()
    return covered / denom


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


def _assemble(x: BinaryMatrix, a_mat: BinaryMatrix, b_mat: BinaryMatrix,
              cost_history: tuple[int, ...],
              truth: tuple[BinaryMatrix, BinaryMatrix] | None
              ) -> MetricsReport:
    recon = bool_product(a_mat, b_mat)
    warnings: list[str] = []

    cov = None
    try:
        cov = coverage_rate(x, a_mat, b_mat)
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
            rec_err = reconstruction_error(truth[0], truth[1], a_mat, b_mat)
        except UndefinedMetricError as exc:
            warnings.append(str(exc))

    return MetricsReport(
        final_cost=elementwise("xor", x, recon).count(),
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

    ``truth`` is the optional pair of planted factor matrices; providing
    it enables the reconstruction error.
    """
    return _assemble(x, result.A, result.B, result.cost_history, truth)


def report_from_factors(x: BinaryMatrix, a_mat: BinaryMatrix,
                        b_mat: BinaryMatrix,
                        truth: tuple[BinaryMatrix, BinaryMatrix] | None = None
                        ) -> MetricsReport:
    """Report rebuilt from factor matrices alone.

    The cost trace is recovered as the cost of each prefix of patterns
    against x, which reproduces the trace recorded during factorization.
    """
    if a_mat.n_cols != b_mat.n_rows:
        raise ValueError(
            f"factor shapes disagree: {a_mat.shape} vs {b_mat.shape}")
    recon = BinaryMatrix.zeros(x.n_rows, x.n_cols)
    history = []
    for l in range(a_mat.n_cols):
        recon = elementwise(
            "or", recon, rank1_product(a_mat.col(l), b_mat.row(l)))
        history.append(elementwise("xor", x, recon).count())
    return _assemble(x, a_mat, b_mat, tuple(history), truth)
