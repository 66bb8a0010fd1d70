"""Evaluation metrics and the consolidated run report.

Three ratio metrics are defined: reconstruction error (disagreement of the
estimated product with the ground-truth product, relative to the truth's
ones), density (average fill of the factor matrices), and coverage rate
(fraction of the input's ones reproduced by the product).  A metric whose
denominator is zero raises :class:`UndefinedMetricError`; report builders
turn that into an absent field plus a warning instead of serializing NaN.
A report is a plain dict, the JSON object ``mebf`` writes, in its key
order.  Both reports form the product of A and B with ``bool_product``,
and count its overlap with x or with the truth without forming it.  A
report rebuilt from factor files alone recovers the cost trace one
pattern at a time, pricing each against the union of the patterns before
it with ``RowGroups.gain``, as the factorization loop does.
"""

from __future__ import annotations

from .boolmat import BinaryMatrix, RowGroups, bool_product, elementwise_count
from .factorize import FactorResult

__all__ = [
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
    return elementwise_count("xor", truth, estimate) / denom


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
    return elementwise_count("and", x, recon) / denom


def _assemble(x: BinaryMatrix, a_mat: BinaryMatrix, b_mat: BinaryMatrix,
              cost_history: list[int],
              truth: tuple[BinaryMatrix, BinaryMatrix] | None) -> dict:
    """The report of factors A, B of x with this cost trace."""
    recon = bool_product(a_mat, b_mat)
    warnings: list[str] = []

    def defined(metric, *args) -> float | None:
        """The metric, or None with its warning recorded when undefined."""
        try:
            return metric(*args)
        except UndefinedMetricError as exc:
            warnings.append(str(exc))
            return None

    cov = defined(coverage_rate, x, recon)
    dens = defined(density, a_mat, b_mat)
    rec_err = None if truth is None else defined(
        reconstruction_error, bool_product(*truth), recon)

    ratios = (("reconstruction_error", rec_err), ("density", dens),
              ("coverage_rate", cov))
    report = {name: value for name, value in ratios if value is not None}
    # the last cost of the trace; with no patterns, every one of x
    report["final_cost"] = cost_history[-1] if cost_history else x.count()
    report["pattern_count"] = len(cost_history)
    report["cost_history"] = cost_history
    report["per_column_coverage"] = recon.col_sums().tolist()
    if warnings:
        report["warnings"] = warnings
    return report


def build_report(x: BinaryMatrix, result: FactorResult,
                 truth: tuple[BinaryMatrix, BinaryMatrix] | None = None
                 ) -> dict:
    """Report for a factorization result of x, as its JSON object.

    x must be the matrix that was factorized: the final cost is read from
    the result's cost trace, not recounted against x.  ``truth`` is the
    optional pair of planted factor matrices; providing it enables the
    reconstruction error.  A ratio that is undefined for the inputs is
    left out, and its reason is listed in ``warnings``.
    ``per_column_coverage`` holds the column sums of A∘B.  The keys come
    in a fixed order and no timing is recorded, so a report rebuilt from
    the written factor files dumps to the same bytes.
    """
    return _assemble(x, result.A, result.B, list(result.cost_history), truth)


def report_from_factors(x: BinaryMatrix, a_mat: BinaryMatrix,
                        b_mat: BinaryMatrix,
                        truth: tuple[BinaryMatrix, BinaryMatrix] | None = None
                        ) -> dict:
    """Report rebuilt from factor matrices alone.

    The cost trace is recovered as the cost of each prefix of patterns
    against x, which reproduces the trace recorded during factorization:
    from |x|, each pattern moves the cost by its ``RowGroups.gain``
    against the union of the patterns before it, then is added to it.
    The product of A and B is formed as ``build_report`` forms it.
    """
    if a_mat.n_cols != b_mat.n_rows:
        raise ValueError(
            f"factor shapes disagree: {a_mat.shape} vs {b_mat.shape}")
    if (a_mat.n_rows, b_mat.n_cols) != x.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs "
                         f"{(a_mat.n_rows, b_mat.n_cols)}")
    union = RowGroups(x.n_rows, x.n_cols)
    cost = x.count()
    history = []
    for l in range(a_mat.n_cols):
        pair = a_mat.col(l).nonzero(), b_mat.row(l)
        cost += union.gain(*pair, x)[0]
        union.add(*pair)
        history.append(cost)
    del union  # its groups are not held while the report is assembled
    return _assemble(x, a_mat, b_mat, history, truth)
