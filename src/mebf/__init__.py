"""Boolean matrix factorization toolkit.

Median-expansion pattern mining over bit-packed binary matrices, with a
seeded simulation generator, evaluation metrics, text-format matrix I/O,
and a batch CLI.  The loop's kernels, among them the UTL view and the
entrywise operations, are in :mod:`mebf.boolmat`.
"""

from .boolmat import BinaryMatrix, BinaryVector, bool_product
from .factorize import (
    FactorResult,
    MebfConfig,
    bidirectional_growth,
    mebf_factorize,
    weak_signal_detection,
)
from .matio import (
    FORMATS,
    MatrixFormatError,
    RealMatrix,
    binarize,
    mask_denoise,
    read_matrix,
    write_matrix,
)
from .metrics import (
    MetricsReport,
    UndefinedMetricError,
    build_report,
    coverage_rate,
    density,
    reconstruction_error,
    report_from_factors,
)
from .simulate import (
    SimulatedInstance,
    SimulationSpec,
    preset_grid,
    replicate_seed,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "BinaryVector",
    "FORMATS",
    "FactorResult",
    "MatrixFormatError",
    "MebfConfig",
    "MetricsReport",
    "RealMatrix",
    "SimulatedInstance",
    "SimulationSpec",
    "UndefinedMetricError",
    "bidirectional_growth",
    "binarize",
    "bool_product",
    "build_report",
    "coverage_rate",
    "density",
    "mask_denoise",
    "mebf_factorize",
    "preset_grid",
    "read_matrix",
    "reconstruction_error",
    "replicate_seed",
    "report_from_factors",
    "simulate",
    "weak_signal_detection",
    "write_matrix",
]
