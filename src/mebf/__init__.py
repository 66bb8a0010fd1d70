"""Boolean matrix factorization toolkit.

Median-expansion pattern mining over bit-packed binary matrices, with a
seeded simulation generator, evaluation metrics, text-format matrix I/O,
and a batch CLI.  The loop's kernels, among them the UTL view and the
entrywise operations, are in :mod:`mebf.boolmat`.
The root re-exports each module's ``__all__``, its one list of names.
"""

from . import factorize, matio, metrics
from . import simulate as _simulate
from .boolmat import BinaryMatrix, BinaryVector, bool_product
from .factorize import *
from .matio import *
from .metrics import *
from .simulate import *  # the function shadows its submodule

__version__ = "0.1.0"

__all__ = ["BinaryMatrix", "BinaryVector", "bool_product", *factorize.__all__,
           *matio.__all__, *metrics.__all__, *_simulate.__all__]
