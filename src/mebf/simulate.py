"""Seeded generation of planted-pattern binary matrices with flip noise.

An instance is assembled as the Boolean product of two Bernoulli factor
matrices, with an independent Bernoulli mask flipping entries of the
product.  Everything is drawn from one seeded stream in a fixed order, so
an instance is a pure function of its spec.  Each matrix is drawn in row
blocks of at most 1 MiB of float64.  An instance keeps X, U and V, not the
mask, which is drawn only when the noise rate is positive: at p = 0, X is
the product itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .boolmat import BinaryMatrix, bool_product, elementwise

__all__ = [
    "SimulatedInstance",
    "SimulationSpec",
    "preset_grid",
    "replicate_seed",
    "simulate",
]


@dataclass(frozen=True)
class SimulationSpec:
    """Dimensions, planted-pattern count, rates, and the seed.

    p0 is the per-entry density of the planted factors; p is the rate of
    the noise mask that flips entries of their product.  n, m, k and seed
    are integers, kept as Python ints.
    """

    n: int
    m: int
    k: int
    p0: float
    p: float
    seed: int

    def __post_init__(self):
        for name in ("n", "m", "k", "seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n < 1 or self.m < 1:
            raise ValueError(f"dimensions must be positive, got "
                             f"{self.n}x{self.m}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        for name, rate in (("p0", self.p0), ("p", self.p)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SimulatedInstance:
    """Observed matrix X plus the planted factors it was assembled from.

    X equals the Boolean product of U and V except where the noise mask
    flipped it; that mask is ``elementwise("xor", X, bool_product(U, V))``.
    """

    X: BinaryMatrix
    U: BinaryMatrix
    V: BinaryMatrix


def simulate(spec: SimulationSpec) -> SimulatedInstance:
    """Draw one instance from the spec, bit-reproducibly.

    The stream is NumPy's default generator (PCG64) seeded with
    ``spec.seed``.  Sampling order is fixed: U row-major, then V
    row-major, then the flip mask row-major, each entry one uniform draw
    compared against the rate.  At p = 0 the mask is all zero and is not
    drawn: the stream ends after V, so U, V and X are the same as with it.
    """
    rng = np.random.default_rng(spec.seed)
    u = _draw(rng, spec.n, spec.k, spec.p0)
    v = _draw(rng, spec.k, spec.m, spec.p0)
    if spec.p == 0:
        return SimulatedInstance(X=bool_product(u, v), U=u, V=v)
    noise = _draw(rng, spec.n, spec.m, spec.p)
    # the product only now that the draws are freed: formed before them,
    # it would add to their peak
    x = elementwise("xor", bool_product(u, v), noise)
    return SimulatedInstance(X=x, U=u, V=v)


def _draw(rng: np.random.Generator, n_rows: int, n_cols: int,
          rate: float) -> BinaryMatrix:
    """Bernoulli(rate) entries in row blocks of at most 1 MiB of float64,
    packed as drawn: the generator fills row-major, so the draws match one
    (n_rows, n_cols) call without its temporary."""
    rows = max(1, 2**17 // n_cols)
    packed = np.empty((n_rows, (n_cols + 7) // 8), dtype=np.uint8)
    for start in range(0, n_rows, rows):
        block = packed[start:start + rows]
        block[:] = np.packbits(rng.random((len(block), n_cols)) < rate,
                               axis=1)
    return BinaryMatrix(n_rows, n_cols, packed)


def replicate_seed(base_seed: int, replicate: int) -> int:
    """Per-replicate seed of a batch: the base seed plus the index."""
    return base_seed + replicate


def preset_grid() -> list[dict]:
    """The standard benchmark grid as named parameter sets.

    Two square scales (100 and 1000), five planted patterns, two factor
    densities (0.2, 0.4), and two flip-noise rates (0, 0.01): eight
    scenarios.
    """
    grid = []
    for n in (100, 1000):
        for p0 in (0.2, 0.4):
            for p in (0.0, 0.01):
                grid.append({
                    "name": f"{n}x{n}_d{p0:g}_n{p:g}",
                    "n": n,
                    "m": n,
                    "k": 5,
                    "p0": p0,
                    "p": p,
                })
    return grid
