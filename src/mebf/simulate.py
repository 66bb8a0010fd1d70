"""Seeded generation of planted-pattern binary matrices with flip noise.

An instance is assembled as the Boolean product of two Bernoulli factor
matrices, with an independent Bernoulli mask flipping entries of the
product.  Everything is drawn from one seeded stream in a fixed order, so
an instance is a pure function of its spec.  One kernel flips U and V out
of zero matrices and X out of their product, in place a row block at a
time; no mask is kept, and none is drawn at p = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .boolmat import BinaryMatrix, bool_product

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

    X is the Boolean product of U and V, flipped in place by the noise
    mask; that mask is ``elementwise("xor", X, bool_product(U, V))``.
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
    u = _flip(rng, BinaryMatrix.zeros(spec.n, spec.k), spec.p0)
    v = _flip(rng, BinaryMatrix.zeros(spec.k, spec.m), spec.p0)
    x = bool_product(u, v)
    if spec.p > 0:
        _flip(rng, x, spec.p)
    return SimulatedInstance(X=x, U=u, V=v)


def _flip(rng: np.random.Generator, mat: BinaryMatrix,
          rate: float) -> BinaryMatrix:
    """XOR Bernoulli(rate) entries into mat in place and return it.  A row
    block takes n*m/64 draws, clamped to [2**13, 2**17], and one row at
    least: past the floor, no more float64 than mat's packed bytes.  The
    generator fills row-major, so the draws match one (n, m) call."""
    n_rows, n_cols = mat.shape
    draws = min(max(n_rows * n_cols // 64, 2**13), 2**17)
    rows = max(1, draws // n_cols)
    for start in range(0, n_rows, rows):
        block = mat._packed[start:start + rows]
        block ^= np.packbits(rng.random((len(block), n_cols)) < rate, axis=1)
    return mat


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
