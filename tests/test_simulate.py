"""Generator tests: reproducibility, rates, the flip rule, presets."""

import re
import tracemalloc

import numpy as np
import pytest

from mebf.boolmat import BinaryMatrix, bool_product, elementwise
from mebf.simulate import (
    SimulationSpec,
    preset_grid,
    replicate_seed,
    simulate,
)


def test_no_patterns_no_noise_is_all_zero():
    inst = simulate(SimulationSpec(n=8, m=9, k=3, p0=0.0, p=0.0, seed=1))
    assert inst.X.count() == 0


def test_full_density_no_noise_is_all_ones():
    inst = simulate(SimulationSpec(n=8, m=9, k=3, p0=1.0, p=0.0, seed=1))
    assert inst.X.count() == 8 * 9


def flips(inst):
    """The noise mask of an instance: where X differs from U times V."""
    return elementwise("xor", inst.X, bool_product(inst.U, inst.V))


def test_noise_free_equals_product():
    inst = simulate(SimulationSpec(n=20, m=30, k=4, p0=0.3, p=0.0, seed=9))
    assert inst.X == bool_product(inst.U, inst.V)


def test_noise_free_keeps_the_factors_of_a_noisy_draw():
    # at p = 0 the mask is not drawn; U and V come first in the stream, so
    # they are the factors any rate would give
    quiet = simulate(SimulationSpec(n=40, m=70, k=4, p0=0.3, p=0.0, seed=5))
    noisy = simulate(SimulationSpec(n=40, m=70, k=4, p0=0.3, p=0.2, seed=5))
    assert quiet.U == noisy.U and quiet.V == noisy.V
    assert quiet.X == bool_product(noisy.U, noisy.V)


def test_reproducible():
    spec = SimulationSpec(n=25, m=40, k=5, p0=0.25, p=0.02, seed=1234)
    first, second = simulate(spec), simulate(spec)
    assert first.X == second.X
    assert first.U == second.U
    assert first.V == second.V


def test_different_seeds_differ():
    base = SimulationSpec(n=25, m=40, k=5, p0=0.25, p=0.02, seed=1)
    other = SimulationSpec(n=25, m=40, k=5, p0=0.25, p=0.02, seed=2)
    assert simulate(base).X != simulate(other).X


def test_flip_rule():
    spec = SimulationSpec(n=30, m=30, k=4, p0=0.3, p=0.1, seed=77)
    inst = simulate(spec)
    # the mask is the third draw, after U's and V's
    rng = np.random.default_rng(spec.seed)
    rng.random((spec.n, spec.k))
    rng.random((spec.k, spec.m))
    mask = rng.random((spec.n, spec.m)) < spec.p
    assert flips(inst) == BinaryMatrix.from_dense(mask)
    # spelled out entrywise: X agrees with the product exactly off the mask
    product = bool_product(inst.U, inst.V).to_dense()
    observed = inst.X.to_dense()
    assert np.array_equal(observed[~mask], product[~mask])
    assert np.array_equal(observed[mask], 1 - product[mask])


@pytest.mark.parametrize("m, n", [
    *((m, n) for m in (1, 9, 65) for n in (1, 254, 255, 256, 511)),
    # the mask's row blocks cut inside and at their edges: 128 rows at the
    # 2**13-draw floor, 10 rows at n*m/64 draws, 2 rows at the 2**17 cap
    *((64, n) for n in (127, 128, 129, 385)),
    *((1024, n) for n in (640, 641, 649)),
    *((65536, n) for n in (130, 131)),
    # a row longer than a block is the one-row floor, below the 2**13
    # floor and below n*m/64
    *((32768, n) for n in (3, 4, 5, 9)),
    *((131073, n) for n in (1, 2, 3)),
    (65536, 9),
])
def test_draws_match_one_shot_reference(m, n):
    assert_matches_one_shot(SimulationSpec(n=n, m=m, k=3, p0=0.3, p=0.4,
                                           seed=n * 100 + m))


@pytest.mark.parametrize("n", [2047, 2048, 2049, 6145, 8192, 8193, 8255])
def test_tall_factor_draws_match_one_shot_reference(n):
    # U in 128-row blocks, at the 2**13-draw floor below 8192 rows and at
    # n*k/64 draws from there, cut inside and at their edges
    assert_matches_one_shot(SimulationSpec(n=n, m=2, k=64, p0=0.3, p=0.4,
                                           seed=n))


def assert_matches_one_shot(spec):
    # the reference draws each matrix in one call: U, then V, then the mask
    rng = np.random.default_rng(spec.seed)
    u = BinaryMatrix.from_dense(rng.random((spec.n, spec.k)) < spec.p0)
    v = BinaryMatrix.from_dense(rng.random((spec.k, spec.m)) < spec.p0)
    e = BinaryMatrix.from_dense(rng.random((spec.n, spec.m)) < spec.p)
    inst = simulate(spec)
    assert inst.U == u
    assert inst.V == v
    assert inst.X == elementwise("xor", bool_product(u, v), e)


@pytest.mark.parametrize("n, m, k, p0, p, bound", [
    pytest.param(2000, 2000, 5, 0.2, 0.01, 2.13, id="2000-2.13"),
    pytest.param(1000, 1000, 5, 0.2, 0.01, 2.11, id="1000-2.11"),
    pytest.param(2000, 2000, 5, 0.2, 0.0, 1.26, id="2000-noise_free-1.26"),
    pytest.param(1000, 1000, 5, 0.2, 0.0, 1.35, id="1000-noise_free-1.35"),
    pytest.param(100000, 64, 20, 0.2, 0.0, 1.80,
                 id="100000x64-noise_free-1.80"),
    pytest.param(16000, 500, 12, 0.06, 0.003, 2.16, id="16000x500-2.16"),
])
def test_peak_memory_is_a_small_multiple_of_the_output(n, m, k, p0, p,
                                                       bound):
    # measured at 2.126x, 2.107x and 2.150x with noise, where X and one
    # block of its flip's draws set the peak, at 1.251x and 1.341x without,
    # and at 1.795x on the tall, narrow instance, where U's draw set the
    # peak at 22.5x while it was drawn whole; lower the bounds as simulate
    # allocates less, never raise them
    spec = SimulationSpec(n=n, m=m, k=k, p0=p0, p=p, seed=3)
    # warm up: a process's first call allocates about 0.8 MB more
    simulate(SimulationSpec(n=3, m=3, k=1, p0=0.2, p=p, seed=3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = simulate(spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound * inst.X._packed.nbytes


def test_empirical_rates_within_three_standard_errors():
    # U and the mask both carry >= 1e5 entries for this spec
    spec = SimulationSpec(n=1000, m=100, k=100, p0=0.37, p=0.08, seed=5)
    inst = simulate(spec)
    for mat, rate, count in ((inst.U, spec.p0, spec.n * spec.k),
                             (inst.V, spec.p0, spec.k * spec.m),
                             (flips(inst), spec.p, spec.n * spec.m)):
        stderr = (rate * (1 - rate) / count) ** 0.5
        assert abs(mat.count() / count - rate) < 3 * stderr


@pytest.mark.parametrize("bad", [
    dict(n=0, m=5, k=1, p0=0.5, p=0.0, seed=0),
    dict(n=5, m=0, k=1, p0=0.5, p=0.0, seed=0),
    dict(n=5, m=5, k=0, p0=0.5, p=0.0, seed=0),
    dict(n=5, m=5, k=1, p0=-0.1, p=0.0, seed=0),
    dict(n=5, m=5, k=1, p0=0.5, p=1.5, seed=0),
    dict(n=5, m=5, k=1, p0=0.5, p=0.0, seed=-1),
])
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        SimulationSpec(**bad)


@pytest.mark.parametrize("field", ["n", "m", "k", "seed"])
@pytest.mark.parametrize("value", [10.5, 2.0, 1.5, np.float64(3), "3", None])
def test_spec_fields_must_be_integers(field, value):
    params = dict(n=10, m=10, k=2, p0=0.2, p=0.0, seed=0)
    params[field] = value
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        SimulationSpec(**params)


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_integer_spec_fields_are_kept(value):
    # kept as Python ints: a uint8 n or m would overflow in simulate's
    # block arithmetic
    spec = SimulationSpec(n=value, m=value, k=value, p0=0.5, p=0.1,
                          seed=value)
    assert all(type(getattr(spec, f)) is int for f in ("n", "m", "k", "seed"))
    inst = simulate(spec)
    assert inst.X.shape == (3, 3) and inst.U.shape == (3, 3)
    assert inst == simulate(SimulationSpec(n=3, m=3, k=3, p0=0.5, p=0.1,
                                           seed=3))


def test_replicate_seed_offsets():
    assert replicate_seed(100, 0) == 100
    assert replicate_seed(100, 7) == 107


def test_preset_grid_shape():
    grid = preset_grid()
    assert len(grid) == 8
    assert len({sc["name"] for sc in grid}) == 8
    assert all(sc["k"] == 5 for sc in grid)
    assert sorted({(sc["n"], sc["m"]) for sc in grid}) == [(100, 100),
                                                           (1000, 1000)]
    assert sorted({sc["p0"] for sc in grid}) == [0.2, 0.4]
    assert sorted({sc["p"] for sc in grid}) == [0.0, 0.01]
    small = [sc for sc in grid if sc["n"] == 100]
    assert {sc["name"] for sc in small} == {
        "100x100_d0.2_n0", "100x100_d0.2_n0.01",
        "100x100_d0.4_n0", "100x100_d0.4_n0.01"}
