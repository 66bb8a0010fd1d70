"""Acceptance suite: one test per release criterion.

Each criterion runs at its stated tolerance and prints one pass/fail
line (visible with ``pytest -s``); a FAIL line is followed by the usual
pytest failure detail.
"""

import functools
import itertools
import json
import time

import numpy as np
import pytest

from mebf.boolmat import BinaryMatrix, bool_product
from mebf.cli import main
from mebf.factorize import MebfConfig, mebf_factorize
from mebf.matio import RealMatrix, binarize, write_matrix
from mebf.metrics import (
    build_report,
    coverage_rate,
    density,
    reconstruction_error,
)
from mebf.simulate import SimulationSpec, replicate_seed, simulate
from reference import exhaustive_bmf, identity, naive_bool_product


def criterion(name, budget_s):
    """Enforce a wall-clock budget and print one PASS/FAIL line."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, (
                    f"{name} took {elapsed:.1f}s, budget {budget_s}s")
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
        return wrapper
    return decorate


def bits(n):
    return itertools.product((0, 1), repeat=n)


@criterion("1 kernel correctness", budget_s=10)
def test_criterion_1_kernel_correctness():
    mismatches = 0

    # exhaustive 2x2 x 2x2
    for a_rows in itertools.product(bits(2), repeat=2):
        a = BinaryMatrix.from_dense(list(a_rows))
        for b_rows in itertools.product(bits(2), repeat=2):
            b = BinaryMatrix.from_dense(list(b_rows))
            mismatches += bool_product(a, b) != naive_bool_product(a, b)

    # exhaustive 3x2 x 2x3
    for a_rows in itertools.product(bits(2), repeat=3):
        a = BinaryMatrix.from_dense(list(a_rows))
        for b_rows in itertools.product(bits(3), repeat=2):
            b = BinaryMatrix.from_dense(list(b_rows))
            mismatches += bool_product(a, b) != naive_bool_product(a, b)

    # 1000 random cases up to 64x64x8
    rng = np.random.default_rng(2001)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        k = int(rng.integers(1, 9))
        a = BinaryMatrix.from_dense(rng.random((n, k)) < rng.random())
        b = BinaryMatrix.from_dense(rng.random((k, m)) < rng.random())
        mismatches += bool_product(a, b) != naive_bool_product(a, b)

    assert mismatches == 0


@criterion("2 exact recovery", budget_s=5)
def test_criterion_2_exact_recovery():
    rng = np.random.default_rng(2002)
    thresholds = (0.3, 0.5, 0.7)
    n = m = 20

    failures = 0
    for _ in range(100):
        block_rows = rng.choice(n, size=int(rng.integers(1, n + 1)),
                                replace=False)
        block_cols = rng.choice(m, size=int(rng.integers(1, m + 1)),
                                replace=False)
        dense = np.zeros((n, m), np.uint8)
        dense[np.ix_(block_rows, block_cols)] = 1
        mat = BinaryMatrix.from_dense(dense)
        for t in thresholds:
            result = mebf_factorize(mat, MebfConfig(t=t, k_max=5))
            failures += not (result.k == 1 and result.cost_history[-1] == 0)

    for _ in range(50):
        blocks = int(rng.integers(2, 5))
        used_rows = rng.permutation(n)[:int(rng.integers(blocks, n + 1))]
        used_cols = rng.permutation(m)[:int(rng.integers(blocks, m + 1))]
        dense = np.zeros((n, m), np.uint8)
        for rr, cc in zip(np.array_split(used_rows, blocks),
                          np.array_split(used_cols, blocks)):
            dense[np.ix_(rr, cc)] = 1
        mat = BinaryMatrix.from_dense(dense)
        for t in thresholds:
            result = mebf_factorize(mat, MebfConfig(t=t, k_max=8))
            failures += not (result.k == blocks
                             and result.cost_history[-1] == 0)

    assert failures == 0


@criterion("3 oracle bound", budget_s=30)
def test_criterion_3_oracle_bound():
    # hand case first: 2x2 identity at k=1 costs exactly 1, re-derived by
    # an enumeration independent of the library
    eye = np.eye(2, dtype=np.uint8)
    independent = min(
        int((eye ^ np.outer(a, b)).sum())
        for a in bits(2) for b in bits(2))
    assert independent == 1
    _, _, oracle_cost = exhaustive_bmf(BinaryMatrix.from_dense(eye), 1)
    assert oracle_cost == 1

    rng = np.random.default_rng(2003)
    for _ in range(30):
        x = BinaryMatrix.from_dense(rng.random((4, 4)) < 0.5)
        for k in (1, 2):
            result = mebf_factorize(x, MebfConfig(t=0.5, k_max=k))
            heuristic = (result.cost_history[-1] if result.k
                         else x.count())
            _, _, optimum = exhaustive_bmf(x, k)
            assert heuristic >= optimum


@criterion("4 simulation protocol", budget_s=120)
def test_criterion_4_simulation_protocol():
    replicates = 50
    base_seed = 2004
    cfg = MebfConfig(t=0.8, k_max=10)
    errors = {}
    for p0 in (0.2, 0.4):
        for p in (0.0, 0.01):
            per_scenario = []
            for rep in range(replicates):
                spec = SimulationSpec(n=100, m=100, k=5, p0=p0, p=p,
                                      seed=replicate_seed(base_seed, rep))
                inst = simulate(spec)
                result = mebf_factorize(inst.X, cfg)
                assert all(a >= b for a, b in zip(result.cost_history,
                                                  result.cost_history[1:]))
                assert all(a > b for a, b in zip(result.residual_history,
                                                 result.residual_history[1:]))
                per_scenario.append(reconstruction_error(
                    bool_product(inst.U, inst.V),
                    bool_product(result.A, result.B)))
            errors[(p0, p)] = per_scenario

    noise_free = errors[(0.2, 0.0)] + errors[(0.4, 0.0)]
    noisy = errors[(0.2, 0.01)] + errors[(0.4, 0.01)]
    assert float(np.median(noise_free)) < 1.0
    assert float(np.mean(noise_free)) <= float(np.mean(noisy))


@criterion("5 complexity scaling", budget_s=120)
def test_criterion_5_complexity_scaling():
    cfg = MebfConfig(t=0.8, k_max=10)

    def mean_iteration_seconds(n, reps):
        total_time = 0.0
        total_iterations = 0
        for rep in range(reps):
            inst = simulate(SimulationSpec(n=n, m=n, k=5, p0=0.2, p=0.01,
                                           seed=replicate_seed(2005, rep)))
            start = time.perf_counter()
            result = mebf_factorize(inst.X, cfg)
            total_time += time.perf_counter() - start
            total_iterations += result.iterations
        return total_time / total_iterations

    small = mean_iteration_seconds(100, reps=10)
    large = mean_iteration_seconds(1000, reps=3)
    assert large <= 200 * small, (
        f"per-iteration ratio {large / small:.1f} exceeds 200")


@criterion("6 metric exactness", budget_s=10)
def test_criterion_6_metric_exactness():
    # reconstruction error 1/3
    u = BinaryMatrix.from_dense([[1, 1], [1, 0]])
    v = identity(2)
    a = BinaryMatrix.from_dense([[1], [1]])
    b = BinaryMatrix.from_dense([[1, 0]])
    truth = bool_product(u, v).to_dense()
    estimate = bool_product(a, b).to_dense()
    rederived = int((truth ^ estimate).sum()) / int(truth.sum())
    assert rederived == 1 / 3
    assert reconstruction_error(bool_product(u, v),
                                bool_product(a, b)) == rederived

    # coverage rate 2/3
    x = BinaryMatrix.from_dense([[1, 1], [0, 1]])
    eye = identity(2)
    covered = int((x.to_dense() & bool_product(eye, eye).to_dense()).sum())
    assert covered / x.count() == 2 / 3
    assert coverage_rate(x, bool_product(eye, eye)) == 2 / 3

    # density 3/4
    a34 = BinaryMatrix.from_dense([[1], [0]])
    b34 = BinaryMatrix.from_dense([[1, 1]])
    assert (a34.count() + b34.count()) / ((2 + 2) * 1) == 3 / 4
    assert density(a34, b34) == 3 / 4

    # block-diagonal run: density 0.5, coverage 1
    block = BinaryMatrix.from_dense([[1, 1, 0, 0], [1, 1, 0, 0],
                                     [0, 0, 1, 1], [0, 0, 1, 1]])
    result = mebf_factorize(block, MebfConfig(t=0.5, k_max=2))
    report = build_report(block, result)
    assert (result.A.count() + result.B.count()) == 8
    assert report.density == 8 / 16
    assert report.coverage_rate == 1.0


@criterion("7 determinism and round-trip", budget_s=60)
def test_criterion_7_determinism_roundtrip(tmp_path):
    # bit-identical simulate outputs
    sim_args = ["simulate", "--n", "16", "--m", "20", "--k", "3",
                "--p0", "0.35", "--p", "0.02", "--seed", "77"]
    for run in ("one", "two"):
        assert main(sim_args + ["--out", str(tmp_path / f"x_{run}"),
                                "--out-a", str(tmp_path / f"u_{run}"),
                                "--out-b", str(tmp_path / f"v_{run}")]) == 0
    for stem in ("x", "u", "v"):
        assert ((tmp_path / f"{stem}_one").read_bytes()
                == (tmp_path / f"{stem}_two").read_bytes())

    # bit-identical factorize outputs
    x_path = tmp_path / "x_one"
    for run in ("one", "two"):
        assert main(["factorize", "--input", str(x_path), "--t", "0.5",
                     "--k", "4", "--out-a", str(tmp_path / f"a_{run}"),
                     "--out-b", str(tmp_path / f"b_{run}"),
                     "--report", str(tmp_path / f"rep_{run}.json")]) == 0
    for stem in ("a", "b"):
        assert ((tmp_path / f"{stem}_one").read_bytes()
                == (tmp_path / f"{stem}_two").read_bytes())
    report_bytes = (tmp_path / "rep_one.json").read_bytes()
    assert report_bytes == (tmp_path / "rep_two.json").read_bytes()

    # factorize -> write -> read -> metrics, for all three formats
    from mebf.matio import read_matrix
    x = read_matrix(x_path, "dense01")
    write_matrix(x, tmp_path / "x.dense01", "dense01")
    write_matrix(x, tmp_path / "x.coo", "coo")
    write_matrix(RealMatrix(x.to_dense().astype(float)), tmp_path / "x.csv",
                 "csv")
    for fmt in ("dense01", "coo", "csv"):
        rebuilt = tmp_path / f"metrics_{fmt}.json"
        assert main(["metrics", "--input", str(tmp_path / f"x.{fmt}"),
                     "--format", fmt, "--a", str(tmp_path / "a_one"),
                     "--b", str(tmp_path / "b_one"),
                     "--report", str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == report_bytes, fmt


@criterion("8 denoise pipeline", budget_s=30)
def test_criterion_8_denoise_pipeline(tmp_path):
    rng = np.random.default_rng(2008)
    n, m = 40, 50
    values = np.zeros((n, m))
    # planted positive blocks
    values[np.ix_(range(0, 14), range(0, 18))] = rng.uniform(1, 6, (14, 18))
    values[np.ix_(range(14, 30), range(18, 36))] = rng.uniform(1, 6,
                                                               (16, 18))
    values[np.ix_(range(30, 40), range(36, 50))] = rng.uniform(1, 6,
                                                               (10, 14))
    # scattered positive noise outside the blocks
    noise_mask = (rng.random((n, m)) < 0.03) & (values == 0)
    values[noise_mask] = rng.uniform(0.1, 0.9, int(noise_mask.sum()))

    src = tmp_path / "x.csv"
    dst = tmp_path / "denoised.csv"
    write_matrix(RealMatrix(values), src, "csv")
    # no --t/--k: the defaults (0.6, 5) are under test
    assert main(["denoise", "--input", str(src), "--out", str(dst)]) == 0

    result = mebf_factorize(binarize(RealMatrix(values)),
                            MebfConfig(t=0.6, k_max=5))
    support = bool_product(result.A, result.B).to_dense().astype(bool)
    from mebf.matio import read_matrix
    out = read_matrix(dst, "csv").values
    assert np.array_equal(out[support], values[support])
    assert not out[~support].any()
