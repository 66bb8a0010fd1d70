"""The output contract: digests of every output mebf produces for fixed
inputs and seeds.

``library_digests`` hashes the factors, traces and both reports of
``mebf_factorize`` on fixed instances; ``cli_digests`` runs ``cli.main``
in-process and hashes what each command prints, returns and writes.
``tests/test_contract.py`` compares both with the committed
``tests/contract.json``.  A change that alters an output regenerates the
file and names each changed key:

    PYTHONPATH=src python tests/contract.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from mebf import (BinaryMatrix, MebfConfig, RealMatrix, SimulationSpec,
                  build_report, mebf_factorize, report_from_factors,
                  simulate, write_matrix)
from mebf.cli import main

CONTRACT = Path(__file__).with_name("contract.json")


def _spec(n, m, k, p0, p, seed):
    return SimulationSpec(n=n, m=m, k=k, p0=p0, p=p, seed=seed)


# name -> (SimulationSpec, or a seed of a dense 0/1 draw, t, k_max)
LIBRARY = {
    # perfbench's factorize_4k and cli_dense01_2k parameters
    "4000x4000_s0": (_spec(4000, 4000, 5, 0.2, 0.01, 0), 0.8, 10),
    "2000x2000_s0": (_spec(2000, 2000, 5, 0.2, 0.01, 0), 0.8, 10),
    # perfbench's cli_coo_tall parameters; seed 4 uses the fallback
    "16000x500_s0": (_spec(16000, 500, 12, 0.06, 0.003, 0), 0.3, 20),
    "16000x500_s4": (_spec(16000, 500, 12, 0.06, 0.003, 4), 0.3, 20),
    # tests/test_mebf.py's planted instances
    "dense_blocks": (_spec(600, 600, 5, 0.2, 0.01, 0), 0.8, 10),
    "weak_fallback": (_spec(600, 600, 12, 0.06, 0.003, 2), 0.3, 20),
    # the run that ends on a rejected fallback candidate
    "weak_rejected": (30, 0.3, 20),
    # widths at and around packed-word boundaries
    **{f"width_{m}": (_spec(50, m, 3, 0.3, 0.03, m), 0.3, 8)
       for m in (1, 7, 8, 9, 63, 64, 65)},
    # noise-free inputs: mebf bench's 1000x1000_d0.4_n0 (replicate 0 of
    # master seed 0) and widths around packed-word boundaries
    "1000x1000_d0.4_n0": (_spec(1000, 1000, 5, 0.4, 0.0, 0), 0.8, 10),
    **{f"width_{m}_n0": (_spec(50, m, 3, 0.3, 0.0, m), 0.3, 8)
       for m in (1, 8, 65)},
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = json.dumps(data).encode()
    return hashlib.sha256(data).hexdigest()


def _matrix_sha(mat: BinaryMatrix) -> str:
    return _sha(f"{mat.shape}".encode() + mat.to_dense().tobytes())


def _report_json(report) -> str:
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


def library_digests(name: str) -> dict:
    """Digests of one library instance's factorization and reports."""
    source, t, k_max = LIBRARY[name]
    if isinstance(source, SimulationSpec):
        inst = simulate(source)
        x, truth = inst.X, (inst.U, inst.V)
    else:
        dense = np.random.default_rng(source).random((24, 40)) < 0.25
        x, truth = BinaryMatrix.from_dense(dense), None
    result = mebf_factorize(x, MebfConfig(t=t, k_max=k_max))
    return {
        "A": _matrix_sha(result.A),
        "B": _matrix_sha(result.B),
        "cost_history": _sha(list(result.cost_history)),
        "residual_history": _sha(list(result.residual_history)),
        "iterations": _sha(result.iterations),
        "weak_signal_uses": _sha(result.weak_signal_uses),
        "build_report": _sha(_report_json(build_report(x, result, truth))),
        "report_from_factors": _sha(_report_json(
            report_from_factors(x, result.A, result.B, truth))),
    }


# name -> (argv with {dir} for the working directory, files it writes)
CLI_RUNS = {
    "simulate_dense01": (
        "simulate --n 300 --m 200 --k 4 --p0 0.2 --p 0.01 --seed 3 "
        "--out {dir}/x.txt --out-a {dir}/u.txt --out-b {dir}/v.txt",
        ("x.txt", "u.txt", "v.txt")),
    "simulate_coo": (
        "simulate --n 800 --m 70 --k 6 --p0 0.1 --p 0.005 --seed 4 "
        "--format coo --out {dir}/x.coo --out-a {dir}/uc.txt "
        "--out-b {dir}/vc.txt",
        ("x.coo", "uc.txt", "vc.txt")),
    "factorize_dense01": (
        "factorize --input {dir}/x.txt --t 0.7 --k 6 --out-a {dir}/a.txt "
        "--out-b {dir}/b.txt --report {dir}/report.json",
        ("a.txt", "b.txt", "report.json")),
    "factorize_coo": (
        "factorize --input {dir}/x.coo --format coo --t 0.3 --k 12 "
        "--out-a {dir}/ac.txt --out-b {dir}/bc.txt "
        "--report {dir}/report_coo.json",
        ("ac.txt", "bc.txt", "report_coo.json")),
    "denoise": (
        "denoise --input {dir}/real.csv --threshold 0.5 --t 0.6 --k 5 "
        "--out {dir}/denoised.csv --out-a {dir}/ad.txt --out-b {dir}/bd.txt "
        "--report {dir}/report_denoise.json",
        ("denoised.csv", "ad.txt", "bd.txt", "report_denoise.json")),
    "metrics": (
        "metrics --input {dir}/x.txt --a {dir}/a.txt --b {dir}/b.txt "
        "--u {dir}/u.txt --v {dir}/v.txt",
        ()),
    "metrics_coo": (
        "metrics --input {dir}/x.coo --format coo --a {dir}/ac.txt "
        "--b {dir}/bc.txt --report {dir}/metrics_coo.json",
        ("metrics_coo.json",)),
    "bench": (
        "bench --replicates 1 --seed 11 --out {dir}/bench.csv",
        ("bench.csv",)),
}

_SECONDS = re.compile(r"\d+\.\d+s\b")


def _without_seconds_column(csv: bytes) -> bytes:
    return b"".join(line.rsplit(b",", 1)[0] + b"\n"
                    for line in csv.splitlines())


def _real_input(path: Path) -> None:
    """A 60 x 45 non-negative matrix with two noisy blocks, as csv."""
    rng = np.random.default_rng(5)
    values = np.round(rng.uniform(0, 1, (60, 45)) * (rng.random((60, 45))
                                                     < 0.1), 3)
    values[:30, :20] += np.round(rng.uniform(0.5, 4, (30, 20)), 3)
    values[25:, 30:] += np.round(rng.uniform(0.5, 4, (35, 15)), 3)
    write_matrix(RealMatrix(values), path, "csv")


def cli_digests(workdir: Path) -> dict:
    """Digests of each CLI run's exit code, stdout, stderr and files."""
    _real_input(workdir / "real.csv")
    digests = {}
    for name, (argv, written) in CLI_RUNS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(dir=workdir) for arg in argv.split()])
        files = {f: (workdir / f).read_bytes() for f in written}
        if name == "bench":
            files = {f: _without_seconds_column(data)
                     for f, data in files.items()}
        digests[name] = {
            "exit_code": _sha(code),
            "stdout": _sha(out.getvalue()),
            "stderr": _sha(_SECONDS.sub("<seconds>", err.getvalue())),
            **{f"file:{f}": _sha(data) for f, data in files.items()},
        }
    return digests


def compute(workdir: Path) -> dict:
    return {
        "library": {name: library_digests(name) for name in LIBRARY},
        "cli": cli_digests(workdir),
    }


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        contract = compute(Path(tmp))
    CONTRACT.write_text(json.dumps(contract, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CONTRACT}")
