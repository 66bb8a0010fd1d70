"""Batch command line: factorize, simulate, bench, denoise, metrics.

Exit codes: 0 on success, 1 for runtime and I/O failures, 2 for usage
errors.  Logs go to stderr; data goes to files or stdout only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from .boolmat import BinaryMatrix
from .factorize import FactorResult, MebfConfig, mebf_factorize
from .matio import (
    BINARY_FORMATS,
    FORMATS,
    RealMatrix,
    binarize,
    mask_denoise,
    read_matrix,
    write_matrix,
)
from .metrics import MetricsReport, build_report, report_from_factors
from .simulate import SimulationSpec, preset_grid, replicate_seed, simulate

BENCH_CSV_HEADER = ("scenario,replicate,seed,reconstruction_error,"
                    "density,coverage,patterns,seconds")


class UsageError(Exception):
    """Bad argument combinations beyond what argparse can express."""


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"{value} does not lie strictly between 0 and 1")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} does not lie in [0, 1]")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_binary(path: str, format: str, threshold: float):
    """Read a matrix file; csv inputs are binarized at the threshold."""
    mat = read_matrix(path, format)
    if isinstance(mat, RealMatrix):
        return binarize(mat, threshold)
    return mat


def _emit(payload: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_report(report: MetricsReport, path: str | None) -> None:
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", path)


def _write_outputs(x: BinaryMatrix, result: FactorResult, args) -> None:
    """Write the factors and the report of x's factorization, if asked."""
    if args.out_a:
        write_matrix(result.A, args.out_a, "dense01")
    if args.out_b:
        write_matrix(result.B, args.out_b, "dense01")
    if args.report:
        _emit_report(build_report(x, result), args.report)


def _factorize(x: BinaryMatrix, args) -> tuple[FactorResult, float]:
    """x's factorization with the --t and --k flags, and its seconds."""
    start = time.perf_counter()
    result = mebf_factorize(x, MebfConfig(t=args.t, k_max=args.k))
    return result, time.perf_counter() - start


def cmd_factorize(args) -> int:
    x = _load_binary(args.input, args.format, args.threshold)
    result, elapsed = _factorize(x, args)

    print(" ".join(str(c) for c in result.cost_history))
    _write_outputs(x, result, args)
    # as in the report: the last cost, or with no patterns every one of x
    final_cost = result.cost_history[-1] if result.cost_history else x.count()
    _log(f"{x.n_rows}x{x.n_cols} input: {result.k} patterns, final cost "
         f"{final_cost}, {elapsed:.3f}s")
    return 0


def _spec(params: dict, seed: int) -> SimulationSpec:
    """Simulation spec from a preset (or flag) parameter dict and a seed."""
    return SimulationSpec(n=params["n"], m=params["m"], k=params["k"],
                          p0=params["p0"], p=params["p"], seed=seed)


def cmd_simulate(args) -> int:
    explicit = (args.n, args.m, args.k, args.p0, args.p)
    if args.scenarios is not None:
        if any(v is not None for v in explicit):
            raise UsageError(
                "--scenarios replaces --n/--m/--k/--p0/--p; give one or "
                "the other")
        by_name = {sc["name"]: sc for sc in preset_grid()}
        if args.scenarios not in by_name:
            raise UsageError(
                f"unknown scenario {args.scenarios!r}; choose from: "
                f"{', '.join(by_name)}")
        params = by_name[args.scenarios]
    elif any(v is None for v in explicit):
        raise UsageError("provide --n --m --k --p0 --p, or a --scenarios "
                         "preset name")
    else:
        params = {"n": args.n, "m": args.m, "k": args.k,
                  "p0": args.p0, "p": args.p}

    spec = _spec(params, args.seed)
    inst = simulate(spec)
    write_matrix(inst.X, args.out, args.format)
    if args.out_a:
        write_matrix(inst.U, args.out_a, "dense01")
    if args.out_b:
        write_matrix(inst.V, args.out_b, "dense01")
    _log(f"simulated {spec.n}x{spec.m}: k={spec.k}, p0={spec.p0:g}, "
         f"p={spec.p:g}, seed={spec.seed}")
    return 0


def _csv_field(value) -> str:
    return "" if value is None else repr(value)


def cmd_bench(args) -> int:
    grid = preset_grid()
    if args.scenarios == "all":
        chosen = grid
    else:
        by_name = {sc["name"]: sc for sc in grid}
        names = [nm.strip() for nm in args.scenarios.split(",") if nm.strip()]
        unknown = [nm for nm in names if nm not in by_name]
        if not names or unknown:
            raise UsageError(
                f"unknown scenarios {unknown}; choose from: "
                f"{', '.join(by_name)} (or 'all')")
        chosen = [by_name[nm] for nm in names]

    # every spec is checked before the header is logged
    runs = [(params, rep, _spec(params, replicate_seed(args.seed, rep)))
            for params in chosen for rep in range(args.replicates)]
    _log(f"bench: t={args.t:g}, k_max={args.k}, "
         f"replicates={args.replicates}, master seed {args.seed}")

    rows = [BENCH_CSV_HEADER]
    for params, rep, spec in runs:
        inst = simulate(spec)
        result, elapsed = _factorize(inst.X, args)
        report = build_report(inst.X, result, truth=(inst.U, inst.V))
        rows.append(",".join([
            params["name"],
            str(rep),
            str(spec.seed),
            _csv_field(report.reconstruction_error),
            _csv_field(report.density),
            _csv_field(report.coverage_rate),
            str(report.pattern_count),
            repr(elapsed),
        ]))

    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_denoise(args) -> int:
    real = read_matrix(args.input, "csv")
    observed = binarize(real, args.threshold)
    result, elapsed = _factorize(observed, args)
    masked = mask_denoise(real, result.A, result.B)

    write_matrix(masked, args.out, "csv")
    _write_outputs(observed, result, args)
    kept = int((masked.values != 0).sum())
    total = int((real.values != 0).sum())
    _log(f"denoised {real.n_rows}x{real.n_cols}: {result.k} patterns, "
         f"kept {kept} of {total} non-zero entries, {elapsed:.3f}s")
    return 0


def cmd_metrics(args) -> int:
    if (args.u is None) != (args.v is None):
        raise UsageError("provide both --u and --v, or neither")
    x = _load_binary(args.input, args.format, args.threshold)
    a_mat = read_matrix(args.a, "dense01")
    b_mat = read_matrix(args.b, "dense01")
    if b_mat.n_rows == 0:
        # an empty dense01 file carries no width; adopt the input's
        b_mat = BinaryMatrix.zeros(0, x.n_cols)
    truth = None
    if args.u is not None:
        truth = (read_matrix(args.u, "dense01"),
                 read_matrix(args.v, "dense01"))
    report = report_from_factors(x, a_mat, b_mat, truth)
    _emit_report(report, args.report)
    return 0


def _add_input_flags(p) -> None:
    p.add_argument("--input", required=True, help="matrix file to read")
    p.add_argument("--format", choices=FORMATS, default="dense01",
                   help="input file format")
    p.add_argument("--threshold", type=_finite, default=0.0,
                   help="binarization threshold applied to csv inputs")


# one parser per process, as each one left to the collector moved every
# command's memory peak; a handler is looked up by name when it runs
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mebf",
        description="Boolean matrix factorization toolkit: median-expansion "
                    "pattern mining, simulation, benchmarking, metrics, and "
                    "continuous-matrix denoising.")
    # no dest: usage errors then name the command by its choices
    sub = parser.add_subparsers(required=True)

    fac = sub.add_parser("factorize", help="factorize a binary matrix file")
    _add_input_flags(fac)
    fac.add_argument("--t", type=_fraction, required=True,
                     help="similarity threshold, strictly between 0 and 1")
    fac.add_argument("--k", type=_positive, required=True,
                     help="maximum number of patterns")
    fac.add_argument("--out-a", help="write the n x k factor (dense01)")
    fac.add_argument("--out-b", help="write the k x m factor (dense01)")
    fac.add_argument("--report", help="write the metrics report (JSON)")
    fac.set_defaults(handler="cmd_factorize")

    sim = sub.add_parser("simulate",
                         help="generate a planted-pattern binary matrix")
    sim.add_argument("--scenarios", metavar="NAME",
                     help="preset scenario name (replaces the shape flags)")
    sim.add_argument("--n", type=_positive, help="number of rows")
    sim.add_argument("--m", type=_positive, help="number of columns")
    sim.add_argument("--k", type=_positive, help="planted pattern count")
    sim.add_argument("--p0", type=_rate, help="factor density in [0, 1]")
    sim.add_argument("--p", type=_rate, help="flip-noise rate in [0, 1]")
    sim.add_argument("--seed", type=int, default=0, help="generator seed")
    sim.add_argument("--out", required=True, help="write the observed matrix")
    sim.add_argument("--format", choices=BINARY_FORMATS,
                     default="dense01", help="output format for the matrix")
    sim.add_argument("--out-a", help="write the planted row factor (dense01)")
    sim.add_argument("--out-b",
                     help="write the planted column factor (dense01)")
    sim.set_defaults(handler="cmd_simulate")

    ben = sub.add_parser("bench",
                         help="run scenario grid, emit one CSV row per run")
    ben.add_argument("--scenarios", default="all",
                     help="comma-separated preset names, or 'all'")
    ben.add_argument("--replicates", type=_positive, default=50,
                     help="replicates per scenario")
    ben.add_argument("--seed", type=int, default=0, help="master seed")
    ben.add_argument("--t", type=_fraction, default=0.8,
                     help="similarity threshold")
    ben.add_argument("--k", type=_positive, default=10,
                     help="maximum number of patterns")
    ben.add_argument("--out", help="CSV output path (default: stdout)")
    ben.set_defaults(handler="cmd_bench")

    den = sub.add_parser("denoise",
                         help="mask a csv matrix by its binary patterns")
    den.add_argument("--input", required=True, help="csv matrix to denoise")
    den.add_argument("--threshold", type=_finite, default=0.0,
                     help="binarization threshold")
    den.add_argument("--t", type=_fraction, default=0.6,
                     help="similarity threshold")
    den.add_argument("--k", type=_positive, default=5,
                     help="maximum number of patterns")
    den.add_argument("--out", required=True, help="write the masked csv")
    den.add_argument("--out-a", help="write the n x k factor (dense01)")
    den.add_argument("--out-b", help="write the k x m factor (dense01)")
    den.add_argument("--report", help="write the metrics report (JSON)")
    den.set_defaults(handler="cmd_denoise")

    met = sub.add_parser("metrics",
                         help="rebuild the metrics report from matrix files")
    _add_input_flags(met)
    met.add_argument("--a", required=True, help="n x k factor file (dense01)")
    met.add_argument("--b", required=True, help="k x m factor file (dense01)")
    met.add_argument("--u", help="ground-truth row factor (dense01)")
    met.add_argument("--v", help="ground-truth column factor (dense01)")
    met.add_argument("--report",
                     help="report output path (default: stdout)")
    met.set_defaults(handler="cmd_metrics")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
