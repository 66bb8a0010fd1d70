"""Batch command line: factorize, simulate, bench, denoise, metrics.

Exit codes: 0 on success, 1 for runtime and I/O failures, 2 for usage
errors.  Logs go to stderr; data goes to files or stdout only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .boolmat import BinaryMatrix
from .factorize import MebfConfig, mebf_factorize
from .matio import (
    FORMATS,
    MatrixFormatError,
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


def cmd_factorize(args) -> int:
    x = _load_binary(args.input, args.format, args.threshold)
    cfg = MebfConfig(t=args.t, k_max=args.k)
    start = time.perf_counter()
    result = mebf_factorize(x, cfg)
    elapsed = time.perf_counter() - start
    report = build_report(x, result)

    print(" ".join(str(c) for c in result.cost_history))
    if args.out_a:
        write_matrix(result.A, args.out_a, "dense01")
    if args.out_b:
        write_matrix(result.B, args.out_b, "dense01")
    if args.report:
        _emit_report(report, args.report)
    _log(f"{x.n_rows}x{x.n_cols} input: {result.k} patterns, final cost "
         f"{report.final_cost}, {elapsed:.3f}s")
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

    cfg = MebfConfig(t=args.t, k_max=args.k)
    _log(f"bench: t={args.t:g}, k_max={args.k}, "
         f"replicates={args.replicates}, master seed {args.seed}")

    rows = [BENCH_CSV_HEADER]
    for params in chosen:
        for rep in range(args.replicates):
            seed = replicate_seed(args.seed, rep)
            inst = simulate(_spec(params, seed))
            start = time.perf_counter()
            result = mebf_factorize(inst.X, cfg)
            elapsed = time.perf_counter() - start
            report = build_report(inst.X, result, truth=(inst.U, inst.V))
            rows.append(",".join([
                params["name"],
                str(rep),
                str(seed),
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
    cfg = MebfConfig(t=args.t, k_max=args.k)
    start = time.perf_counter()
    result = mebf_factorize(observed, cfg)
    elapsed = time.perf_counter() - start
    masked = mask_denoise(real, result.A, result.B)

    write_matrix(masked, args.out, "csv")
    if args.out_a:
        write_matrix(result.A, args.out_a, "dense01")
    if args.out_b:
        write_matrix(result.B, args.out_b, "dense01")
    if args.report:
        _emit_report(build_report(observed, result), args.report)
    kept = int((masked.values != 0).sum())
    total = int((real.values != 0).sum())
    _log(f"denoised {real.n_rows}x{real.n_cols}: {result.k} patterns, "
         f"kept {kept} of {total} non-zero entries, {elapsed:.3f}s")
    return 0


def cmd_metrics(args) -> int:
    x = _load_binary(args.input, args.format, args.threshold)
    a_mat = read_matrix(args.a, "dense01")
    b_mat = read_matrix(args.b, "dense01")
    if b_mat.n_rows == 0:
        # an empty dense01 file carries no width; adopt the input's
        b_mat = BinaryMatrix.zeros(0, x.n_cols)
    if (args.u is None) != (args.v is None):
        raise UsageError("provide both --u and --v, or neither")
    truth = None
    if args.u is not None:
        truth = (read_matrix(args.u, "dense01"),
                 read_matrix(args.v, "dense01"))
    report = report_from_factors(x, a_mat, b_mat, truth)
    _emit_report(report, args.report)
    return 0


def _add_input_flags(p, default_format: str = "dense01") -> None:
    p.add_argument("--input", required=True, help="matrix file to read")
    p.add_argument("--format", choices=FORMATS, default=default_format,
                   help="input file format")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="binarization threshold applied to csv inputs")


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
    fac.set_defaults(handler=cmd_factorize)

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
    sim.add_argument("--format", choices=("dense01", "coo"),
                     default="dense01", help="output format for the matrix")
    sim.add_argument("--out-a", help="write the planted row factor (dense01)")
    sim.add_argument("--out-b",
                     help="write the planted column factor (dense01)")
    sim.set_defaults(handler=cmd_simulate)

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
    ben.set_defaults(handler=cmd_bench)

    den = sub.add_parser("denoise",
                         help="mask a csv matrix by its binary patterns")
    den.add_argument("--input", required=True, help="csv matrix to denoise")
    den.add_argument("--threshold", type=float, default=0.0,
                     help="binarization threshold")
    den.add_argument("--t", type=_fraction, default=0.6,
                     help="similarity threshold")
    den.add_argument("--k", type=_positive, default=5,
                     help="maximum number of patterns")
    den.add_argument("--out", required=True, help="write the masked csv")
    den.add_argument("--out-a", help="write the n x k factor (dense01)")
    den.add_argument("--out-b", help="write the k x m factor (dense01)")
    den.add_argument("--report", help="write the metrics report (JSON)")
    den.set_defaults(handler=cmd_denoise)

    met = sub.add_parser("metrics",
                         help="rebuild the metrics report from matrix files")
    _add_input_flags(met)
    met.add_argument("--a", required=True, help="n x k factor file (dense01)")
    met.add_argument("--b", required=True, help="k x m factor file (dense01)")
    met.add_argument("--u", help="ground-truth row factor (dense01)")
    met.add_argument("--v", help="ground-truth column factor (dense01)")
    met.add_argument("--report",
                     help="report output path (default: stdout)")
    met.set_defaults(handler=cmd_metrics)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MatrixFormatError, OSError, ValueError, RuntimeError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
