"""Batch command line: factorize, simulate, bench, denoise, metrics.

Exit codes: 0 on success, 1 for runtime and I/O failures, 2 for usage
errors.  Logs go to stderr; data goes to files or stdout only.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time

import numpy as np

from .boolmat import BinaryMatrix
from .factorize import FactorResult, MebfConfig, mebf_factorize
from .matio import (
    BINARY_FORMATS,
    FORMATS,
    binarize,
    mask_denoise,
    read_matrix,
    write_matrix,
)
from .metrics import build_report, report_from_factors
from .simulate import SimulationSpec, preset_grid, replicate_seed, simulate

BENCH_CSV_HEADER = ("scenario,replicate,seed,reconstruction_error,"
                    "density,coverage,patterns,seconds")


class UsageError(Exception):
    """Bad argument combinations beyond what argparse can express."""


def _checked(convert, accept, complaint: str):
    """An argparse type: convert the text, then reject what accept refuses."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{value} {complaint}")
        return value
    # argparse names the type in "invalid float value: 'abc'"
    parse.__name__ = convert.__name__
    return parse


_fraction = _checked(float, lambda v: 0.0 < v < 1.0,
                     "does not lie strictly between 0 and 1")
_rate = _checked(float, lambda v: 0.0 <= v <= 1.0, "does not lie in [0, 1]")
_finite = _checked(float, math.isfinite, "is not a finite number")
_positive = _checked(int, lambda v: v >= 1, "is not a positive integer")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_binary(path: str, format: str, threshold: float):
    """Read a matrix file; csv inputs are binarized at the threshold."""
    mat = read_matrix(path, format)
    return mat if format in BINARY_FORMATS else binarize(mat, threshold)


def _emit(payload: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_report(report: dict, path: str | None) -> None:
    _emit(json.dumps(report, indent=2) + "\n", path)


def _write_factors(a_mat: BinaryMatrix, b_mat: BinaryMatrix, args) -> None:
    """Write a factor pair to the --out-a and --out-b files given."""
    for mat, path in ((a_mat, args.out_a), (b_mat, args.out_b)):
        if path:
            write_matrix(mat, path, "dense01")


def _write_outputs(x: BinaryMatrix, result: FactorResult, args) -> None:
    """Write the factors and the report of x's factorization, if asked."""
    _write_factors(result.A, result.B, args)
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


# the SimulationSpec fields a preset or simulate's flags give
_SPEC_PARAMS = ("n", "m", "k", "p0", "p")


def _spec(params: dict, seed: int) -> SimulationSpec:
    """Simulation spec from a preset (or flag) parameter dict and a seed."""
    return SimulationSpec(**{n: params[n] for n in _SPEC_PARAMS}, seed=seed)


def _presets(names: list[str]) -> list[dict]:
    """The preset_grid scenarios of the given names, in their order."""
    by_name = {sc["name"]: sc for sc in preset_grid()}
    unknown = [nm for nm in names if nm not in by_name]
    if not names or unknown:
        raise UsageError(f"unknown scenarios {unknown}; choose from: "
                         f"{', '.join(by_name)}")
    return [by_name[nm] for nm in names]


def cmd_simulate(args) -> int:
    params = {name: getattr(args, name) for name in _SPEC_PARAMS}
    given = [v is not None for v in params.values()]
    if args.scenarios is not None:
        if any(given):
            raise UsageError("--scenarios replaces --n/--m/--k/--p0/--p; "
                             "give one or the other")
        [params] = _presets([args.scenarios])
    elif not all(given):
        raise UsageError("provide --n --m --k --p0 --p, or a --scenarios "
                         "preset name")

    spec = _spec(params, args.seed)
    x, u, v = simulate(spec)
    write_matrix(x, args.out, args.format)
    _write_factors(u, v, args)
    _log(f"simulated {spec.n}x{spec.m}: k={spec.k}, p0={spec.p0:g}, "
         f"p={spec.p:g}, seed={spec.seed}")
    return 0


def _csv_field(value) -> str:
    return "" if value is None else repr(value)


def _bench_row(params: dict, rep: int, args) -> str:
    """One bench run's CSV row; its spec, instance, factors and report die
    when this returns, so no run sits beside the next one's."""
    spec = _spec(params, replicate_seed(args.seed, rep))
    x, u, v = simulate(spec)
    result, elapsed = _factorize(x, args)
    report = build_report(x, result, truth=(u, v))
    rates = [report.get(key) for key in ("reconstruction_error", "density",
                                          "coverage_rate")]
    return ",".join([params["name"], str(rep), str(spec.seed),
                     *map(_csv_field, rates), str(report["pattern_count"]),
                     repr(elapsed)])


def cmd_bench(args) -> int:
    if args.scenarios == "all":
        chosen = preset_grid()
    else:
        chosen = _presets([nm.strip() for nm in args.scenarios.split(",")
                           if nm.strip()])

    # every spec is checked before the header is logged, then dropped:
    # _bench_row builds it again for its run
    for params, rep in itertools.product(chosen, range(args.replicates)):
        _spec(params, replicate_seed(args.seed, rep))
    _log(f"bench: t={args.t:g}, k_max={args.k}, "
         f"replicates={args.replicates}, master seed {args.seed}")

    rows = [BENCH_CSV_HEADER]
    for params, rep in itertools.product(chosen, range(args.replicates)):
        rows.append(_bench_row(params, rep, args))

    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_denoise(args) -> int:
    real = read_matrix(args.input, "csv")
    observed = binarize(real, args.threshold)
    result, elapsed = _factorize(observed, args)
    masked = mask_denoise(real, result.A, result.B)

    write_matrix(masked, args.out, "csv")
    _write_outputs(observed, result, args)
    kept = np.count_nonzero(masked)
    total = np.count_nonzero(real)
    _log(f"denoised {real.shape[0]}x{real.shape[1]}: {result.k} patterns, "
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


def _add_budget_flags(p, t: float | None, k: int | None) -> None:
    """--t and --k of mebf_factorize, required where no default is given."""
    p.add_argument("--t", type=_fraction, default=t, required=t is None,
                   help="similarity threshold, strictly between 0 and 1")
    p.add_argument("--k", type=_positive, default=k, required=k is None,
                   help="maximum number of patterns")


def _add_factor_flags(p, a_name: str, b_name: str) -> None:
    p.add_argument("--out-a", help=f"write the {a_name} factor (dense01)")
    p.add_argument("--out-b", help=f"write the {b_name} factor (dense01)")


def _add_input_flags(p, formats: tuple[str, ...] = FORMATS) -> None:
    """--input and --threshold, and --format where there is a choice."""
    p.add_argument("--input", required=True, help="matrix file to read")
    if len(formats) > 1:
        p.add_argument("--format", choices=formats, default="dense01",
                       help="input file format")
    p.add_argument("--threshold", type=_finite, default=0.0,
                   help="binarization threshold applied to csv inputs")


def _add_report_flag(p, stdout: bool) -> None:
    """--report: without it, only metrics writes a report, to stdout."""
    default = "; default: stdout" if stdout else ""
    p.add_argument("--report",
                   help=f"write the metrics report (JSON{default})")


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
    _add_budget_flags(fac, None, None)
    _add_factor_flags(fac, "n x k", "k x m")
    _add_report_flag(fac, stdout=False)
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
    _add_factor_flags(sim, "planted row", "planted column")
    sim.set_defaults(handler="cmd_simulate")

    ben = sub.add_parser("bench",
                         help="run scenario grid, emit one CSV row per run")
    ben.add_argument("--scenarios", default="all",
                     help="comma-separated preset names, or 'all'")
    ben.add_argument("--replicates", type=_positive, default=50,
                     help="replicates per scenario")
    ben.add_argument("--seed", type=int, default=0, help="master seed")
    _add_budget_flags(ben, 0.8, 10)
    ben.add_argument("--out", help="CSV output path (default: stdout)")
    ben.set_defaults(handler="cmd_bench")

    den = sub.add_parser("denoise",
                         help="mask a csv matrix by its binary patterns")
    _add_input_flags(den, ("csv",))
    _add_budget_flags(den, 0.6, 5)
    den.add_argument("--out", required=True, help="write the masked csv")
    _add_factor_flags(den, "n x k", "k x m")
    _add_report_flag(den, stdout=False)
    den.set_defaults(handler="cmd_denoise")

    met = sub.add_parser("metrics",
                         help="rebuild the metrics report from matrix files")
    _add_input_flags(met)
    met.add_argument("--a", required=True, help="n x k factor file (dense01)")
    met.add_argument("--b", required=True, help="k x m factor file (dense01)")
    met.add_argument("--u", help="ground-truth row factor (dense01)")
    met.add_argument("--v", help="ground-truth column factor (dense01)")
    _add_report_flag(met, stdout=True)
    met.set_defaults(handler="cmd_metrics")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
