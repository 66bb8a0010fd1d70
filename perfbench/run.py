"""mebf benchmark: four workloads, end-to-end metrics, a traced breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload factorize_4k --seed 0 --seconds 10 \\
        --trace 0
    python3 perfbench/run.py --smoke

A run sets the workload up, then times operations with the program
unmodified until their times add up to ``--seconds``, in two halves around
one untimed tracemalloc pass.  ``--trace 1`` times for half of that and
traces for the other half, with wrappers around every public function, and
reports the per-layer metrics instead of the end-to-end ones.  Every operation's output is
checked; the last stdout line is the JSON result.  See
``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One thread per process: the checks' float matmuls must not fan out.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Checked  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "runs_per_s": "1/s",
    "peak_mem_mb": "MB",
    "setup_s": "s",
}

BOOLMAT_METRICS = {
    "boolmat.utl_rearrange": ("boolmat.utl_rearrange",),
    "boolmat.col_dot_counts": ("boolmat.col_dot_counts",),
    "boolmat.row_dot_counts": ("boolmat.row_dot_counts",),
    "boolmat.rank1_cost": ("boolmat.rank1_cost",),
    "boolmat.rank1_product": ("boolmat.rank1_product",),
    "boolmat.elementwise": ("boolmat.elementwise",),
    "boolmat.complement": ("boolmat.complement",),
    "boolmat.bool_product": ("boolmat.bool_product",),
    "boolmat.count": ("boolmat.BinaryMatrix.count",
                      "boolmat.BinaryVector.count"),
    "boolmat.col_sums": ("boolmat.BinaryMatrix.col_sums",),
    "boolmat.row_sums": ("boolmat.BinaryMatrix.row_sums",),
    "boolmat.col": ("boolmat.BinaryMatrix.col",),
}

PER_LAYER = {
    "cli.self_s": "s",
    "matio.self_s": "s",
    "matio.read_s": "s",
    "matio.write_s": "s",
    "matio.read_bytes": "bytes",
    "matio.write_bytes": "bytes",
    "matio.read_mb_per_s": "MB/s",
    "matio.write_mb_per_s": "MB/s",
    "matio.read_peak_mb": "MB",
    "simulate.s": "s",
    "simulate.calls": "count",
    "factorize.s": "s",
    "factorize.total_s": "s",
    "factorize.rounds": "count",
    "factorize.round_s": "s",
    "factorize.growth_s": "s",
    "factorize.weak_s": "s",
    "factorize.weak_calls": "count",
    "factorize.weak_uses": "count",
    "factorize.accept_s": "s",
    "factorize.peak_mem_x": "x",
    **{f"{name}.{suffix}": unit for name in BOOLMAT_METRICS
       for suffix, unit in (("calls", "count"), ("s", "s"))},
    "boolmat.self_s": "s",
    "boolmat.full_passes": "count",
    "boolmat.bytes_computed": "bytes",
    "metrics.self_s": "s",
    "metrics.build_report_s": "s",
    "metrics.report_from_factors_s": "s",
    "metrics.bool_product_calls": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "mem.packed_input_mb": "MB",
    "final_cost": "count",
    "error_rate": "ratio",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable mebf package under src/."""


def import_program(root: Path) -> spans.Program:
    """Import mebf afresh from ``root/src`` and from nowhere else."""
    src = (root / "src").resolve()
    for name in [m for m in sys.modules
                 if m == "mebf" or m.startswith("mebf.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        package = importlib.import_module("mebf")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import mebf from {src}: {exc}") \
            from None
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"mebf imported from {package.__file__}, "
                             f"not from {src}")
    return spans.Program.load()


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "seed": seed,
    }


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


@dataclass
class Verified:
    """Digest and findings of the run's first fully checked outputs."""

    digest: str | None = None
    checked: Checked | None = None


class OpDirs:
    """Fresh per-operation directories inside the checkout, all removed."""

    def __init__(self, root: Path):
        self.parent = root / ".perfbench" / "tmp"

    def __enter__(self) -> Path:
        self.parent.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="op-", dir=self.parent))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path)


def one_op(root, wl, state, tally, verified, before=None, after=None):
    """Run, time and check one operation; return its seconds or None."""
    tally.attempted += 1
    try:
        with OpDirs(root) as tmp:
            if before:
                before()
            start = time.perf_counter()
            try:
                output = wl.run(state, tmp)
            finally:
                elapsed = time.perf_counter() - start
                if after:
                    after()
            digest = wl.digest(state, tmp, output)
            if digest != verified.digest:
                checked = wl.check(state, tmp, output)
                if verified.digest is not None:
                    raise CheckFailed("outputs differ from the run's first "
                                      "operation")
                verified.digest, verified.checked = digest, checked
    except Exception as exc:  # an operation failure is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        tally.fail(f"{type(exc).__name__}: {exc}")
        return None
    return elapsed


def timed_ops(root, wl, state, seconds, tally, verified, between=None,
              **hooks) -> list:
    """Operations until their timed seconds add up to ``seconds`` (>= 1).

    ``between`` runs after each operation, outside the timed total.
    """
    walls = []
    while True:
        wall = one_op(root, wl, state, tally, verified, **hooks)
        if wall is None:  # the run is already incorrect; stop timing it
            return walls
        walls.append(wall)
        if sum(walls) >= seconds:
            return walls
        if between:
            between()


def set_up(root, wl, seed, profile):
    """Import mebf, build the inputs and warm up on a tiny operation."""
    start = time.perf_counter()
    program = import_program(root)
    state = wl.prepare(program, seed, profile)
    warm = wl.prepare(program, seed, "smoke")
    with OpDirs(root) as tmp:
        wl.run(warm, tmp)
    return time.perf_counter() - start, program, state


def layer_metrics(recorder: spans.SpanRecorder, ops: list) -> tuple:
    """Per-operation layer metrics from the spans, and consistency errors."""
    records = recorder.spans
    child = [0.0] * len(records)
    for name, start, end, parent, op, _ in records:
        if parent >= 0:
            child[parent] += end - start
    per_op = {op: dict.fromkeys([*PER_LAYER, "_expected_weak"], 0.0)
              for op in ops}
    calls: dict = {}
    errors = []
    method_metric = {raw: m for m, raws in BOOLMAT_METRICS.items()
                     for raw in raws}
    for i, (name, start, end, parent, op, extra) in enumerate(records):
        dur = end - start
        own = dur - child[i]
        out = per_op[op]
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            p_start, p_end = records[parent][1], records[parent][2]
            if start < p_start or end > p_end:
                errors.append(f"span {name} escapes its parent")
        layer = name.split(".")[0]
        if name == "op":
            out["trace.wall_s"] += dur
            out["trace.unattributed_s"] += own
            continue
        out[f"{layer}.s" if layer in ("simulate", "factorize")
            else f"{layer}.self_s"] += own
        if name in method_metric:
            out[f"{method_metric[name]}.calls"] += 1
            out[f"{method_metric[name]}.s"] += own
        if layer == "boolmat" and extra:
            out["boolmat.full_passes"] += 1
            out["boolmat.bytes_computed"] += extra
        if name == "matio.read_matrix":
            out["matio.read_s"] += dur
            out["matio.read_bytes"] += extra or 0
        elif name == "matio.write_matrix":
            out["matio.write_s"] += dur
            out["matio.write_bytes"] += extra or 0
        elif name == "simulate.simulate":
            out["simulate.calls"] += 1
        elif name == "factorize.mebf_factorize":
            iterations, weak_uses, k = extra
            out["factorize.total_s"] += dur
            out["factorize.rounds"] += iterations
            out["factorize.weak_uses"] += weak_uses
            # the fallback runs exactly when a grown candidate is rejected
            out["_expected_weak"] += weak_uses > 0 or iterations > k
        elif name == "factorize.bidirectional_growth":
            out["factorize.growth_s"] += dur
        elif name == "factorize.weak_signal_detection":
            out["factorize.weak_s"] += dur
            out["factorize.weak_calls"] += 1
        elif name == "metrics.build_report":
            out["metrics.build_report_s"] += dur
        elif name == "metrics.report_from_factors":
            out["metrics.report_from_factors_s"] += dur
        elif name == "boolmat.bool_product":
            ancestor = parent
            while ancestor >= 0 and not records[ancestor][0].startswith(
                    "metrics."):
                ancestor = records[ancestor][3]
            if ancestor >= 0:
                out["metrics.bool_product_calls"] += 1

    for op, out in per_op.items():
        expected_weak = out.pop("_expected_weak")
        if out["factorize.weak_calls"] != expected_weak:
            errors.append(f"op {op}: {out['factorize.weak_calls']} fallback "
                          f"calls recorded, {expected_weak} expected")
        out["factorize.accept_s"] = (out["factorize.total_s"]
                                     - out["factorize.growth_s"]
                                     - out["factorize.weak_s"])
        rounds = out["factorize.rounds"]
        out["factorize.round_s"] = out["factorize.s"] / rounds if rounds \
            else 0.0
        for kind in ("read", "write"):
            secs = out[f"matio.{kind}_s"]
            out[f"matio.{kind}_mb_per_s"] = (
                out[f"matio.{kind}_bytes"] / 1e6 / secs if secs else 0.0)
        layers = (out["cli.self_s"] + out["matio.self_s"]
                  + out["simulate.s"] + out["factorize.s"]
                  + out["boolmat.self_s"] + out["metrics.self_s"]
                  + out["trace.unattributed_s"])
        if abs(layers - out["trace.wall_s"]) > 1e-9 * max(
                1.0, out["trace.wall_s"]):
            errors.append(f"op {op}: layer self times sum to {layers}, "
                          f"traced wall is {out['trace.wall_s']}")
    return per_op, calls, errors


def median_of(per_op: dict) -> dict:
    keys = next(iter(per_op.values())).keys()
    return {k: statistics.median(out[k] for out in per_op.values())
            for k in keys}


def write_spans(path: Path, recorder: spans.SpanRecorder) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, op, extra) in enumerate(
                recorder.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start,
                                 "end": end, "parent": parent, "op": op,
                                 "extra": extra}) + "\n")


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool, profile: str = "full",
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result line plus what it recorded."""
    wl = WORKLOADS[name]
    tally = Tally()
    verified = Verified()
    setups: list = []

    def set_up_again():
        # Set-up samples are spread over the run, so that their median sees
        # the machine at several moments, not during one fraction of it.
        if len(setups) < (1 if trace else setup_repeats):
            setups.append(set_up(root, wl, seed, profile)[0])

    setup_s, program, state = set_up(root, wl, seed, profile)
    setups.append(setup_s)
    spans.assert_clean(program)

    # The untraced operations come in two halves, before and after the
    # traced and memory passes, so that a slow spell of the machine that
    # spans one half does not set the whole run's median.
    half = (seconds / 2 if trace else seconds) / 2
    walls = timed_ops(root, wl, state, half, tally, verified,
                      between=set_up_again)

    problems: list = []
    layer = {}
    traced_walls: list = []
    if trace:
        recorder = spans.SpanRecorder(program.package.BinaryMatrix,
                                      wl.full_shapes(state))
        installed = spans.install(program, recorder.wrap)
        op_ids: list = []

        def begin():
            op_ids.append(len(op_ids))
            recorder.begin_op(op_ids[-1])
        try:
            traced_walls = timed_ops(root, wl, state, seconds / 2, tally,
                                     verified, before=begin,
                                     after=recorder.end_op)
        finally:
            installed.remove()
        spans.assert_clean(program)
        write_spans(STATE_DIR / "spans" / f"{name}-seed{seed}.jsonl",
                    recorder)
        per_op, calls, problems = layer_metrics(recorder, op_ids)
        problems += [f"no calls recorded by {n}" for n in wl.required
                     if not calls.get(n)]
        problems += [f"{n} is not a wrapped function" for n in wl.required
                     if n not in installed.names]
        layer = median_of(per_op)

    probe = spans.MemoryProbe()
    installed = spans.install(program, probe.wrap,
                              select=lambda n: n in probe.PROBED)
    try:
        one_op(root, wl, state, tally, verified, before=probe.start,
               after=probe.stop)
    finally:
        installed.remove()
    spans.assert_clean(program)

    walls += timed_ops(root, wl, state, half, tally, verified,
                       between=set_up_again)
    while len(setups) < (1 if trace else setup_repeats):
        set_up_again()
    if trace and walls and traced_walls:
        layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                     - statistics.median(walls))

    pinned = json.loads((HERE / "digests.json").read_text())
    digest = verified.digest
    if profile == "full" and seed == DEFAULT_SEED \
            and digest != pinned.get(name):
        problems.append(f"digest {digest} != pinned {pinned.get(name)}")

    full_shapes = wl.full_shapes(state)
    packed_input = max(spans.packed_bytes(*s) for s in full_shapes)
    final_cost = sum(probe.final_costs)
    # The peak ratio of the largest instance: on small ones (bench_grid's
    # 100x100) fixed allocations swamp the packed size.
    largest, largest_peak = max(
        ((size, peak) for n, peak, size in probe.calls
         if n == "factorize.mebf_factorize"), default=(1, 0))
    read_peaks = [peak for n, peak, _ in probe.calls
                  if n == "matio.read_matrix"]
    if len(probe.final_costs) != wl.factorizations(state):
        problems.append(f"{len(probe.final_costs)} factorizations observed, "
                        f"{wl.factorizations(state)} expected")
    # A run-level problem (digest, trace consistency) discredits every
    # operation of the run, so all of them count as failed.
    tally.errors += problems
    failed = tally.attempted if problems else tally.failed
    error_rate = failed / tally.attempted

    if trace:
        layer.update({
            "factorize.peak_mem_x": largest_peak / largest,
            "matio.read_peak_mb": max(read_peaks, default=0) / 1e6,
            "mem.packed_input_mb": packed_input / 1e6,
            "final_cost": final_cost,
            "error_rate": error_rate,
        })
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        rates = [wl.factorizations(state) / w for w in walls]
        metrics = {  # 0 only when no operation succeeded
            "wall_s": statistics.median(walls) if walls else 0.0,
            "runs_per_s": statistics.median(rates) if rates else 0.0,
            "peak_mem_mb": probe.op_peak / 1e6,
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}

    info = {
        "workload": name,
        "why": wl.why,
        "profile": profile,
        "env": environment(root, seed),
        "shape": list(verified.checked.shape) if verified.checked else None,
        "ones": verified.checked.ones if verified.checked else None,
        "packed_input_bytes": packed_input,
        "digest": digest,
        "timed_ops": len(walls),
        "walls": walls,
        "setup_runs": setups,
        "final_cost": final_cost,
        "error_rate": error_rate,
        "errors": tally.errors,
    }
    return {"result": {"correct": failed == 0, "attempted": tally.attempted,
                       "failed": failed, "metrics": metrics},
            "info": info}


def record(result: dict, trace: bool) -> None:
    """Print the readable summary and keep the run's record on disk."""
    info, res = result["info"], result["result"]
    env = info["env"]
    print(f"# workload {info['workload']} ({info['profile']}), seed "
          f"{env['seed']}, trace {int(trace)}: {info['why']}")
    print(f"# env nproc={env['nproc']} cpu={env['cpu']!r} python="
          f"{env['python']} numpy={env['numpy']} git={env['git_sha']}")
    print(f"# instance shape {info['shape']}, {info['ones']} ones, packed "
          f"input {info['packed_input_bytes'] / 1e6:.6g} MB; "
          f"{info['timed_ops']} timed operations")
    print(f"# final_cost {info['final_cost']} count; error_rate "
          f"{info['error_rate']:.6g} ratio ({res['failed']} of "
          f"{res['attempted']} failed); digest {info['digest']}")
    for name, metric in res["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for message in info["errors"]:
        print(f"# error: {message}")
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    out = STATE_DIR / (f"{info['workload']}-{info['profile']}-seed"
                       f"{env['seed']}-trace{int(trace)}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")


def tree_snapshot(root: Path) -> dict:
    """(size, mtime) of every file outside the benchmark's own state."""
    skip = {".git", ".perfbench", "__pycache__", ".pytest_cache",
            ".hypothesis"}
    snap = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for fname in filenames:
            st = os.stat(os.path.join(dirpath, fname))
            snap[os.path.join(dirpath, fname)] = (st.st_size, st.st_mtime_ns)
    return snap


def smoke(root: Path) -> bool:
    """Every workload once at tiny sizes, both modes; True when all pass.

    Checks that every metric prints under its BENCHMARK.json name and unit
    and that the operations leave nothing behind in the checkout.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = wanted[False] == END_TO_END and wanted[True] == PER_LAYER
    if not ok:
        print("# error: BENCHMARK.json metrics disagree with run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("# error: BENCHMARK.json workloads disagree with run.py")
        ok = False
    tmp_parent = STATE_DIR / "tmp"
    tmp_parent.mkdir(parents=True, exist_ok=True)
    before, tmp_before = tree_snapshot(root), set(tmp_parent.iterdir())
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(root, name, DEFAULT_SEED, 0.0, trace,
                                  profile="smoke", setup_repeats=1)
            record(result, trace)
            res = result["result"]
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"] or units != wanted[trace]:
                print(f"# error: {name} trace {int(trace)} failed")
                ok = False
    if set(tmp_parent.iterdir()) != tmp_before \
            or tree_snapshot(root) != before:
        print("# error: operations left files behind")
        ok = False
    print(json.dumps({"smoke": ok}))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so that temporary directories are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.smoke:
            return 0 if smoke(ROOT) else 1
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(ROOT, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record(result, bool(args.trace))
    print(json.dumps(result["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
