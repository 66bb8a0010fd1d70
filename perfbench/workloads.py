"""The benchmark's workloads, their inputs and their output checks.

Every check recomputes what it can with plain numpy from the written files
or returned factors, never through ``mebf``, so a kernel that computes a
wrong answer fast fails its operation instead of improving a metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    """An operation's output disagrees with its independent recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def bool_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product of dense 0/1 arrays (float32 sums are exact here)."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def planted(n: int, m: int, k: int, p0: float, p: float, seed: int):
    """Dense (X, U, V) drawn in the order mebf's simulator documents.

    One PCG64 stream seeded with ``seed`` draws U, then V, then the flip
    mask E, each row-major and compared against its rate; X = (U V) xor E.
    """
    rng = np.random.default_rng(seed)
    u = rng.random((n, k)) < p0
    v = rng.random((k, m)) < p0
    e = rng.random((n, m)) < p
    return bool_mm(u, v) ^ e, u, v


def read_dense01(path: Path) -> np.ndarray:
    data = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    require(data.size > 0 and data[-1] == 10, f"{path.name}: not LF-ended")
    width = int(np.argmax(data == 10))
    require(data.size % (width + 1) == 0, f"{path.name}: ragged rows")
    rows = data.reshape(-1, width + 1)
    require(bool((rows[:, -1] == 10).all()), f"{path.name}: ragged rows")
    body = rows[:, :width]
    require(bool(((body == 48) | (body == 49)).all()),
            f"{path.name}: characters other than 0 and 1")
    return body == 49


def read_coo(path: Path) -> np.ndarray:
    tokens = np.array(path.read_bytes().split(), dtype=np.int64)
    n, m, nnz = (int(t) for t in tokens[:3])
    coords = tokens[3:].reshape(-1, 2) - 1
    require(len(coords) == nnz, f"{path.name}: header nnz disagrees")
    dense = np.zeros((n, m), dtype=bool)
    dense[coords[:, 0], coords[:, 1]] = True
    require(int(dense.sum()) == nnz, f"{path.name}: duplicate coordinates")
    return dense


def non_increasing(values) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


@dataclass
class Checked:
    """What a full check learned about one operation's outputs."""

    shape: tuple
    ones: int


@dataclass(frozen=True)
class Planted:
    """A planted instance and the factorization knobs applied to it."""

    n: int
    m: int
    k: int
    p0: float
    p: float
    t: float
    k_max: int

    def draw(self, seed: int):
        return planted(self.n, self.m, self.k, self.p0, self.p, seed)


class Workload:
    """One named set of inputs and the operation timed on them.

    ``prepare`` builds the in-process inputs (part of set-up), ``run`` is
    the timed operation and returns its outputs.  After the clock stops,
    ``digest`` hashes every output (exit codes and stdout included) and
    ``check`` recomputes them independently.  The harness runs ``check`` on
    the first operation of a run and on any whose digest differs from it,
    so every later operation is checked by being byte-identical to a fully
    checked one.  ``tmp`` is a fresh directory per operation.
    """

    name = ""
    why = ""
    profiles: dict = {}
    required: tuple = ()

    def prepare(self, program, seed: int, profile: str):
        raise NotImplementedError

    def run(self, state, tmp: Path):
        raise NotImplementedError

    def digest(self, state, tmp: Path, output) -> str:
        raise NotImplementedError

    def check(self, state, tmp: Path, output) -> Checked:
        raise NotImplementedError

    def factorizations(self, state) -> int:
        """Factorizations completed by one operation."""
        return 1

    def full_shapes(self, state) -> set:
        """Shapes of the n x m data matrices one operation works on."""
        params = state.params
        return {(params.n, params.m)}


BOOLMAT_KERNELS = (
    "boolmat.utl_rearrange", "boolmat.col_dot_counts",
    "boolmat.row_dot_counts", "boolmat.rank1_cost", "boolmat.rank1_product",
    "boolmat.elementwise", "boolmat.complement",
    "boolmat.BinaryMatrix.count", "boolmat.BinaryVector.count",
    "boolmat.BinaryMatrix.col_sums", "boolmat.BinaryMatrix.row_sums",
    "boolmat.BinaryMatrix.col",
)
FACTORIZE_SPANS = ("factorize.mebf_factorize",
                   "factorize.bidirectional_growth") + BOOLMAT_KERNELS
REPORT_SPANS = ("metrics.build_report", "metrics.coverage_rate",
                "metrics.density", "metrics.reconstruction_error",
                "boolmat.bool_product", "simulate.simulate")


@dataclass
class FactorizeState:
    program: object
    params: Planted
    seed: int
    dense: np.ndarray
    x: object
    cfg: object


class Factorize(Workload):
    name = "factorize_4k"
    why = ("Library mebf_factorize on a planted 4000x4000 instance: boolmat "
           "kernels and the factorize loop do nearly all the work, with no "
           "file I/O.")
    profiles = {
        "full": Planted(4000, 4000, 5, 0.2, 0.01, 0.8, 10),
        "smoke": Planted(60, 50, 3, 0.3, 0.01, 0.8, 4),
    }
    required = FACTORIZE_SPANS

    def prepare(self, program, seed, profile):
        params = self.profiles[profile]
        dense, _, _ = params.draw(seed)
        mebf = program.package
        return FactorizeState(program, params, seed, dense,
                              mebf.BinaryMatrix.from_dense(dense),
                              mebf.MebfConfig(t=params.t,
                                              k_max=params.k_max))

    def run(self, state, tmp):
        return state.program.package.mebf_factorize(state.x, state.cfg)

    def check(self, state, tmp, result):
        require(non_increasing(result.cost_history),
                "cost_history increases")
        require(strictly_decreasing(result.residual_history),
                "residual_history does not strictly decrease")
        a, b = result.A.to_dense(), result.B.to_dense()
        cost = int((state.dense ^ bool_mm(a, b)).sum())
        require(result.cost_history and cost == result.cost_history[-1],
                f"numpy cost {cost} != final cost_history entry")
        return Checked(state.dense.shape, int(state.dense.sum()))

    def digest(self, state, tmp, result):
        digest = hashlib.sha256()
        digest.update(np.packbits(result.A.to_dense(), axis=1).tobytes())
        digest.update(np.packbits(result.B.to_dense(), axis=1).tobytes())
        digest.update(json.dumps([
            list(result.cost_history), list(result.residual_history),
            result.iterations, result.weak_signal_uses]).encode())
        return digest.hexdigest()


@dataclass
class CliState:
    program: object
    params: Planted
    seed: int


def _main(program, argv) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.modules["cli"].main(argv)
    return code, out.getvalue()


class CliPipeline(Workload):
    """simulate -> factorize -> metrics through ``mebf.cli.main``."""

    fmt = "dense01"
    required = (("cli.main", "cli.cmd_simulate", "cli.cmd_factorize",
                 "cli.cmd_metrics", "matio.read_matrix", "matio.write_matrix",
                 "metrics.report_from_factors")
                + FACTORIZE_SPANS + REPORT_SPANS)

    def prepare(self, program, seed, profile):
        return CliState(program, self.profiles[profile], seed)

    def run(self, state, tmp):
        p, f = state.params, {name: str(tmp / name) for name in (
            "x.txt", "u.txt", "v.txt", "a.txt", "b.txt", "report.json",
            "metrics.json")}
        fmt = ["--format", self.fmt]
        sim = _main(state.program, [
            "simulate", "--n", str(p.n), "--m", str(p.m), "--k", str(p.k),
            "--p0", repr(p.p0), "--p", repr(p.p), "--seed", str(state.seed),
            "--out", f["x.txt"], *fmt, "--out-a", f["u.txt"],
            "--out-b", f["v.txt"]])
        fac = _main(state.program, [
            "factorize", "--input", f["x.txt"], *fmt, "--t", repr(p.t),
            "--k", str(p.k_max), "--out-a", f["a.txt"], "--out-b",
            f["b.txt"], "--report", f["report.json"]])
        met = _main(state.program, [
            "metrics", "--input", f["x.txt"], *fmt, "--a", f["a.txt"],
            "--b", f["b.txt"], "--u", f["u.txt"], "--v", f["v.txt"],
            "--report", f["metrics.json"]])
        return [sim[0], fac[0], met[0]], fac[1]

    def check(self, state, tmp, output):
        codes, stdout = output
        require(codes == [0, 0, 0], f"exit codes {codes}")
        x_exp, u_exp, v_exp = state.params.draw(state.seed)
        x = (read_dense01 if self.fmt == "dense01" else read_coo)(
            tmp / "x.txt")
        u, v = read_dense01(tmp / "u.txt"), read_dense01(tmp / "v.txt")
        a, b = read_dense01(tmp / "a.txt"), read_dense01(tmp / "b.txt")
        require(np.array_equal(x, x_exp) and np.array_equal(u, u_exp)
                and np.array_equal(v, v_exp),
                "simulated files differ from the planted draw")

        report_bytes = (tmp / "report.json").read_bytes()
        report = json.loads(report_bytes)
        history = report["cost_history"]
        require(stdout == " ".join(map(str, history)) + "\n",
                "stdout cost trace != report cost_history")
        require(non_increasing(history), "cost_history increases")
        cost = int((x ^ bool_mm(a, b)).sum())
        require(history and cost == report["final_cost"] == history[-1],
                f"numpy cost {cost} != report final_cost")

        # With --u/--v the rebuilt report gains exactly one leading line,
        # the reconstruction error; every other byte must match.
        metrics_bytes = (tmp / "metrics.json").read_bytes()
        lines = metrics_bytes.split(b"\n")
        require(lines[1].startswith(b'  "reconstruction_error": '),
                "metrics report lacks reconstruction_error")
        require(b"\n".join(lines[:1] + lines[2:]) == report_bytes,
                "metrics report differs from the factorize report")
        truth = bool_mm(u, v)
        expected_err = int((truth ^ bool_mm(a, b)).sum()) / int(truth.sum())
        require(json.loads(metrics_bytes)["reconstruction_error"]
                == expected_err, "reconstruction_error disagrees with numpy")

        return Checked(x.shape, int(x.sum()))

    def digest(self, state, tmp, output):
        codes, stdout = output
        digest = hashlib.sha256(json.dumps([codes, stdout]).encode())
        for name in ("x.txt", "u.txt", "v.txt", "a.txt", "b.txt",
                     "report.json", "metrics.json"):
            digest.update((tmp / name).read_bytes())
        return digest.hexdigest()


class CliDense01(CliPipeline):
    name = "cli_dense01_2k"
    why = ("The README pipeline at 2000x2000 in dense01: matio parsing and "
           "formatting dominate, large writes beside large reads.")
    profiles = {
        "full": Planted(2000, 2000, 5, 0.2, 0.01, 0.8, 10),
        "smoke": Planted(40, 30, 3, 0.3, 0.01, 0.8, 4),
    }


class CliCooTall(CliPipeline):
    name = "cli_coo_tall"
    why = ("The same pipeline in coo on a tall sparse 16000x500 matrix: the "
           "coo reader and writer, column-side kernels, the weak fallback.")
    fmt = "coo"
    profiles = {
        "full": Planted(16000, 500, 12, 0.06, 0.003, 0.3, 20),
        "smoke": Planted(160, 10, 3, 0.3, 0.01, 0.3, 4),
    }


@dataclass(frozen=True)
class Grid:
    scenarios: tuple  # preset names; empty means the whole preset grid
    replicates: int


@dataclass
class GridState:
    program: object
    params: Grid
    seed: int
    presets: list


class BenchGrid(Workload):
    name = "bench_grid"
    why = ("mebf bench over the 8-scenario preset grid (100^2 and 1000^2): "
           "many small factorizations, so per-call overhead, simulate and "
           "reports matter.")
    profiles = {
        "full": Grid((), 2),
        "smoke": Grid(("100x100_d0.2_n0", "100x100_d0.4_n0.01"), 1),
    }
    required = (("cli.main", "cli.cmd_bench", "simulate.preset_grid",
                 "simulate.replicate_seed") + FACTORIZE_SPANS + REPORT_SPANS)

    def prepare(self, program, seed, profile):
        params = self.profiles[profile]
        presets = program.modules["simulate"].preset_grid()
        if params.scenarios:
            presets = [sc for sc in presets if sc["name"] in params.scenarios]
        return GridState(program, params, seed, presets)

    def run(self, state, tmp):
        scenarios = ",".join(state.params.scenarios) or "all"
        return _main(state.program, [
            "bench", "--scenarios", scenarios, "--replicates",
            str(state.params.replicates), "--seed", str(state.seed),
            "--out", str(tmp / "bench.csv")])

    def factorizations(self, state):
        return len(state.presets) * state.params.replicates

    def full_shapes(self, state):
        return {(sc["n"], sc["m"]) for sc in state.presets}

    def _rows(self, tmp):
        """CSV lines split into fields, and the seconds column's index."""
        rows = [line.split(",") for line in
                (tmp / "bench.csv").read_text(encoding="ascii").splitlines()]
        return rows, rows[0].index("seconds")

    def check(self, state, tmp, output):
        code, _ = output
        require(code == 0, f"exit code {code}")
        rows, column = self._rows(tmp)
        require(len(rows) == 1 + self.factorizations(state),
                f"{len(rows) - 1} CSV rows, expected "
                f"{self.factorizations(state)}")
        require(all(float(row[column]) > 0 for row in rows[1:]),
                "non-positive seconds")
        ones = sum(
            int(planted(sc["n"], sc["m"], sc["k"], sc["p0"], sc["p"],
                        state.seed + rep)[0].sum())
            for sc in state.presets for rep in range(state.params.replicates))
        return Checked(tuple(sorted(self.full_shapes(state))), ones)

    def digest(self, state, tmp, output):
        """Hash of the exit code and the CSV without its seconds column."""
        code, _ = output
        rows, column = self._rows(tmp)
        text = "\n".join(",".join(f for i, f in enumerate(row) if i != column)
                         for row in rows)
        return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


WORKLOADS = {wl.name: wl for wl in (Factorize(), CliDense01(), CliCooTall(),
                                    BenchGrid())}
