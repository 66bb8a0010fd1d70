"""Tests of the benchmark harness itself.

The smoke run and the missing-program run execute ``perfbench/run.py`` in
a subprocess, because the harness re-imports ``mebf`` from ``src/`` and
must not replace the modules the rest of the test session holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def _bench(args, cwd, **kwargs):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, **kwargs)


def test_smoke_prints_every_metric_and_leaves_no_files():
    proc = _bench(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": True}
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines()), name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] \
        == [w.why for w in run.WORKLOADS.values()]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "factorize_4k", "--seed", "0",
                   "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Matrix:
    pass


def test_self_time_subtracts_nested_spans():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(_Matrix, set(),
                                  clock=lambda: float(next(ticks)))
    count = recorder.wrap("boolmat.BinaryMatrix.count", lambda: 0)

    def rank1_cost():
        return count() + count()

    cost = recorder.wrap("boolmat.rank1_cost", rank1_cost)
    recorder.begin_op(0)     # t=0
    cost()                   # 1..6, with count at 2..3 and 4..5
    recorder.end_op()        # t=7
    cost()                   # outside an operation: not recorded
    per_op, calls, errors = run.layer_metrics(recorder, [0])
    out = per_op[0]
    assert errors == []
    assert calls == {"op": 1, "boolmat.rank1_cost": 1,
                     "boolmat.BinaryMatrix.count": 2}
    assert out["trace.wall_s"] == 7.0
    assert out["boolmat.rank1_cost.s"] == 3.0
    assert out["boolmat.count.s"] == 2.0
    assert out["boolmat.count.calls"] == 2
    assert out["boolmat.self_s"] == 5.0
    assert out["trace.unattributed_s"] == 2.0


def test_numpy_readers_agree(tmp_path):
    from workloads import read_coo, read_dense01
    (tmp_path / "d.txt").write_bytes(b"011\n100\n")
    (tmp_path / "c.txt").write_bytes(b"2 3 3\n1 2\n1 3\n2 1\n")
    dense = read_dense01(tmp_path / "d.txt")
    assert dense.astype(int).tolist() == [[0, 1, 1], [1, 0, 0]]
    assert (read_coo(tmp_path / "c.txt") == dense).all()
