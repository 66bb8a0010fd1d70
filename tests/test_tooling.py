"""The repository's pytest settings, run on throwaway test files, the
README's commands, parsed by the CLI's parser, its library example, run,
its benchmark workloads and the line ends of its file grammar, the
committed benchmark runs, the installed command's entry points, the
package's syntax at its Python floor, the CI workflow's test command,
and the one harness that reads every memory peak of the tests."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from mebf import SimulationSpec, binarize, matio, simulate, write_matrix
from mebf.cli import _build_parser

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
BENCHMARK = PYPROJECT.parent / "BENCHMARK.json"
ROADMAP = PYPROJECT.parent / "ROADMAP.md"
WORKFLOW = PYPROJECT.parent / ".github" / "workflows" / "tests.yml"

FAILING_TESTS = '''
import warnings

from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(value):
    assert value < 0


def test_deprecation_is_an_error():
    warnings.warn("old", DeprecationWarning)
'''


def test_failing_hypothesis_test_is_named(tmp_path):
    # a failing @given test makes hypothesis import libcst, whose own
    # DeprecationWarning must not stop the run with INTERNALERROR (exit 3);
    # DeprecationWarnings from any other module stay errors
    (tmp_path / "test_fail_case.py").write_text(FAILING_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_fail_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED test_fail_case.py::test_fails" in run.stdout
    assert ("FAILED test_fail_case.py::test_deprecation_is_an_error"
            in run.stdout)


def readme_commands() -> list[str]:
    """Every ``mebf ...`` line of the README's CLI block, with its ``\\``
    continuations joined and its ``#`` comment dropped."""
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    lines = (line.split("#", 1)[0].strip()
             for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("mebf ")]


def test_readme_commands_parse():
    # a renamed or removed flag must not leave the README stale
    commands = readme_commands()
    assert [c.split()[1] for c in commands] == [
        "factorize", "simulate", "simulate", "bench", "denoise", "metrics"]
    parser = _build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    # a renamed or removed name must not leave the README's example stale
    block = README.read_text().split("## Library", 1)[1].split(
        "```python\n", 1)[1].split("```", 1)[0]
    x, _, _ = simulate(SimulationSpec(40, 30, 3, 0.2, 0.01, seed=0))
    real = np.random.default_rng(0).uniform(0, 1, (40, 30))
    write_matrix(x, tmp_path / "x.txt", "dense01")
    write_matrix(real, tmp_path / "x.csv", "csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    assert printed[2] == str(binarize(real, 0.5).count())
    assert printed[3] == "(40, 30) (40, 3) (3, 30)"


def test_readme_lists_the_benchmark_workloads():
    # a workload added to or dropped from the benchmark must not leave the
    # README's list stale
    tests = README.read_text().split("## Tests", 1)[1].split("\n## ")[0]
    listed = re.findall(r"^- `(\w+)`:", tests, re.MULTILINE)
    declared = [w["name"] for w in json.loads(BENCHMARK.read_text())[
        "workloads"]]
    assert listed == declared
    for text in ("python3 perfbench/run.py --workload <name> --seed 0 "
                 "--seconds 10 --trace 0", "python3 perfbench/run.py "
                 "--smoke", "perfbench/README.md"):
        assert text in tests, text


def test_committed_bench_runs_are_whole_and_correct():
    # each BENCH_*.json lists the perfbench runs a change quotes: one entry
    # per run, its result and environment without per-operation lists
    spec = json.loads(BENCHMARK.read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    paths = sorted(PYPROJECT.parent.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        entries = json.loads(path.read_text())
        assert isinstance(entries, list) and entries, path.name
        for entry in entries:
            assert set(entry) == {"side", "workload", "profile", "seed",
                                  "result", "env"}, path.name
            assert entry["side"] in ("parent", "change")
            assert entry["workload"] in workloads
            result = entry["result"]
            assert result["correct"] is True and result["failed"] == 0
            assert metrics <= set(result["metrics"])
            assert re.fullmatch(r"[0-9a-f]{40}", entry["env"]["git_sha"])
        # within each workload, runs come in consecutive parent/change
        # pairs, and each side is one commit, not the other side's
        sides = {}
        for entry in entries:
            sides.setdefault(entry["workload"], []).append(entry["side"])
        for workload, order in sides.items():
            assert len(order) % 2 == 0, (path.name, workload)
            for pair in zip(order[::2], order[1::2]):
                assert sorted(pair) == ["change", "parent"], (path.name,
                                                              workload)
        shas = {side: {e["env"]["git_sha"] for e in entries
                       if e["side"] == side} for side in ("parent", "change")}
        assert len(shas["parent"]) == len(shas["change"]) == 1, path.name
        assert shas["parent"] != shas["change"], path.name


# the ASCII names of the control bytes 0x00-0x1f
CONTROL_NAMES = ("NUL SOH STX ETX EOT ENQ ACK BEL BS HT LF VT FF CR SO SI DLE "
                 "DC1 DC2 DC3 DC4 NAK SYN ETB CAN EM SUB ESC FS GS RS "
                 "US").split()


def test_readme_names_every_line_end_the_reader_accepts():
    # a break byte added to or dropped from the reader must not leave the
    # README's grammar stale
    formats = README.read_text().split("## File formats", 1)[1].split(
        "\n## ")[0]
    [names] = re.findall(r"\(a lone ([^)]*) also ends\s+a line", formats)
    named = [CONTROL_NAMES.index(name) for name in re.findall(r"[A-Z]+",
                                                               names)]
    assert sorted(named) == sorted(matio._OTHER_BREAKS)


def test_readme_install_names_the_build_requirements():
    # an install without build isolation needs these already installed
    install = README.read_text().split("## Install", 1)[1].split("\n## ")[0]
    requires = tomllib.loads(PYPROJECT.read_text())["build-system"][
        "requires"]
    assert requires
    for requirement in requires:
        assert f"`{requirement}`" in install, requirement
    assert "PYTHONPATH=src python -m mebf.cli " in install


def test_readme_names_the_python_and_numpy_floors():
    # the popcount needs Python 3.10 (int.bit_count) and numpy 2.0
    # (np.bitwise_count); CI runs one Python, so only this keeps the two
    # files together
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    python = project["requires-python"].removeprefix(">=")
    [numpy] = [d.removeprefix("numpy>=") for d in project["dependencies"]
               if d.startswith("numpy>=")]
    assert f"Requires Python >= {python} and numpy >= {numpy} " in \
        README.read_text()


def test_package_parses_at_the_python_floor():
    # CI runs one newer Python, so syntax the floor lacks would pass it;
    # ast's feature_version rejects such syntax, e.g. 3.11's except*
    floor = tomllib.loads(PYPROJECT.read_text())["project"][
        "requires-python"].removeprefix(">=")
    version = tuple(int(part) for part in floor.split("."))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=version)
    modules = sorted((PYPROJECT.parent / "src" / "mebf").glob("*.py"))
    assert modules
    for module in modules:
        ast.parse(module.read_text(), str(module), feature_version=version)


def test_console_script_resolves():
    # tier-1 runs from src/ without installing, so a renamed entry point
    # would break the installed mebf command while every other test passes
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    module, _, name = scripts["mebf"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_module_runs_as_a_command():
    path = [str(PYPROJECT.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-m", "mebf.cli", "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: mebf ")


def test_workflow_runs_the_tier_1_command():
    # CI and ROADMAP.md name one test command; neither may drift alone
    command = ROADMAP.read_text().split("**Tier-1 verify:** `", 1)[1]
    command = command.split("`", 1)[0]
    assert command.startswith("PYTHONPATH=src")
    assert command in WORKFLOW.read_text()


def test_workflow_pins_every_package():
    # the memory bounds and digests hold for the versions they were
    # measured with, so CI installs exactly those
    installs = [shlex.split(line.split("pip install", 1)[1])
                for line in WORKFLOW.read_text().splitlines()
                if "pip install" in line]
    assert installs
    packages = [arg for args in installs for arg in args
                if not arg.startswith("-")]
    assert {p.split("==")[0] for p in packages} >= {"numpy", "pytest",
                                                    "hypothesis"}
    for package in packages:
        name, _, version = package.partition("==")
        assert name and version.replace(".", "").isdigit(), package


def test_workflow_job_has_a_timeout():
    # a hung run would otherwise hold a runner for GitHub's default 360 min
    limits = [line.split(":", 1)[1].strip()
              for line in WORKFLOW.read_text().splitlines()
              if line.strip().startswith("timeout-minutes:")]
    assert len(limits) == 1 and 0 < int(limits[0]) <= 60, limits


def test_peaks_are_measured_one_way():
    # every memory bound reads its peak through reference.traced_peak, so
    # one place decides when tracing starts, what the peak is read above,
    # and that tracing stops even when the call raises
    users = set()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if "tracemalloc" in names:
                users.add(path.name)
    assert users == {"reference.py"}, sorted(users)
