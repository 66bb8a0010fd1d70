"""The repository's pytest settings, run on throwaway test files, the
README's commands, parsed by the CLI's parser, the installed command's
entry points, and the CI workflow's test command."""

import importlib
import os
import shlex
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from mebf.cli import _build_parser

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
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
