"""The repository's pytest settings, run on throwaway test files."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
