"""The repository's pytest settings: warnings that fail tests, and the
report of a failing property test."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_property(x):
    assert x < 5


def test_own_deprecation():
    warnings.warn("old call", DeprecationWarning)
'''


def test_failing_property_shows_example_and_warnings_still_fail(tmp_path):
    # hypothesis imports libcst to report a failure, and libcst warns on
    # import; that warning alone must not turn the report into an INTERNALERROR
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property(" in out
    assert "FAILED test_sample.py::test_own_deprecation - DeprecationWarning: old call" in out
