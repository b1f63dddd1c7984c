"""The test suite's own warning policy, from ``pyproject.toml``, run on a sample file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

SAMPLE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_another_deprecation():
    warnings.warn("some other API is deprecated", DeprecationWarning)


def test_after_them():
    pass
'''


def test_a_failing_property_test_is_one_failure_and_the_run_goes_on(tmp_path):
    # hypothesis explains a failure through libcst, whose mypy_extensions deprecation
    # warning would otherwise end the whole run as an INTERNALERROR
    (tmp_path / "test_sample.py").write_text(SAMPLE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED test_sample.py::test_a_failing_property" in done.stdout
    assert "FAILED test_sample.py::test_another_deprecation" in done.stdout  # still an error
    assert done.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
