"""The suite's own configuration: a failing property test is reported as one
failure, with its falsifying example, and the tests after it still run.

`pyproject.toml` turns every warning into an error, and hypothesis raises a
`DeprecationWarning` of its own ("mypy_extensions.TypedDict is deprecated")
while it reports a falsifying example. Unless that one warning is only
shown, the pytest run ends in an INTERNALERROR that prints no example
and runs nothing more.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_after_it():
    pass
"""


def test_a_falsified_property_is_one_failure_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
