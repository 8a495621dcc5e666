"""The suite's own pytest configuration, run on a test written for the purpose."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_negative(x):
    assert x < 0
"""


def test_a_failing_hypothesis_test_is_one_plain_failure(tmp_path):
    # hypothesis imports more modules to explain a failing example; a
    # deprecation one of them raises must not end the session as exit 3
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed" in output.splitlines()[-1]
