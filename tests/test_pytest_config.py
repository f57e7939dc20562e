"""The repository's pytest settings keep hypothesis's failure report."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """A falsified @given test ends in the usual report: the
    warnings-as-errors filters must not turn hypothesis's report path into
    an INTERNALERROR."""
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
