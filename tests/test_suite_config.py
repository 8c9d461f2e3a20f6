"""The suite's own pytest configuration reports a failing Hypothesis test as
an ordinary failure.

Hypothesis reports a failure through `hypothesis.extra._patching`, whose
`libcst` import warns that `mypy_extensions.TypedDict` is deprecated.  Under
`filterwarnings = ["error"]` alone that warning aborted the whole session
with INTERNALERROR, leaving every later test unrun and unreported.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    (tmp_path / "test_hypothesis_failure.py").write_text(FAILING_TEST, "utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", str(tmp_path / "test_hypothesis_failure.py"),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
