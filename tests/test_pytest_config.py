"""The repo's pytest settings report a failing property test as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 0
"""


def test_failing_property_is_a_failure_not_an_internal_error(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    # exit code 3 is pytest's INTERNALERROR, which hides every later test
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
