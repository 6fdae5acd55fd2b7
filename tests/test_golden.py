"""Golden outputs: small runs of the CLI against the files committed in
tests/golden/, which ``tests/golden/regenerate.py`` alone writes.

CSV files must match byte for byte. JSON files are compared after parsing:
every non-float value equal, every float within 1e-12 relative, with an
absolute floor of 1e-300 for values near 0.
"""

import json
import math
from pathlib import Path

import pytest

from golden.regenerate import CASES, GOLDEN_DIR, run_case, write_inputs

REL_TOL = 1e-12
ABS_FLOOR = 1e-300


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    write_inputs(workdir)
    return workdir


def files_under(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def assert_json_close(got, expected, where: str) -> None:
    if isinstance(expected, float) and isinstance(got, float):
        same = (math.isnan(got) and math.isnan(expected)) or math.isclose(
            got, expected, rel_tol=REL_TOL, abs_tol=ABS_FLOOR
        )
        assert same, f"{where}: {got!r} != {expected!r}"
    elif isinstance(expected, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(expected), where
        for key in expected:
            assert_json_close(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(got, list):
        assert len(got) == len(expected), where
        for i, (g, e) in enumerate(zip(got, expected)):
            assert_json_close(g, e, f"{where}[{i}]")
    else:
        assert type(got) is type(expected) and got == expected, f"{where}: {got!r} != {expected!r}"


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_golden_files(workdir, case):
    out, golden = run_case(case, workdir), GOLDEN_DIR / case
    assert files_under(out) == files_under(golden)
    for name in files_under(golden):
        got, expected = out / name, golden / name
        if name.endswith(".json"):
            assert_json_close(json.loads(got.read_text()), json.loads(expected.read_text()), name)
        else:
            assert got.read_bytes() == expected.read_bytes(), name
