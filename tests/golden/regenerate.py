"""The golden cases, and the one script that writes their expected files.

    PYTHONPATH=src python tests/golden/regenerate.py

run from the root of a checkout (or without PYTHONPATH where mfsig is
installed). Each case runs the ``mfsig`` CLI in a scratch directory on
inputs made from a seed (no input file is committed), and its output
directory is copied to ``tests/golden/<case>/``; ``tests/test_golden.py``
runs the same cases and compares. Regenerate only when an output is meant
to change, and say in CHANGES.md which file moved, by how much, and why.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from mfsig.cli import main
from mfsig.dataio import write_eeg_csv, write_series_csv
from mfsig.protocol import build_timeline
from mfsig.synth import binomial_cascade

GOLDEN_DIR = Path(__file__).resolve().parent

FS = 256
EEG_SEED = 20
ELECTRODES = ("F3", "T4")

# windows of 3149, 3251 and 3354 samples at 256 Hz, none a multiple of 32
MARKERS = [
    {"label": "rest", "start_s": 0.0, "end_s": 12.3},
    {"label": "clip1_original", "start_s": 13.0, "end_s": 25.7},
    {"label": "clip1_band1", "start_s": 26.0, "end_s": 39.1},
]

_ANALYZE = ["analyze", "eeg.csv", "--fs", str(FS), "--electrodes", ",".join(ELECTRODES)]

# case -> the CLI arguments that write its directory, named by "{out}"
CASES = {
    "defaults": [*_ANALYZE, "--clips", "1", "--outdir", "{out}"],
    "dwt_bidirectional_emd": [
        *_ANALYZE, "--clips", "1", "--rhythm-method", "dwt", "--bidirectional",
        "--emd-drop", "1", "--outdir", "{out}",
    ],
    "no_envelope": [*_ANALYZE, "--clips", "1", "--no-envelope", "--outdir", "{out}"],
    "markers": [*_ANALYZE, "--markers", "markers.json", "--outdir", "{out}"],
    "cascade": ["mfdfa", "cascade.csv", "-o", "{out}/result.json", "--csv", "{out}/fq.csv"],
}


def write_inputs(workdir: Path) -> None:
    """eeg.csv (one clip's nominal timeline, two electrodes of white noise
    from ``EEG_SEED``), markers.json and cascade.csv, in workdir."""
    n = int(build_timeline(1).total_duration_s * FS)
    rng = np.random.default_rng(EEG_SEED)
    write_eeg_csv(workdir / "eeg.csv", {e: rng.standard_normal(n) for e in ELECTRODES})
    (workdir / "markers.json").write_text(json.dumps(MARKERS))
    write_series_csv(workdir / "cascade.csv", binomial_cascade(12, 0.75))


def run_case(case: str, workdir: Path) -> Path:
    """Run one case on the inputs in workdir, from workdir so that every
    path the outputs record is relative; returns its output directory."""
    out = workdir / case
    out.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rc = main([arg.replace("{out}", case) for arg in CASES[case]])
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"golden case {case} exited {rc}")
    return out


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        for case in CASES:
            shutil.rmtree(GOLDEN_DIR / case, ignore_errors=True)
            shutil.copytree(run_case(case, workdir), GOLDEN_DIR / case)


if __name__ == "__main__":
    regenerate()
