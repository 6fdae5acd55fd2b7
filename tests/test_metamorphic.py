"""Metamorphic properties of the whole chain, from recording to records
(Chen, Cheung and Yiu 1998): transformations of the input whose effect on
the output is known exactly, without an oracle for the output itself."""

from dataclasses import asdict

import numpy as np
import pytest

from mfsig.cli import main
from mfsig.dataio import write_eeg_csv
from mfsig.pipeline import RunConfig, analyze_recording
from mfsig.protocol import build_timeline
from mfsig.synth import white_noise

FS = 256.0
TIMELINE = build_timeline(1)
N = int(TIMELINE.total_duration_s * FS)

SETTINGS = {
    "defaults": {},
    "dwt_bidirectional": {"rhythm_method": "dwt", "bidirectional": True},
    "emd": {"emd_drop": [1]},
    "no_envelope": {"use_envelope": False},
    "dwt_no_envelope": {"rhythm_method": "dwt", "use_envelope": False},
}


@pytest.mark.parametrize("settings", SETTINGS.values(), ids=SETTINGS.keys())
def test_power_of_two_scaling_leaves_records_bit_identical(settings):
    # on arrays, not through the CSV: write_eeg_csv rounds to 9 digits, so a
    # scaled file would not hold scaled samples
    channels = {"F3": white_noise(N, seed=41)}
    config = RunConfig(electrodes=["F3"], **settings)
    expected = [asdict(r) for r in analyze_recording(channels, FS, TIMELINE, config).records]
    for k in (-30, 7, 40):
        scaled = {e: np.ldexp(x, k) for e, x in channels.items()}
        records = analyze_recording(scaled, FS, TIMELINE, config).records
        assert [asdict(r) for r in records] == expected, k


def analyze_csv(tmp_path, name, channels, electrodes):
    """``report.csv`` of ``mfsig analyze`` on the channels written in their order."""
    eeg, outdir = tmp_path / f"{name}.csv", tmp_path / name
    write_eeg_csv(eeg, channels)
    rc = main([
        "analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", electrodes,
        "--workers", "1", "--outdir", str(outdir),
    ])
    assert rc == 0
    return (outdir / "report.csv").read_bytes()


def test_column_and_electrode_order_leave_the_report_unchanged(tmp_path):
    channels = {"F3": white_noise(N, seed=42), "T4": white_noise(N, seed=43)}
    reversed_channels = dict(reversed(channels.items()))
    assert analyze_csv(tmp_path, "forward", channels, "F3,T4") == analyze_csv(
        tmp_path, "reversed", reversed_channels, "T4,F3"
    )


def test_samples_after_the_last_condition_leave_the_report_unchanged(tmp_path):
    x = white_noise(N + 1000, seed=44)
    assert analyze_csv(tmp_path, "exact", {"F3": x[:N]}, "F3") == analyze_csv(
        tmp_path, "longer", {"F3": x}, "F3"
    )
