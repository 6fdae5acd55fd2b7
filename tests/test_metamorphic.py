"""Metamorphic properties of the whole chain, from recording to records
(Chen, Cheung and Yiu 1998): transformations of the input whose effect on
the output is known exactly, without an oracle for the output itself."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from mfsig.cli import main
from mfsig.dataio import write_eeg_csv
from mfsig.mfdfa import MfdfaConfig, run_mfdfa
from mfsig.pipeline import RunConfig, analyze_recording
from mfsig.protocol import build_timeline
from mfsig.report import read_report_json
from mfsig.synth import fgn, white_noise

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


SIGN_SETTINGS = {
    "defaults": {},
    "dwt_bidirectional_emd": {"rhythm_method": "dwt", "bidirectional": True, "emd_drop": [1]},
    "no_envelope": {"use_envelope": False},
}


@pytest.mark.parametrize("settings", SIGN_SETTINGS.values(), ids=SIGN_SETTINGS.keys())
def test_sign_flip_leaves_records_bit_identical(settings):
    # every step is linear, or even in sign up to a magnitude or a square, and
    # IEEE rounding is symmetric in sign
    x = white_noise(N, seed=51)
    config = RunConfig(electrodes=["F3"], **settings)
    expected = [asdict(r) for r in analyze_recording({"F3": x}, FS, TIMELINE, config).records]
    records = analyze_recording({"F3": -x}, FS, TIMELINE, config).records
    assert [asdict(r) for r in records] == expected


@pytest.mark.parametrize("order", [1, 2, 3])
def test_polynomial_trend_below_the_detrending_order_leaves_mfdfa_unchanged(order):
    # DFA-m removes trends of degree m - 1 from the series, degree m from its
    # profile (Kantelhardt et al. 2001)
    x = fgn(8192, 0.7, seed=5)
    trend = np.polynomial.polynomial.polyval(np.linspace(-1.0, 1.0, x.size), np.ones(order))
    config = MfdfaConfig(detrend_order=order)
    expected, got = run_mfdfa(x, config), run_mfdfa(x + trend, config)
    assert np.abs(got.hurst.h - expected.hurst.h).max() <= 1e-14
    assert np.abs(got.log_fq - expected.log_fq).max() <= 5e-14


def analyze_csv(tmp_path, name, channels, electrodes, line_end=b"\n"):
    """``report.csv`` of ``mfsig analyze`` on the channels written in their order,
    each line of the file ended by line_end."""
    eeg, outdir = tmp_path / f"{name}.csv", tmp_path / name
    write_eeg_csv(eeg, channels)
    eeg.write_bytes(eeg.read_bytes().replace(b"\n", line_end))
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


def test_crlf_line_ends_leave_the_report_unchanged(tmp_path):
    channels = {"F3": white_noise(N, seed=45), "T4": white_noise(N, seed=46)}
    assert analyze_csv(tmp_path, "lf", channels, "F3,T4") == analyze_csv(
        tmp_path, "crlf", channels, "F3,T4", line_end=b"\r\n"
    )


def analyze_records(tmp_path, name, *flags):
    """The records of ``mfsig analyze`` of eeg.csv in tmp_path, and its report.csv."""
    outdir = tmp_path / name
    rc = main([
        "analyze", str(tmp_path / "eeg.csv"), "--fs", "256", "--outdir", str(outdir), *flags
    ])
    assert rc == 0
    records = [asdict(r) for r in read_report_json(outdir / "report.json").records]
    return records, (outdir / "report.csv").read_bytes()


def test_one_electrode_gives_its_records_of_the_full_run(tmp_path):
    # jobs are independent: the column a job reads is its electrode's alone
    write_eeg_csv(tmp_path / "eeg.csv", {
        e: white_noise(N, seed=47 + i) for i, e in enumerate(["F3", "O1", "T4"])
    })
    full, _ = analyze_records(tmp_path, "full", "--clips", "1", "--electrodes", "F3,O1,T4")
    alone, _ = analyze_records(tmp_path, "alone", "--clips", "1", "--electrodes", "O1")
    assert alone == [r for r in full if r["electrode"] == "O1"]
    assert len(alone) == 3 * 7  # three rhythms of the rest and six stimulus windows


def test_markers_restating_the_nominal_timeline_give_the_same_records(tmp_path):
    write_eeg_csv(tmp_path / "eeg.csv", {"F3": white_noise(N, seed=50)})
    markers = tmp_path / "markers.json"
    markers.write_text(json.dumps([
        {"label": c.label, "start_s": c.start_s, "end_s": c.end_s} for c in TIMELINE.conditions
    ]))
    nominal = analyze_records(tmp_path, "clips", "--clips", "1", "--electrodes", "F3")
    marked = analyze_records(tmp_path, "markers", "--markers", str(markers), "--electrodes", "F3")
    assert marked == nominal
