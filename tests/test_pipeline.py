"""analyze_recording batches every rhythm series of one electrode's windows of
one clip and one length; its records must equal those of one window at a time."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from mfsig import bands, pipeline
from mfsig.cli import main
from mfsig.dataio import read_eeg_csv, write_eeg_csv
from mfsig.emd import emd_denoise
from mfsig.errors import AnalysisError
from mfsig.mfdfa import MfdfaConfig, run_mfdfa, run_mfdfa_batch
from mfsig.pipeline import RunConfig, analyze_recording
from mfsig.protocol import build_timeline, segment_recording, timeline_from_markers
from mfsig.report import WidthRecord, read_report_json, record_sort_key
from mfsig.spectrum import fit_spectrum, singularity_spectrum
from mfsig.synth import white_noise

FS = 256.0


def one_window_at_a_time(channels, timeline, config):
    """The records analyze_recording should return, built window by window:
    one rhythm_series of the window, then run_mfdfa and fit_spectrum of each
    of its three rows."""
    mfdfa_config = MfdfaConfig(
        detrend_order=config.detrend_order, bidirectional=config.bidirectional
    )
    conditions = [timeline.baseline()] + timeline.stimulus_conditions()
    rhythms = sorted(bands.RHYTHMS)
    records = []
    for electrode in config.electrodes:
        for cond, window in segment_recording(channels[electrode], FS, conditions):
            rows = bands.rhythm_series(window, FS, config.rhythm_method, config.use_envelope)
            for name, row in zip(rhythms, rows):
                result = run_mfdfa(row, mfdfa_config)
                fit = fit_spectrum(singularity_spectrum(result.hurst))
                flags = [
                    ("nonconcave", not fit.concave),
                    ("monofractal_degenerate", fit.monofractal_degenerate),
                    ("h_nonmonotone", not result.hurst.monotone),
                ]
                records.append(WidthRecord(
                    subject_id="S01", electrode=electrode, rhythm=name, condition=cond.label,
                    w=fit.width, fit_a=fit.a, fit_b=fit.b, alpha0=fit.alpha0,
                    h2_r2=float(result.hurst.r2[result.hurst.index(2.0)]),
                    flags=";".join(flag for flag, on in flags if on),
                ))
    return records


@pytest.fixture
def batch_shapes(monkeypatch):
    """(series, samples) of every MFDFA batch the pipeline runs in this process."""
    shapes = []

    def spy(samples, config=None):
        shapes.append(samples.shape)
        return run_mfdfa_batch(samples, config)

    monkeypatch.setattr(pipeline, "run_mfdfa_batch", spy)
    return shapes


@pytest.mark.parametrize("bidirectional", [False, True], ids=["unidirectional", "bidirectional"])
def test_clip_batch_equals_one_window_at_a_time(bidirectional, batch_shapes):
    timeline = build_timeline(1)
    n = int(timeline.total_duration_s * FS)
    channels = {"F3": white_noise(n, seed=3), "T4": white_noise(n, seed=4)}
    config = RunConfig(bidirectional=bidirectional, electrodes=["F3", "T4"])
    records = analyze_recording(channels, FS, timeline, config).records
    # per electrode: the rest baseline, then the clip's six windows x three rhythms
    assert batch_shapes == [(3, 15360), (18, 5120)] * 2
    expected = one_window_at_a_time(channels, timeline, config)
    assert [asdict(r) for r in records] == [asdict(r) for r in expected]


def test_clip_with_windows_of_two_lengths_splits_by_length(tmp_path, batch_shapes):
    markers = [
        {"label": "rest", "start_s": 0.0, "end_s": 60.0},
        {"label": "clip1_original", "start_s": 60.0, "end_s": 80.0},
        {"label": "clip1_band3", "start_s": 85.0, "end_s": 95.0},
        {"label": "clip1_band2", "start_s": 100.0, "end_s": 120.0},
    ]
    eeg, markers_path, outdir = tmp_path / "eeg.csv", tmp_path / "markers.json", tmp_path / "out"
    write_eeg_csv(eeg, {"F3": white_noise(int(120 * FS), seed=3)})
    markers_path.write_text(json.dumps(markers))
    rc = main([
        "analyze", str(eeg), "--fs", "256", "--markers", str(markers_path),
        "--electrodes", "F3", "--workers", "1", "--outdir", str(outdir),
    ])
    assert rc == 0
    assert batch_shapes == [(3, 15360), (6, 5120), (3, 2560)]

    channels, timeline = read_eeg_csv(eeg), timeline_from_markers(markers)
    expected = one_window_at_a_time(channels, timeline, RunConfig(electrodes=["F3"]))
    emitted = read_report_json(outdir / "report.json").records
    assert len(emitted) == 4 * 3
    assert [asdict(r) for r in emitted] == [
        asdict(r) for r in sorted(expected, key=record_sort_key)
    ]
    # records come back in job order: the rest, the 20 s windows, the 10 s one
    job_order = ["rest", "clip1_original", "clip1_band2", "clip1_band3"]
    by_job = sorted(expected, key=lambda r: job_order.index(r.condition))
    for workers in (1, 2):
        report = analyze_recording(
            channels, FS, timeline, RunConfig(electrodes=["F3"]), workers=workers
        )
        assert [asdict(r) for r in report.records] == [asdict(r) for r in by_job]


def test_each_window_is_denoised_once(monkeypatch):
    denoised = []

    def spy(window, drop_imfs):
        denoised.append(len(window))
        return emd_denoise(window, drop_imfs=drop_imfs)

    monkeypatch.setattr(pipeline, "emd_denoise", spy)
    timeline = build_timeline(1)
    channels = {"F3": white_noise(int(timeline.total_duration_s * FS), seed=3)}
    analyze_recording(channels, FS, timeline, RunConfig(emd_drop=[1], electrodes=["F3"]))
    assert denoised == [15360] + [5120] * 6


def test_a_failing_job_does_its_work_once(monkeypatch):
    # each job builds its windows' rhythm series in one call; only a job whose
    # batch fails runs again, one window at a time, up to its first failure
    calls = []
    rhythm_series = bands.rhythm_series

    def spy(windows, fs, method, envelope):
        calls.append(windows.shape)
        return rhythm_series(windows, fs, method, envelope)

    monkeypatch.setattr(bands, "rhythm_series", spy)
    timeline = build_timeline(1)
    f3 = white_noise(int(timeline.total_duration_s * FS), seed=5)
    analyze_recording({"F3": f3}, FS, timeline, RunConfig(electrodes=["F3"]))
    assert calls == [(1, 15360), (6, 5120)]
    # F3 is zero only in clip1_band3, the second of the clip's six windows
    calls.clear()
    flat = next(c for c in timeline.conditions if c.label == "clip1_band3")
    f3[int(flat.start_s * FS) : int(flat.end_s * FS)] = 0.0
    with pytest.raises(AnalysisError, match="^F3 clip1_band3 alpha: scale 16: "):
        analyze_recording({"F3": f3}, FS, timeline, RunConfig(electrodes=["F3"]))
    assert calls == [(1, 15360), (6, 5120), (1, 5120), (1, 5120)]


def test_the_first_failing_window_is_named_whatever_step_fails(monkeypatch):
    # clip1_band3, the second window, fails in MFDFA; clip1_band1, the sixth,
    # fails in the rhythm filter, a step that comes before MFDFA in the batch
    timeline = build_timeline(1)
    by_label = {c.label: c for c in timeline.conditions}
    f3 = white_noise(int(timeline.total_duration_s * FS), seed=5)
    flat, failing = by_label["clip1_band3"], by_label["clip1_band1"]
    f3[int(flat.start_s * FS) : int(flat.end_s * FS)] = 0.0
    failing_window = f3[int(failing.start_s * FS) : int(failing.end_s * FS)]
    rhythm_series = bands.rhythm_series

    def failing_filter(windows, fs, method, envelope):
        if any(np.array_equal(window, failing_window) for window in windows):
            raise AnalysisError("rhythm filter overflowed: the window's samples are too large")
        return rhythm_series(windows, fs, method, envelope)

    monkeypatch.setattr(bands, "rhythm_series", failing_filter)
    with pytest.raises(
        AnalysisError,
        match="^F3 clip1_band3 alpha: scale 16: all segments have zero residual variance$",
    ):
        analyze_recording({"F3": f3}, FS, timeline, RunConfig(electrodes=["F3"]))


def test_pool_has_no_more_workers_than_jobs(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for the process pool: records its size, runs jobs in order."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SerialPool)
    timeline = build_timeline(1)
    n = int(timeline.total_duration_s * FS)
    channels = {"F3": white_noise(n, seed=3), "T4": white_noise(n, seed=4)}
    config = RunConfig(electrodes=["F3", "T4"])
    serial = analyze_recording(channels, FS, timeline, config).records
    # two electrodes, one clip: four jobs, the rest baseline and the clip of each
    for workers, size in ((64, 4), (3, 3)):
        report = analyze_recording(channels, FS, timeline, config, workers=workers)
        assert sizes[-1] == size
        assert [asdict(r) for r in report.records] == [asdict(r) for r in serial]
    assert len(sizes) == 2
