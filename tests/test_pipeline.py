"""analyze_recording batches every rhythm series of one electrode's windows of
one clip and one length; its records must equal those of one window at a time."""

import concurrent.futures
import json
import os
import random
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mfsig import bands, dataio, pipeline
from mfsig.cli import main
from mfsig.dataio import read_eeg_csv, write_eeg_csv
from mfsig.emd import emd_denoise
from mfsig.errors import AnalysisError, DataFormatError
from mfsig.mfdfa import MfdfaConfig, run_mfdfa, run_mfdfa_batch
from mfsig.pipeline import RunConfig, analyze_recording
from mfsig.protocol import build_timeline, segment_recording, timeline_from_markers
from mfsig.report import WidthRecord, read_report_json, record_sort_key
from mfsig.spectrum import fit_spectrum, singularity_spectrum
from mfsig.synth import white_noise

from memory import transient_peak
from mutants import mutate

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
    # each job runs once the rows of its last window are read: the 10 s window
    # ends at 95 s, the two 20 s ones at 120 s
    assert batch_shapes == [(3, 15360), (3, 2560), (6, 5120)]

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

        def submit(self, fn, job):
            future = Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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


def test_the_cli_imports_no_process_pool(tmp_path):
    # the pool's modules are imported by the first run with more than one worker;
    # a 1-worker run imports concurrent.futures for its futures, but not the pool
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    eeg, markers = tmp_path / "eeg.csv", tmp_path / "markers.json"
    write_eeg_csv(eeg, short_channels())
    markers.write_text(json.dumps(SHORT_MARKERS))
    script = (
        "import sys, mfsig.cli; print('concurrent.futures' in sys.modules)\n"
        "rc = mfsig.cli.main(['analyze', *sys.argv[1:], '--electrodes', 'F3'])\n"
        "pool = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
        "print(rc, sorted(pool))"
    )
    out = tmp_path / "out"
    argv = [str(eeg), "--fs", "256", "--markers", str(markers), "--outdir", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    imported, wrote, ran = proc.stdout.splitlines()
    assert imported == "False"
    assert (wrote, ran) == (f"wrote 3 files to {out}", "0 []")


# A short recording, less than one default block: three channels of 3328 rows,
# a rest, and two clips with windows of two lengths.
SHORT_ROWS = 3328
SHORT_MARKERS = [
    {"label": "rest", "start_s": 0, "end_s": 4},
    {"label": "clip1_original", "start_s": 4, "end_s": 6},
    {"label": "clip1_band3", "start_s": 6.5, "end_s": 7.5},
    {"label": "clip1_band2", "start_s": 8, "end_s": 10},
    {"label": "clip2_original", "start_s": 10.5, "end_s": 12.5},
]


def analyze_short(tmp_path, channels, *flags, markers=SHORT_MARKERS, name="out"):
    """``mfsig analyze`` of the channels written as a CSV, on the markers;
    returns (exit code, output directory)."""
    eeg, markers_path, outdir = tmp_path / "eeg.csv", tmp_path / "markers.json", tmp_path / name
    write_eeg_csv(eeg, channels)
    markers_path.write_text(json.dumps(markers))
    rc = main([
        "analyze", str(eeg), "--fs", "256", "--markers", str(markers_path),
        "--outdir", str(outdir), *flags,
    ])
    return rc, outdir


def short_channels():
    return {e: white_noise(SHORT_ROWS, seed=60 + i) for i, e in enumerate(["F3", "T4", "O1"])}


def output_bytes(outdir):
    return {p.relative_to(outdir): p.read_bytes() for p in sorted(outdir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "block_rows, workers", [(1, "1"), (7, "1"), (7, "2"), (10 * SHORT_ROWS, "1")]
)
def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block_rows, workers):
    channels = short_channels()
    rc, default = analyze_short(tmp_path, channels, "--electrodes", "O1,F3", name="default")
    assert rc == 0
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", block_rows)
    rc, outdir = analyze_short(tmp_path, channels, "--electrodes", "O1,F3", "--workers", workers)
    assert rc == 0
    assert output_bytes(outdir) == output_bytes(default)
    assert len(output_bytes(default)) == 4  # report.csv, report.json, two plot-data files


def test_nan_in_a_column_not_analysed_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", 100)
    channels = short_channels()
    channels["T4"][2999] = np.nan  # line 3001, in the thirtieth block
    rc, _ = analyze_short(tmp_path, channels, "--electrodes", "F3")
    assert rc == 1
    expected = f"error: {tmp_path / 'eeg.csv'}: line 3001: column T4: 'nan' is not a finite number\n"
    assert capsys.readouterr().err == expected


def check_a_bad_row_after_a_failing_job_is_the_error(tmp_path, monkeypatch, capsys, workers):
    # F3's rest job fails when its block is read; the CSV error comes later and wins
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", 100)
    channels = short_channels()
    channels["F3"][:] = 0.0
    eeg = tmp_path / "eeg.csv"
    rc, _ = analyze_short(tmp_path, channels, "--electrodes", "F3,T4", "--workers", workers)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: F3 rest alpha: scale 16: ")
    lines = eeg.read_text().split("\n")
    lines[3200] = lines[3200] + ",5"
    eeg.write_text("\n".join(lines))
    markers = tmp_path / "markers.json"
    rc = main([
        "analyze", str(eeg), "--fs", "256", "--markers", str(markers), "--electrodes", "F3,T4",
        "--outdir", str(tmp_path / "out"), "--workers", workers,
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {eeg}: line 3201: expected 4 fields, got 5\n"


def test_a_bad_row_after_a_failing_job_is_the_error(tmp_path, monkeypatch, capsys):
    check_a_bad_row_after_a_failing_job_is_the_error(tmp_path, monkeypatch, capsys, "1")


def test_a_bad_row_after_a_failing_job_is_the_error_in_the_pool(tmp_path, monkeypatch, capsys):
    check_a_bad_row_after_a_failing_job_is_the_error(tmp_path, monkeypatch, capsys, "2")


def check_of_two_failing_jobs_the_first_in_job_order_is_named(
    tmp_path, monkeypatch, capsys, workers
):
    # T4's rest job fails first as the file is read; F3's clip job comes first in job order
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", 100)
    channels = short_channels()
    channels["T4"][: 4 * 256] = 0.0
    channels["F3"][4 * 256 :] = 0.0
    rc, _ = analyze_short(tmp_path, channels, "--electrodes", "F3,T4", "--workers", workers)
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: F3 clip1_original alpha: scale 16: all segments have zero residual variance\n"
    )


def test_of_two_failing_jobs_the_first_in_job_order_is_named(tmp_path, monkeypatch, capsys):
    check_of_two_failing_jobs_the_first_in_job_order_is_named(tmp_path, monkeypatch, capsys, "1")


def test_of_two_failing_jobs_the_first_in_job_order_is_named_in_the_pool(
    tmp_path, monkeypatch, capsys
):
    check_of_two_failing_jobs_the_first_in_job_order_is_named(tmp_path, monkeypatch, capsys, "2")


def test_markers_past_the_end_name_the_first_condition_not_covered(tmp_path, capsys):
    markers = SHORT_MARKERS + [
        {"label": "clip2_band3", "start_s": 12.5, "end_s": 13.5},
        {"label": "clip2_band2", "start_s": 14, "end_s": 16},
    ]
    rc, _ = analyze_short(tmp_path, short_channels(), "--electrodes", "F3", markers=markers)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'eeg.csv'}: recording ends before condition 'clip2_band3' "
        "(12.5-13.5 s needs 3456 samples, have 3328)\n"
    )


@pytest.mark.parametrize("route", ["marker", "fs_flag", "sidecar"])
def test_a_condition_ending_past_the_sample_index_range_is_named(tmp_path, capsys, route):
    # end_s * fs overflows to inf, which no sample index holds
    eeg, markers = tmp_path / "eeg.csv", tmp_path / "markers.json"
    write_eeg_csv(eeg, short_channels())
    markers.write_text(json.dumps([*SHORT_MARKERS[:1], {**SHORT_MARKERS[1], "end_s": 1e306}]))
    eeg.with_suffix(".json").write_text('{"fs_hz": 1e306}')
    # clip1_band4 holds the nominal timeline's first end past 1.8e308 / 1e306 s
    nominal = "'clip1_band4' (160-180 s) ends past the largest sample index at 1e+306 Hz"
    # the message names the inputs that set the times and the rate
    flags, message = {
        "marker": (
            ["--fs", "256", "--markers", str(markers)],
            f"{markers} and --fs: condition 'clip1_original' (4-1e+306 s) ends past the "
            "largest sample index at 256 Hz",
        ),
        "fs_flag": (["--fs", "1e306"], f"--fs: condition {nominal}"),
        "sidecar": ([], f"{tmp_path / 'eeg.json'}: condition {nominal}"),
    }[route]
    argv = ["analyze", str(eeg), *flags, "--electrodes", "F3", "--outdir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("route", ["marker", "fs_flag", "sidecar"])
def test_a_window_holding_no_sample_is_named_with_its_sources(tmp_path, capsys, route):
    # start and end round to the same sample index, so the window is empty
    eeg, markers = tmp_path / "eeg.csv", tmp_path / "markers.json"
    write_eeg_csv(eeg, short_channels())
    markers.write_text(json.dumps([*SHORT_MARKERS[:1], {**SHORT_MARKERS[1], "end_s": 4.001}]))
    eeg.with_suffix(".json").write_text('{"fs_hz": 0.01}')
    nominal = "'clip1_original' (60-80 s) covers no sample at 0.01 Hz"
    flags, message = {
        "marker": (
            ["--fs", "256", "--markers", str(markers)],
            f"{markers} and --fs: condition 'clip1_original' (4-4.001 s) covers no sample "
            "at 256 Hz",
        ),
        "fs_flag": (["--fs", "0.01"], f"--fs: condition {nominal}"),
        "sidecar": ([], f"{tmp_path / 'eeg.json'}: condition {nominal}"),
    }[route]
    argv = ["analyze", str(eeg), *flags, "--electrodes", "F3", "--outdir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_closing_rest_ending_past_the_sample_index_range_is_not_cut(tmp_path):
    # only the baseline and the stimulus windows are cut, so a later rest may run on
    markers = SHORT_MARKERS + [{"label": "rest", "start_s": 12.5, "end_s": 1e306}]
    rc, outdir = analyze_short(tmp_path, short_channels(), "--electrodes", "F3", markers=markers)
    assert rc == 0
    rc, plain = analyze_short(tmp_path, short_channels(), "--electrodes", "F3", name="plain")
    assert rc == 0
    assert (outdir / "report.csv").read_bytes() == (plain / "report.csv").read_bytes()


def test_mutated_csv_exits_0_or_one_error_line(tmp_path, monkeypatch, capsys):
    # 2 channels of 256 rows at 64 Hz in blocks of 7 rows: the mutations land
    # inside blocks and on the line starts of blocks, before and after a batch is read
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", 7)
    eeg, markers = tmp_path / "eeg.csv", tmp_path / "markers.json"
    write_eeg_csv(eeg, {"F3": white_noise(256, seed=70), "T4": white_noise(256, seed=71)})
    markers.write_text(json.dumps([
        {"label": "rest", "start_s": 0, "end_s": 2},
        {"label": "clip1_original", "start_s": 2, "end_s": 4},
    ]))
    seed = eeg.read_bytes()
    starts = np.flatnonzero(np.frombuffer(seed, dtype=np.uint8) == ord("\n")) + 1
    edges = starts[:-1:7].tolist()  # the first row of each block
    rng = random.Random(33)
    codes = []
    for _ in range(80):
        eeg.write_bytes(mutate(seed, rng, edges))
        try:
            read_eeg_csv(eeg)
            rejected = False
        except DataFormatError:
            rejected = True
        rc = main([
            "analyze", str(eeg), "--fs", "64", "--markers", str(markers),
            "--electrodes", "F3,T4", "--outdir", str(tmp_path / "out"),
        ])
        out = capsys.readouterr()
        codes.append(rc)
        if rc == 0:
            assert not rejected and out.err == ""
            continue
        assert rc == 1
        assert out.err.count("\n") == 1, out.err
        # a CSV error names the file; a window's, its electrode
        assert out.err.startswith((f"error: {eeg}: ", "error: F3 ", "error: T4 ")), out.err
        if rejected:
            assert out.err.startswith(f"error: {eeg}: "), out.err
    assert 0 < codes.count(0) < len(codes)


def test_analyze_holds_less_than_the_recording(tmp_path, monkeypatch):
    # 2 electrodes, 4 clips at 128 Hz: 97280 rows of 3 columns, 2.3 MB as float64.
    # The jobs are stubbed out: a job's own temporaries do not grow with the recording.
    fs, timeline = 128.0, build_timeline(4)
    n = int(timeline.total_duration_s * fs)
    eeg = tmp_path / "eeg.csv"
    write_eeg_csv(eeg, {"F3": white_noise(n, seed=3), "T4": white_noise(n, seed=4)})
    windows = []
    monkeypatch.setattr(pipeline, "_run_job", lambda job: windows.append(len(job[3])) or [])
    config = RunConfig(electrodes=["F3", "T4"])
    _, peak = transient_peak(lambda: analyze_recording(eeg, fs, timeline, config))
    assert windows == [1, 1] + [6] * 8  # each batch, as it is read, for both electrodes
    assert peak < n * 3 * 8
