"""Every reader's exit contract under seeded byte mutants of a valid file: the
subcommand that reads it exits 0, or 1 with one ``error:`` line, which names
the file when the reader itself rejects the mutant. The EEG CSV's own test is
``test_pipeline.test_mutated_csv_exits_0_or_one_error_line``."""

import json
import random

import numpy as np
import pytest

from mfsig import dataio
from mfsig.cli import main
from mfsig.dataio import write_eeg_csv, write_series_csv, write_wav
from mfsig.errors import DataFormatError
from mfsig.report import AnalysisReport, WidthRecord, emit_report, read_report_json
from mfsig.synth import white_noise

from mutants import mutate

MARKERS = [
    {"label": "rest", "start_s": 0, "end_s": 2},
    {"label": "clip1_original", "start_s": 2, "end_s": 4},
]


# The offsets of the fields of write_wav's 44-byte header: the chunk ids and
# sizes, the format, channels, rate, byte rate, block align and sample width.
WAV_HEADER_FIELDS = [0, 4, 8, 12, 16, 20, 22, 24, 28, 32, 34, 36, 40]


def line_starts(data):
    """The offset of every line of a text file that ends in a newline, as
    mutation edges."""
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    return [0] + (ends[:-1] + 1).tolist()


def fuzz(capsys, path, argv, read, mutants, seed):
    """``mfsig <argv>`` on the file at path cut at its first three edges (the
    empty file first), then on ``mutants`` seeded mutants of it, each checked
    against the exit contract; the outcome counts: ``ok``, ``rejected`` (by
    ``read(path)``) and ``failed`` (by the command past it)."""
    data = path.read_bytes()
    edges = line_starts(data) if path.suffix != ".wav" else WAV_HEADER_FIELDS
    rng = random.Random(seed)
    cases = [data[:edge] for edge in edges[:3]] + [mutate(data, rng, edges) for _ in range(mutants)]
    counts = {"ok": 0, "rejected": 0, "failed": 0}
    for case in cases:
        path.write_bytes(case)
        try:
            read(path)
            rejected = False
        except DataFormatError:
            rejected = True
        rc = main(argv)
        err = capsys.readouterr().err
        if rc == 0:
            assert not rejected and err == ""
            counts["ok"] += 1
            continue
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if rejected:
            assert err.startswith(f"error: {path}: "), err
        counts["rejected" if rejected else "failed"] += 1
    return counts


def short_recording(tmp_path):
    """A 2-channel, 4 s recording at 64 Hz and its markers; the paths."""
    eeg, markers = tmp_path / "eeg.csv", tmp_path / "markers.json"
    write_eeg_csv(eeg, {"F3": white_noise(256, seed=80), "T4": white_noise(256, seed=81)})
    markers.write_text(json.dumps(MARKERS, indent=1))
    return eeg, markers


def test_mutated_markers(tmp_path, capsys):
    eeg, markers = short_recording(tmp_path)
    argv = [
        "analyze", str(eeg), "--fs", "64", "--markers", str(markers), "--electrodes", "F3",
        "--outdir", str(tmp_path / "out"),
    ]
    counts = fuzz(capsys, markers, argv, dataio.read_markers, 60, seed=34)
    assert counts["ok"] and counts["rejected"], counts


def test_mutated_fs_sidecar(tmp_path, capsys):
    eeg, markers = short_recording(tmp_path)
    sidecar = eeg.with_suffix(".json")
    sidecar.write_text(json.dumps({"fs_hz": 64, "subject": "S01"}, indent=1))
    argv = [
        "analyze", str(eeg), "--markers", str(markers), "--electrodes", "F3",
        "--outdir", str(tmp_path / "out"),
    ]
    counts = fuzz(capsys, sidecar, argv, lambda _: dataio.read_fs_sidecar(eeg), 60, seed=35)
    assert counts["ok"] and counts["rejected"], counts


def test_mutated_listening_sheet(tmp_path, capsys):
    sheet = tmp_path / "sheet.csv"
    rng = np.random.default_rng(36)
    rows = [
        f"{subject},{clip}," + ",".join(map(str, rng.integers(0, 2, 5)))
        for subject in ("S01", "S02") for clip in range(1, 5)
    ]
    sheet.write_text("subject,clip,part1,part2,part3,part4,part5\n" + "\n".join(rows) + "\n")
    argv = ["listening", str(sheet), "-o", str(tmp_path / "table.csv")]
    counts = fuzz(capsys, sheet, argv, dataio.read_response_sheets, 80, seed=36)
    assert counts["ok"] and counts["rejected"], counts


def test_mutated_report_json(tmp_path, capsys):
    records = [
        WidthRecord(
            subject_id="S01", electrode=electrode, rhythm=rhythm, condition=condition,
            w=0.3 + 0.01 * i, fit_a=-2.0, fit_b=0.1, alpha0=0.8, h2_r2=0.99,
        )
        for i, (electrode, rhythm, condition) in enumerate(
            (e, r, c) for e in ("F3", "T4") for r in ("alpha", "gamma")
            for c in ("rest", "clip1_original")
        )
    ]
    emit_report(AnalysisReport(records=records), tmp_path / "seed")
    report = tmp_path / "report.json"
    report.write_bytes((tmp_path / "seed" / "report.json").read_bytes())
    argv = ["report", str(report), "--outdir", str(tmp_path / "out")]
    counts = fuzz(capsys, report, argv, read_report_json, 60, seed=37)
    assert counts["ok"] and counts["rejected"], counts


def test_mutated_series_csv(tmp_path, capsys):
    series = tmp_path / "series.csv"
    write_series_csv(series, white_noise(128, seed=38))
    argv = ["mfdfa", str(series), "-o", str(tmp_path / "result.json")]
    counts = fuzz(capsys, series, argv, dataio.read_series_csv, 60, seed=38)
    assert counts["ok"] and counts["rejected"], counts


def test_mutated_wav(tmp_path, capsys):
    wav = tmp_path / "clip.wav"
    write_wav(wav, 0.125 * white_noise(256, seed=39), 16000)
    argv = ["split-bands", str(wav), "--outdir", str(tmp_path / "bands")]
    counts = fuzz(capsys, wav, argv, dataio.read_wav, 80, seed=39)
    assert counts["ok"] and counts["rejected"], counts


def json_input(tmp_path, reader):
    """The path of a short recording's markers, its sidecar or a report.json,
    as ``reader`` names it, and the mfsig argv that reads it."""
    eeg, markers = short_recording(tmp_path)
    report = tmp_path / "report.json"
    return {
        "markers": (markers, ["analyze", str(eeg), "--fs", "64", "--markers", str(markers)]),
        "sidecar": (eeg.with_suffix(".json"), ["analyze", str(eeg), "--markers", str(markers)]),
        "report": (report, ["report", str(report)]),
    }[reader]


@pytest.mark.parametrize("digits", [400, 5000], ids=["past_the_float_range", "past_int_digits"])
@pytest.mark.parametrize("reader", ["markers", "sidecar", "report"])
def test_integer_too_large_names_the_file(tmp_path, capsys, reader, digits):
    # a JSON integer is read exactly: float() of one past 1.8e308 overflows, and
    # int() takes at most 4300 digits
    path, argv = json_input(tmp_path, reader)
    number = "9" * digits
    record = '"subject": "S01", "electrode": "F3", "rhythm": "alpha", "condition": "rest"'
    path.write_text({
        "markers": f'[{{"label": "rest", "start_s": 0, "end_s": {number}}}]',
        "sidecar": f'{{"fs_hz": {number}}}',
        "report": f'{{"records": [{{{record}, "w": 0.5, "fit_a": {number}}}]}}',
    }[reader])
    assert main([*argv, "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "reader,text,message",
    [
        # json.loads recurses once per bracket, so the first text passes the recursion limit
        pytest.param(reader, text, message, id=reader + suffix)
        for text, message, suffix in [
            ("[" * 100000, "JSON nested too deeply", ""),
            ('{"a": 1,\n', "invalid JSON at line 2", "-invalid_json"),
        ]
        for reader in ("markers", "sidecar", "report")
    ],
)
def test_json_nested_too_deeply_names_the_file(tmp_path, capsys, reader, text, message):
    path, argv = json_input(tmp_path, reader)
    path.write_text(text)
    assert main([*argv, "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
