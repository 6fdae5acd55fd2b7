import json
from pathlib import Path

import numpy as np
import pytest

from mfsig.cli import main
from mfsig.dataio import read_eeg_csv, read_wav, write_eeg_csv, write_series_csv, write_wav
from mfsig.errors import AllSegmentsDegenerateError, RecordingTooShortError
from mfsig.pipeline import RunConfig, analyze_recording
from mfsig.protocol import build_timeline
from mfsig.synth import tone, white_noise

from oracles import energy

FIXDIR = Path(__file__).parent / "fixtures"


def make_eeg_fixture(path, electrodes=("F3", "T4"), n_clips=1, fs=256.0, seed=0, duration_s=None):
    timeline = build_timeline(n_clips)
    n = int((duration_s or timeline.total_duration_s) * fs)
    rng = np.random.default_rng(seed)
    channels = {e: rng.standard_normal(n) for e in electrodes}
    write_eeg_csv(path, channels)
    return timeline


class TestSynthCommand:
    def test_cascade_row_count(self, tmp_path):
        out = tmp_path / "cascade.csv"
        assert main(["synth", "cascade", "--k", "16", "--a", "0.75", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 65536 + 1  # header + rows

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestMfdfaCommand:
    def test_result_json_structure(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(4096, seed=1))
        out = tmp_path / "result.json"
        rc = main(["mfdfa", str(series_csv), "-o", str(out), "--csv", str(tmp_path / "fq.csv")])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "inputs", "mfdfa", "spectrum"}
        assert payload["inputs"]["sha256"]
        assert len(payload["mfdfa"]["h"]) == 41
        assert (tmp_path / "fq.csv").read_text().startswith("q,s,fq,log_fq")

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("value\n1.0\nnot_a_number\n2.0\n")
        assert main(["mfdfa", str(bad)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--q-step", "0"], "--q-step"),
            (["--q-step", "-0.5"], "--q-step"),
            (["--q-min", "2", "--q-max", "1"], "--q-max"),
        ],
    )
    def test_bad_q_range_is_usage_error(self, tmp_path, capsys, flags, named):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(1024, seed=3))
        with pytest.raises(SystemExit) as exc:
            main(["mfdfa", str(series_csv), "-o", str(tmp_path / "r.json"), *flags])
        assert exc.value.code == 2
        assert f"argument {named}" in capsys.readouterr().err

    def test_config_holds_the_mfdfa_settings(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(4096, seed=4))
        out = tmp_path / "r.json"
        rc = main([
            "mfdfa", str(series_csv), "-o", str(out), "--order", "2", "--bidirectional",
            "--scales", "16,32,64,128", "--q-min", "-1", "--q-max", "1", "--q-step", "0.5",
        ])
        assert rc == 0
        assert json.loads(out.read_text())["config"] == {
            "detrend_order": 2,
            "scales": [16, 32, 64, 128],
            "q_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
            "bidirectional": True,
            "input_path": str(series_csv),
        }

    def test_deterministic_output(self, tmp_path):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(4096, seed=2))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["mfdfa", str(series_csv), "-o", str(out1)])
        main(["mfdfa", str(series_csv), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSplitBandsCommand:
    def test_tone_lands_in_band3(self, tmp_path):
        wav = tmp_path / "tone.wav"
        write_wav(wav, tone(2500, 44100, 0.5, amplitude=0.8))
        outdir = tmp_path / "bands"
        assert main(["split-bands", str(wav), "--outdir", str(outdir)]) == 0
        emitted = {p.name: read_wav(p) for p in sorted(outdir.glob("*.wav"))}
        assert set(emitted) == {f"band{i}.wav" for i in range(1, 6)}
        energies = {name: energy(ts.samples) for name, ts in emitted.items()}
        assert energies["band3.wav"] >= 0.99 * sum(energies.values())
        src = read_wav(wav)
        assert all(len(ts) == len(src) for ts in emitted.values())
        assert all(ts.sample_rate_hz == src.sample_rate_hz for ts in emitted.values())

    def test_low_rate_input_fails(self, tmp_path, capsys):
        wav = tmp_path / "low.wav"
        write_wav(wav, tone(1000, 8000, 0.5))
        assert main(["split-bands", str(wav), "--outdir", str(tmp_path / "x")]) == 1
        assert "10 kHz" in capsys.readouterr().err


class TestListeningCommand:
    def test_reference_fixture(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["listening", str(FIXDIR / "listening_sheets.csv"), "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "clip,band1,band2,band3,band4,band5"
        assert lines[1] == "1,0,0,15,78,100"


class TestAnalyzeCommand:
    def test_small_run_produces_report(self, tmp_path):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg)
        outdir = tmp_path / "out"
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1",
            "--electrodes", "F3,T4", "--outdir", str(outdir),
        ])
        assert rc == 0
        lines = (outdir / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3 * 6  # 2 electrodes x 3 rhythms x 6 stimuli
        payload = json.loads((outdir / "report.json").read_text())
        assert payload["config"]["rhythm_method"] == "fft"
        assert (outdir / "plotdata" / "F3.csv").exists()

    def test_missing_electrode_named(self, tmp_path, capsys):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1",
            "--electrodes", "F3,O2", "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "O2" in capsys.readouterr().err

    def test_repeated_electrode_rejected(self, tmp_path, capsys):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg)
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1",
            "--electrodes", "F3,F3,T4", "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "listed more than once: F3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_electrode_list_rejected(self, tmp_path, capsys):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg)
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1",
            "--electrodes", ",", "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "electrode list is empty" in capsys.readouterr().err

    def test_recording_may_end_inside_final_rest(self, tmp_path):
        eeg = tmp_path / "eeg.csv"
        timeline = make_eeg_fixture(eeg, duration_s=215.0)  # 10 s into the 205-235 s rest
        assert timeline.conditions[-1].start_s == 205.0
        outdir = tmp_path / "out"
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1",
            "--electrodes", "F3,T4", "--outdir", str(outdir),
        ])
        assert rc == 0
        lines = (outdir / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3 * 6

    def test_recording_ending_inside_stimulus_fails(self):
        fs = 256.0
        n = int(195.0 * fs)  # inside clip1_band1, 185-205 s
        with pytest.raises(
            RecordingTooShortError, match=r"'clip1_band1' .*needs 52480 samples, have 49920"
        ):
            analyze_recording({"F3": np.zeros(n)}, fs, build_timeline(1), RunConfig(electrodes=["F3"]))

    def test_dwt_method_recorded_in_metadata(self, tmp_path):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        outdir = tmp_path / "out"
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1",
            "--electrodes", "F3", "--rhythm-method", "dwt", "--outdir", str(outdir),
        ])
        assert rc == 0
        payload = json.loads((outdir / "report.json").read_text())
        assert payload["config"]["rhythm_method"] == "dwt"

    def test_fs_from_sidecar(self, tmp_path):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        (tmp_path / "eeg.json").write_text('{"fs_hz": 256}')
        rc = main([
            "analyze", str(eeg), "--clips", "1", "--electrodes", "F3",
            "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 0

    def test_markers_override_timeline(self, tmp_path):
        eeg = tmp_path / "eeg.csv"
        timeline = make_eeg_fixture(eeg, electrodes=("F3",))
        markers = [
            {"label": c.label, "start_s": c.start_s, "end_s": c.end_s}
            for c in timeline.conditions
        ]
        markers_path = tmp_path / "markers.json"
        markers_path.write_text(json.dumps(markers))
        outdir = tmp_path / "out"
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--markers", str(markers_path),
            "--electrodes", "F3", "--outdir", str(outdir),
        ])
        assert rc == 0
        payload = json.loads((outdir / "report.json").read_text())
        assert payload["inputs"]["markers_sha256"]
        lines = (outdir / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 1 * 3 * 6

    def test_bad_workers_env_named(self, tmp_path, monkeypatch, capsys):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        monkeypatch.setenv("MFSIG_WORKERS", "two")
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", "F3",
            "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "MFSIG_WORKERS must be an integer, got 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_flat_electrode_error_is_located(self, tmp_path, capsys, workers):
        eeg = tmp_path / "eeg.csv"
        n = int(build_timeline(1).total_duration_s * 256)
        write_eeg_csv(eeg, {"F3": np.zeros(n), "T4": white_noise(n, seed=5).samples})
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", "T4,F3",
            "--workers", workers, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: F3 rest alpha: scale 16: all segments have zero residual variance" in err
        with pytest.raises(AllSegmentsDegenerateError, match="^F3 rest alpha: scale 16: "):
            analyze_recording(
                read_eeg_csv(eeg), 256.0, build_timeline(1),
                RunConfig(electrodes=["T4", "F3"]), workers=int(workers),
            )

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        monkeypatch.setenv("MFSIG_OUTDIR", str(tmp_path / "envout"))
        rc = main(["analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", "F3"])
        assert rc == 0
        assert (tmp_path / "envout" / "report.csv").exists()


# One well-formed report.json record.
GOOD_RECORD = {
    "subject": "S01", "electrode": "F3", "rhythm": "alpha", "condition": "rest", "w": 0.5,
}


class TestReportCommand:
    def test_reemit_from_json(self, tmp_path):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        outdir = tmp_path / "out"
        main(["analyze", str(eeg), "--fs", "256", "--clips", "1",
              "--electrodes", "F3", "--outdir", str(outdir)])
        outdir2 = tmp_path / "out2"
        rc = main(["report", str(outdir / "report.json"), "--outdir", str(outdir2)])
        assert rc == 0
        assert (outdir2 / "report.csv").read_text() == (outdir / "report.csv").read_text()

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("")
        assert main(["report", str(path), "--outdir", str(tmp_path / "out")]) == 1
        assert f"error: {path}: invalid JSON at line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload,expected",
        [
            ([], "report must be a JSON object"),
            ({"records": {}}, "records must be a JSON list"),
            ({"records": [GOOD_RECORD, "F3"]}, "record 1: string indices must be integers"),
            (
                {"records": [GOOD_RECORD, {k: v for k, v in GOOD_RECORD.items() if k != "w"}]},
                "record 1: missing key 'w'",
            ),
            ({"records": [dict(GOOD_RECORD, w=None)]}, "record 0: float() argument"),
        ],
        ids=["list", "records_not_list", "record_not_object", "missing_key", "null_width"],
    )
    def test_malformed_report_names_file_and_record(self, tmp_path, capsys, payload, expected):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert main(["report", str(path), "--outdir", str(tmp_path / "out")]) == 1
        assert f"error: {path}: {expected}" in capsys.readouterr().err



class TestIntegerListFlags:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["mfdfa", "--scales", "16,abc"], "--scales"),
            (["analyze", "--fs", "256", "--emd-drop", "x"], "--emd-drop"),
        ],
        ids=["scales", "emd_drop"],
    )
    def test_bad_list_is_usage_error_before_input_is_read(self, tmp_path, capsys, argv, flag):
        # the input does not exist: reading it first would exit 1, not 2
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], missing, *argv[1:]])
        assert exc.value.code == 2
        assert f"argument {flag}: expected comma-separated integers" in capsys.readouterr().err
