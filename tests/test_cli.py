import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfsig
from mfsig import bands
from mfsig.cli import main
from mfsig.dataio import read_eeg_csv, read_wav, write_eeg_csv, write_series_csv, write_wav
from mfsig.errors import AnalysisError
from mfsig.mfdfa import DEFAULT_Q_GRID
from mfsig.pipeline import RunConfig, analyze_recording
from mfsig.protocol import build_timeline, timeline_from_markers
from mfsig.synth import tone, white_noise

from conftest import write_wav_at_rate
from oracles import energy

FIXDIR = Path(__file__).parent / "fixtures"
GAMMA = sorted(bands.RHYTHMS).index("gamma")  # its row of a window's rhythm series


def make_eeg_fixture(path, electrodes=("F3", "T4"), n_clips=1, fs=256.0, seed=0, duration_s=None):
    timeline = build_timeline(n_clips)
    n = int((duration_s or timeline.total_duration_s) * fs)
    rng = np.random.default_rng(seed)
    channels = {e: rng.standard_normal(n) for e in electrodes}
    write_eeg_csv(path, channels)
    return timeline


def _cap_address_space():
    # no child can take real memory: an allocation past 1 GiB fails in it
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_synth_tone(tmp_path, duration):
    """``mfsig synth tone --duration <duration>`` in a child capped at 1 GiB."""
    src = str(Path(mfsig.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "mfsig.cli", "synth", "tone", "--duration", duration],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space,
    )


class TestSynthCommand:
    def test_cascade_row_count(self, tmp_path):
        out = tmp_path / "cascade.csv"
        assert main(["synth", "cascade", "--k", "16", "--a", "0.75", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 65536 + 1  # header + rows

    @pytest.mark.parametrize(
        "duration,shown", [("inf", "inf"), ("nan", "nan"), ("-1", "-1.0"), ("0", "0.0")]
    )
    def test_bad_tone_duration_exits_1_without_traceback(self, tmp_path, duration, shown):
        proc = run_synth_tone(tmp_path, duration)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: tone duration must be a finite positive number of seconds, got {shown}\n"
        )
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize(
        "duration,shown,count", [("1e-9", "1e-09", "4.41e-05"), ("1e305", "1e+305", "inf")]
    )
    def test_tone_sample_count_names_duration_and_rate(self, tmp_path, duration, shown, count):
        proc = run_synth_tone(tmp_path, duration)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: tone duration {shown} s at sample rate 44100.0 Hz gives {count} samples;"
            " it must round to a finite count of at least 1\n"
        )
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("duration", ["1e5", "1e12"])
    def test_tone_too_large_for_memory_exits_1_without_traceback(self, tmp_path, duration):
        # 4.4e9 samples need 35 GB, past the child's cap; 4.4e16 need 313 PiB
        proc = run_synth_tone(tmp_path, duration)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "series.csv").exists()

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

    def test_sample_near_the_float_limit_is_analyzed(self, tmp_path, capsys):
        # one finite 1e308 cell: the profile reaches 1e308 and F2 would overflow
        # without the exact power-of-two rescale
        x = white_noise(4096, seed=0)
        x[100] = 1e308
        series_csv, out = tmp_path / "series.csv", tmp_path / "result.json"
        write_series_csv(series_csv, x)
        assert main(["mfdfa", str(series_csv), "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        h = dict(zip(payload["mfdfa"]["q"], payload["mfdfa"]["h"]))
        assert h[2.0] == pytest.approx(4.24, abs=0.005)
        assert payload["spectrum"]["W"] == pytest.approx(7.54, abs=0.005)

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
            (["--q-step", "0.3"], "--q-step"),
        ],
    )
    def test_bad_q_range_is_usage_error(self, tmp_path, capsys, flags, named):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(1024, seed=3))
        with pytest.raises(SystemExit) as exc:
            main(["mfdfa", str(series_csv), "-o", str(tmp_path / "r.json"), *flags])
        assert exc.value.code == 2
        assert f"argument {named}" in capsys.readouterr().err

    def test_config_holds_the_mfdfa_settings(self, tmp_path, capsys):
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
        # the q grid has no q = 2, so the summary line shows only the width
        out = capsys.readouterr().out
        assert out.startswith("W = ")
        assert "h(2)" not in out

    @pytest.mark.parametrize(
        "flags,q_grid",
        [
            ([], None),
            (["--q-step", "0.5"], [-5.0 + 0.5 * k for k in range(21)]),
            (["--q-step", "0.25"], DEFAULT_Q_GRID.tolist()),
            (["--q-step", "0.1"], np.linspace(-5.0, 5.0, 101).tolist()),
            (["--q-min", "0"], [0.25 * k for k in range(21)]),
        ],
        ids=["none", "step_only", "step_default", "step_tenth", "min_only"],
    )
    def test_unset_q_flags_take_the_default_grid(self, tmp_path, flags, q_grid):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(4096, seed=4))
        out = tmp_path / "r.json"
        assert main(["mfdfa", str(series_csv), "-o", str(out), *flags]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["q_grid"] == q_grid
        assert payload["mfdfa"]["q"] == (q_grid or DEFAULT_Q_GRID.tolist())

    def test_deterministic_output(self, tmp_path, capsys):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(4096, seed=2))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["mfdfa", str(series_csv), "-o", str(out1)])
        assert capsys.readouterr().out.startswith("h(2) = ")
        main(["mfdfa", str(series_csv), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSplitBandsCommand:
    def test_tone_lands_in_band3(self, tmp_path):
        wav = tmp_path / "tone.wav"
        write_wav(wav, tone(2500, 44100, 0.5, amplitude=0.8), 44100)
        outdir = tmp_path / "bands"
        assert main(["split-bands", str(wav), "--outdir", str(outdir)]) == 0
        emitted = {p.name: read_wav(p) for p in sorted(outdir.glob("*.wav"))}
        assert set(emitted) == {f"band{i}.wav" for i in range(1, 6)}
        energies = {name: energy(x) for name, (x, _) in emitted.items()}
        assert energies["band3.wav"] >= 0.99 * sum(energies.values())
        assert all(len(x) == 22050 and fs == 44100 for x, fs in emitted.values())

    def test_low_rate_input_fails(self, tmp_path, capsys):
        wav = tmp_path / "low.wav"
        write_wav(wav, tone(1000, 8000, 0.5), 8000)
        assert main(["split-bands", str(wav), "--outdir", str(tmp_path / "x")]) == 1
        assert "10 kHz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "samples, rate, message",
        [
            (np.zeros(0), 44100, "no audio frames"),
            (np.zeros(64), 0, "frame rate must be positive, got 0"),
            (tone(1000, 8000, 0.5), 8000, "band split needs >= 10 kHz sample rate, got 8000.0 Hz"),
            (np.full(8, 0.1), 44100, "band-pass needs at least 16 samples, got 8"),
        ],
        ids=["no_frames", "rate_0", "rate_8k", "frames_8"],
    )
    def test_unsplittable_input_names_the_file(self, tmp_path, capsys, samples, rate, message):
        wav, outdir = tmp_path / "in.wav", tmp_path / "bands"
        write_wav_at_rate(wav, samples, rate)
        assert main(["split-bands", str(wav), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == f"error: {wav}: {message}\n"
        assert not outdir.exists()

    def test_silent_clip_writes_five_silent_bands(self, tmp_path):
        # no band of a silent clip is boosted, as none is above the -60 dB threshold
        wav, outdir = tmp_path / "silence.wav", tmp_path / "bands"
        write_wav(wav, np.zeros(4410), 44100)
        assert main(["split-bands", str(wav), "--outdir", str(outdir)]) == 0
        for i in range(1, 6):
            x, fs = read_wav(outdir / f"band{i}.wav")
            assert fs == 44100
            np.testing.assert_array_equal(x, np.zeros(4410))


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
        err = capsys.readouterr().err
        assert f"error: {eeg}: recording is missing electrode column(s): O2" in err

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
            AnalysisError, match=r"'clip1_band1' .*needs 52480 samples, have 49920"
        ):
            analyze_recording({"F3": np.zeros(n)}, fs, build_timeline(1), RunConfig(electrodes=["F3"]))

    def test_window_covering_no_sample_names_condition(self):
        fs = 256.0
        timeline = timeline_from_markers([
            {"label": "rest", "start_s": 0.0, "end_s": 60.0},
            {"label": "clip1_original", "start_s": 61.0, "end_s": 61.001},
        ])
        with pytest.raises(
            AnalysisError, match=r"'clip1_original' \(61-61.001 s\) covers no sample at 256 Hz"
        ):
            analyze_recording({"F3": np.zeros(62 * 256)}, fs, timeline, RunConfig(electrodes=["F3"]))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_too_short_stimulus_is_located(self, tmp_path, capsys, workers):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",), duration_s=62.0)
        markers = tmp_path / "markers.json"
        markers.write_text(json.dumps([
            {"label": "rest", "start_s": 0.0, "end_s": 60.0},
            {"label": "clip1_original", "start_s": 61.0, "end_s": 61.03},  # 8 samples
        ]))
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--markers", str(markers), "--electrodes", "F3",
            "--workers", workers, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: F3 clip1_original alpha: band-pass needs at least 16 samples, got 8" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_window_too_short_for_mfdfa_is_located(self, tmp_path, capsys, workers):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",), duration_s=62.0)
        markers = tmp_path / "markers.json"
        markers.write_text(json.dumps([
            {"label": "rest", "start_s": 0.0, "end_s": 60.0},
            {"label": "clip1_original", "start_s": 60.0, "end_s": 60.16},  # 41 samples
        ]))
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--markers", str(markers), "--electrodes", "F3",
            "--workers", workers, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert (
            "error: F3 clip1_original alpha: series of length 41 supports no scales in [16, n/4]"
            in err
        )

    @pytest.mark.parametrize(
        "sidecar,fs,code,message",
        [
            ("{}", None, 1, "{json}: sidecar has no fs_hz key"),
            ("[256]", None, 1, "{json}: sidecar must be a JSON object"),
            ('{"fs_hz": true}', None, 1, "{json}: fs_hz must be a {positive}, got true"),
            ('{"fs_hz": 0}', None, 1, "{json}: fs_hz must be a {positive}, got 0"),
            ('{"fs_hz": "NaN"}', None, 1, '{json}: fs_hz must be a {positive}, got "NaN"'),
            ('{"fs_hz": NaN}', None, 1, "{json}: fs_hz must be a {positive}, got NaN"),
            (None, "inf", 2, "argument --fs: expected a {positive}, got 'inf'"),
            (None, "nan", 2, "argument --fs: expected a {positive}, got 'nan'"),
            (None, "0", 2, "argument --fs: expected a {positive}, got '0'"),
            (None, "-256", 2, "argument --fs: expected a {positive}, got '-256'"),
        ],
        ids=[
            "sidecar_empty", "sidecar_list", "sidecar_bool", "sidecar_zero", "sidecar_string",
            "sidecar_nan", "flag_inf", "flag_nan", "flag_zero", "flag_negative",
        ],
    )
    def test_bad_sampling_rate_is_rejected_where_read(
        self, tmp_path, capsys, sidecar, fs, code, message
    ):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        if sidecar is not None:
            (tmp_path / "eeg.json").write_text(sidecar)
        argv = [
            "analyze", str(eeg), "--clips", "1", "--electrodes", "F3",
            "--outdir", str(tmp_path / "out"),
        ]
        if fs is not None:
            argv.append(f"--fs={fs}")
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            rc = exc.value.code
        else:
            rc = main(argv)
        assert rc == code
        positive = "finite positive JSON number" if code == 1 else "finite positive number"
        expected = message.format(json=tmp_path / "eeg.json", positive=positive)
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "markers,expected",
        [
            (
                [{"label": "clip1_original", "start_s": 60, "end_s": 80}],
                "timeline has no rest condition",
            ),
            (
                [{"label": "rest", "start_s": 0, "end_s": 60},
                 {"label": "clip1_original", "start_s": 50, "end_s": 70}],
                "conditions overlap at 50.0s",
            ),
            (
                [{"label": "rest", "start_s": 0, "end_s": 60},
                 {"label": "clipx", "start_s": 60, "end_s": 80}],
                "marker 1: bad label 'clipx'",
            ),
            (
                [{"label": "rest", "start_s": 0, "end_s": 60},
                 {"label": "clip1_original", "start_s": 61, "end_s": float("inf")}],
                "marker 1: condition times must be finite, got 61-inf s",
            ),
            (
                [{"label": "rest", "start_s": 0, "end_s": 60},
                 {"label": "clip1_band3", "start_s": 60, "end_s": 80},
                 {"label": "rest", "start_s": 80, "end_s": 85},
                 {"label": "clip1_band3", "start_s": 85, "end_s": 105}],
                "markers 1 and 3 both label 'clip1_band3'",
            ),
        ],
        ids=["no_rest", "overlap", "bad_label", "infinite_time", "repeated_label"],
    )
    def test_bad_markers_name_the_file(self, tmp_path, capsys, markers, expected):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(markers))
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--markers", str(path), "--electrodes", "F3",
            "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert f"error: {path}: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["fft", "dwt"])
    def test_sample_too_large_to_filter_is_one_error_line(self, tmp_path, capsys, method):
        # 1e308 is a finite CSV cell, but the rhythm filter overflows on it
        eeg = tmp_path / "eeg.csv"
        f3 = white_noise(int(build_timeline(1).total_duration_s * 256), seed=5)
        f3[0] = 1e308
        write_eeg_csv(eeg, {"F3": f3})
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", "F3",
            "--rhythm-method", method, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: F3 rest alpha: rhythm filter overflowed: the window's samples are too large\n"
        )

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            # the DWT band signal stays finite, and MFDFA rescales its profile exactly
            (["--rhythm-method", "dwt", "--no-envelope"], 0, ""),
            # EMD sifts the window rescaled exactly; the FFT envelope then overflows
            (
                ["--emd-drop", "1"], 1,
                "error: F3 rest alpha: rhythm filter overflowed: "
                "the window's samples are too large\n",
            ),
        ],
        ids=["dwt_no_envelope", "emd"],
    )
    def test_sample_near_the_float_limit_past_the_filter(
        self, tmp_path, capsys, flags, code, message
    ):
        eeg = tmp_path / "eeg.csv"
        f3 = white_noise(int(build_timeline(1).total_duration_s * 256), seed=5)
        f3[300] = 1e308
        write_eeg_csv(eeg, {"F3": f3})
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", "F3",
            "--outdir", str(tmp_path / "out"), *flags,
        ])
        assert rc == code
        assert capsys.readouterr().err == message

    def test_no_envelope_analyzes_band_signals(self, tmp_path):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        rows = {}
        for name, flags in (("env", []), ("noenv", ["--no-envelope"])):
            outdir = tmp_path / name
            rc = main([
                "analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", "F3",
                "--outdir", str(outdir), *flags,
            ])
            assert rc == 0
            lines = (outdir / "report.csv").read_text().strip().split("\n")
            assert len(lines) == 1 + 3 * 6
            rows[name] = [line.split(",")[5] for line in lines[1:]]  # the w column
        payload = json.loads((tmp_path / "noenv" / "report.json").read_text())
        assert payload["config"]["use_envelope"] is False
        assert rows["noenv"] != rows["env"]

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_flat_electrode_error_is_located(self, tmp_path, capsys, workers):
        eeg = tmp_path / "eeg.csv"
        n = int(build_timeline(1).total_duration_s * 256)
        write_eeg_csv(eeg, {"F3": np.zeros(n), "T4": white_noise(n, seed=5)})
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", "T4,F3",
            "--workers", workers, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: F3 rest alpha: scale 16: all segments have zero residual variance" in err
        with pytest.raises(AnalysisError, match="^F3 rest alpha: scale 16: "):
            analyze_recording(
                read_eeg_csv(eeg), 256.0, build_timeline(1),
                RunConfig(electrodes=["T4", "F3"]), workers=int(workers),
            )

    def test_first_failing_rhythm_is_named(self, monkeypatch):
        # only gamma, the middle one of the window's three rhythm series, is constant
        rhythm_series = bands.rhythm_series

        def constant_gamma(windows, fs, method, envelope):
            rows = rhythm_series(windows, fs, method, envelope)
            rows[:, GAMMA] = 1.0
            return rows

        monkeypatch.setattr(bands, "rhythm_series", constant_gamma)
        n = int(build_timeline(1).total_duration_s * 256)
        with pytest.raises(
            AnalysisError,
            match="^F3 rest gamma: scale 16: all segments have zero residual variance$",
        ):
            analyze_recording(
                {"F3": white_noise(n, seed=5)}, 256.0, build_timeline(1),
                RunConfig(electrodes=["F3"]),
            )

    @pytest.mark.parametrize(
        "workers, emd_drop, message",
        [
            pytest.param(
                w, [], "F3 clip1_band3 alpha: scale 16: all segments have zero residual variance",
                id=w,
            )
            for w in ("1", "2")
        ] + [
            # the zero window has no IMFs to drop: EMD fails before any rhythm is extracted
            pytest.param(w, [1], "F3 clip1_band3: IMF index 1 outside 1..0", id=f"{w}-emd")
            for w in ("1", "2")
        ],
    )
    def test_flat_window_inside_a_clip_is_located(
        self, tmp_path, capsys, workers, emd_drop, message
    ):
        # F3 is zero only in clip1_band3, the second of the six windows in its clip's batch
        eeg = tmp_path / "eeg.csv"
        timeline = build_timeline(1)
        flat = next(c for c in timeline.conditions if c.label == "clip1_band3")
        f3 = white_noise(int(timeline.total_duration_s * 256), seed=5)
        f3[int(flat.start_s * 256) : int(flat.end_s * 256)] = 0.0
        write_eeg_csv(eeg, {"F3": f3})
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1", "--electrodes", "F3",
            "--workers", workers, "--outdir", str(tmp_path / "out"),
            *(["--emd-drop", "1"] if emd_drop else []),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        with pytest.raises(AnalysisError, match=f"^{re.escape(message)}$"):
            analyze_recording(
                read_eeg_csv(eeg), 256.0, timeline,
                RunConfig(emd_drop=emd_drop, electrodes=["F3"]), workers=int(workers),
            )

    def test_first_failing_rhythm_of_a_later_window_is_named(self, monkeypatch):
        # only gamma of clip1_band2 and clip1_band1, the third and sixth windows of
        # the clip's batch, is constant; the first of them must be named
        timeline = build_timeline(1)
        f3 = white_noise(int(timeline.total_duration_s * 256), seed=5)
        constant = [
            f3[int(c.start_s * 256) : int(c.end_s * 256)]
            for c in timeline.conditions
            if c.label in ("clip1_band2", "clip1_band1")
        ]
        rhythm_series = bands.rhythm_series

        def constant_gamma(windows, fs, method, envelope):
            rows = rhythm_series(windows, fs, method, envelope)
            for window, window_rows in zip(windows, rows):
                if any(np.array_equal(window, c) for c in constant):
                    window_rows[GAMMA] = 1.0
            return rows

        monkeypatch.setattr(bands, "rhythm_series", constant_gamma)
        with pytest.raises(
            AnalysisError,
            match="^F3 clip1_band2 gamma: scale 16: all segments have zero residual variance$",
        ):
            analyze_recording({"F3": f3}, 256.0, timeline, RunConfig(electrodes=["F3"]))


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
            (
                {"records": [GOOD_RECORD, dict(GOOD_RECORD, w=-0.1)]},
                "record 1: width must be finite and non-negative, got -0.1",
            ),
            ({"records": [dict(GOOD_RECORD, condition="clipX")]}, "record 0: bad label 'clipX'"),
            (
                {"records": [dict(GOOD_RECORD, flags=5)]},
                "record 0: subject, electrode, rhythm, condition and flags must be strings",
            ),
            ({"records": [dict(GOOD_RECORD, electrode="../x")]}, "record 0: electrode name '../x'"),
            (
                {"records": [GOOD_RECORD, dict(GOOD_RECORD, electrode="")]},
                "record 1: electrode name ''",
            ),
            (
                {"baseline_condition": "silence", "records": [GOOD_RECORD]},
                "baseline_condition must be 'rest', got 'silence'",
            ),
            (
                {"records": [dict(GOOD_RECORD, w=True)]},
                "record 0: w must be a JSON number, got true",
            ),
            (
                {"records": [GOOD_RECORD, dict(GOOD_RECORD, w="0.5")]},
                'record 1: w must be a JSON number, got "0.5"',
            ),
            (
                {"records": [dict(GOOD_RECORD, fit_a="1e3")]},
                'record 0: fit_a must be a JSON number, got "1e3"',
            ),
            (
                {"records": [dict(GOOD_RECORD, h2_r2=False)]},
                "record 0: h2_r2 must be a JSON number, got false",
            ),
            ({"config": 5, "records": [GOOD_RECORD]}, "config must be a JSON object"),
            ({"inputs": [1], "records": [GOOD_RECORD]}, "inputs must be a JSON object"),
            ({"records": []}, "no records"),
        ],
        ids=[
            "list", "records_not_list", "record_not_object", "missing_key", "null_width",
            "negative_width", "bad_condition", "flags_not_string", "electrode_path",
            "electrode_empty", "baseline_not_rest", "width_bool", "width_string",
            "fit_a_string", "h2_r2_bool", "config_not_object", "inputs_not_object",
            "no_records",
        ],
    )
    def test_malformed_report_names_file_and_record(self, tmp_path, capsys, payload, expected):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert main(["report", str(path), "--outdir", str(tmp_path / "out")]) == 1
        assert f"error: {path}: {expected}" in capsys.readouterr().err


class TestWithoutScipy:
    def test_mfdfa_and_analyze_run_without_scipy(self, tmp_path):
        # scipy is needed only to sift EMD; a None entry fails every import of it
        write_series_csv(tmp_path / "s.csv", white_noise(4096, seed=1))
        make_eeg_fixture(tmp_path / "eeg.csv", electrodes=("F3",))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mfsig.cli import main\n"
            "assert main(['mfdfa', 's.csv', '-o', 'r.json']) == 0\n"
            "assert main(['analyze', 'eeg.csv', '--fs', '256', '--clips', '1',"
            " '--electrodes', 'F3', '--outdir', 'out']) == 0\n"
        )
        src = str(Path(mfsig.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "report.csv").exists()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["mfdfa", "{csv}", "--fs", "256"], "unrecognized arguments: --fs 256"),
            (["analyze", "{csv}", "--rhythm-method", "cwt"], "--rhythm-method: invalid choice"),
            (["synth", "pink"], "argument kind: invalid choice"),
            (
                ["synth", "tone", "--fs", "inf"],
                "argument --fs: expected a finite positive number, got 'inf'",
            ),
            (["analyze", "{csv}", "--workers", "0"], "argument --workers: must be at least 1, got 0"),
            (["analyze", "{csv}", "--workers", "-2"], "argument --workers: must be at least 1, got -2"),
        ],
        ids=["mfdfa_fs", "rhythm_method", "synth_kind", "synth_fs_inf", "workers_0", "workers_neg"],
    )
    def test_exits_2_naming_the_argument(self, tmp_path, capsys, argv, message):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(1024, seed=3))
        with pytest.raises(SystemExit) as exc:
            main([arg.format(csv=series_csv) for arg in argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestIntegerListFlags:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["mfdfa", "--scales", "16,abc"], "--scales"),
            (["analyze", "--fs", "256", "--emd-drop", "x"], "--emd-drop"),
            (["mfdfa", "--scales", ","], "--scales"),
            (["analyze", "--fs", "256", "--emd-drop", ","], "--emd-drop"),
        ],
        ids=["scales", "emd_drop", "scales_empty", "emd_drop_empty"],
    )
    def test_bad_list_is_usage_error_before_input_is_read(self, tmp_path, capsys, argv, flag):
        # the input does not exist: reading it first would exit 1, not 2
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], missing, *argv[1:]])
        assert exc.value.code == 2
        assert f"argument {flag}: expected comma-separated integers" in capsys.readouterr().err
