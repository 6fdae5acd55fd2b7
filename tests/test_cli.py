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
from mfsig.dataio import (
    read_eeg_csv, read_series_csv, read_wav, write_eeg_csv, write_series_csv, write_wav,
)
from mfsig.errors import AnalysisError
from mfsig.mfdfa import DEFAULT_Q_GRID
from mfsig.pipeline import RunConfig, analyze_recording
from mfsig.protocol import build_timeline, timeline_from_markers
from mfsig.synth import fgn, tone, white_noise

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


def run_capped(tmp_path, *argv):
    """``mfsig <argv>`` in a child capped at 1 GiB."""
    src = str(Path(mfsig.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "mfsig.cli", *argv],
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
        proc = run_capped(tmp_path, "synth", "tone", "--duration", duration)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: tone duration must be a finite positive number of seconds, got {shown}\n"
        )
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize(
        "duration,shown,count", [("1e-9", "1e-09", "4.41e-05"), ("1e305", "1e+305", "inf")]
    )
    def test_tone_sample_count_names_duration_and_rate(self, tmp_path, duration, shown, count):
        proc = run_capped(tmp_path, "synth", "tone", "--duration", duration)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: tone duration {shown} s at sample rate 44100.0 Hz gives {count} samples;"
            " it must round to a finite count of at least 1\n"
        )
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("duration", ["1e5", "1e12"])
    def test_tone_too_large_for_memory_exits_1_without_traceback(self, tmp_path, duration):
        # 4.4e9 samples need 35 GB, past the child's cap; 4.4e16 need 313 PiB
        proc = run_capped(tmp_path, "synth", "tone", "--duration", duration)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["fgn", "--n", "2048", "--hurst", "0.7", "--seed", "3"], fgn(2048, 0.7, 3)),
            (["white", "--n", "500", "--seed", "4"], white_noise(500, 4)),
            (["tone", "--freq", "440", "--fs", "8000", "--duration", "0.25"], tone(440, 8e3, 0.25)),
        ],
        ids=["fgn", "white", "tone"],
    )
    def test_kind_reads_back_at_the_requested_length(self, tmp_path, capsys, argv, expected):
        out = tmp_path / "series.csv"
        assert main(["synth", *argv, "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {len(expected)} samples to {out}\n"
        np.testing.assert_array_equal(read_series_csv(out), expected)

    def test_fgn_with_one_seed_writes_the_same_bytes(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["synth", "fgn", "--n", "1024", "--seed", "7", "-o", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tone_at_nyquist_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert main(["synth", "tone", "--freq", "4000", "--fs", "8000", "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: tone at 4000.0 Hz aliases at sample rate 8000.0 Hz (Nyquist 4000.0 Hz)\n"
        )
        assert not out.exists()

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
        mfdfa, spectrum = payload["mfdfa"], payload["spectrum"]
        assert set(mfdfa) >= {"scales", "q", "log_fq", "h", "r2"}
        assert len(mfdfa["h"]) == 41
        assert np.shape(mfdfa["log_fq"]) == (len(mfdfa["q"]), len(mfdfa["scales"]))
        assert set(spectrum) >= {"A", "B", "alpha0", "W"}
        assert spectrum["C"] == 1.0
        table = (tmp_path / "fq.csv").read_text()
        assert table.startswith("q,s,fq,log_fq")
        assert table.count("\n") == 1 + len(mfdfa["q"]) * len(mfdfa["scales"])

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

    def test_missing_input_is_one_error_line_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["mfdfa", str(missing), "-o", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("n", [40, 64])
    def test_series_too_short_for_two_scales_names_the_input(self, tmp_path, capsys, n):
        # 64 samples reach scale 16 alone, which fits no slope
        short = tmp_path / "short.csv"
        write_series_csv(short, white_noise(n, seed=2))
        assert main(["mfdfa", str(short), "-o", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {short}: series of length {n} supports no scales in [16, n/4]\n"
        )

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
            (["--q-min=-inf"], "--q-min"),
            (["--q-min", "nan"], "--q-min"),
            (["--q-max", "inf"], "--q-max"),
            (["--q-step", "inf"], "--q-step"),
            (["--q-step", "nan"], "--q-step"),
            # fewer than the 3 q values the spectrum fit needs
            (["--q-min", "1", "--q-max", "1"], "--q-step"),
            (["--q-min", "1", "--q-max", "1.25"], "--q-step"),
            (["--q-step", "10"], "--q-step"),
        ],
    )
    def test_bad_q_range_is_usage_error(self, tmp_path, capsys, flags, named):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(1024, seed=3))
        with pytest.raises(SystemExit) as exc:
            main(["mfdfa", str(series_csv), "-o", str(tmp_path / "r.json"), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mfsig mfdfa ")
        assert f"argument {named}" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            # 1e18 points: 8e18 bytes, more than any address space holds
            (["--q-step", "1e-17"], "Unable to allocate"),
            (["--q-step", "1e-300"], "q grid from -5 to 5 in steps of 1e-300 is too large"),
            (["--q-min=-1e308", "--q-max=1e308"], "q grid from -1e+308 to 1e+308 in steps"),
        ],
        ids=["unallocatable", "beyond_an_array", "range_overflows"],
    )
    def test_q_grid_too_large_is_one_error_line(self, tmp_path, capsys, flags, message):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(1024, seed=3))
        assert main(["mfdfa", str(series_csv), "-o", str(tmp_path / "r.json"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

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
            # argparse takes -5e-1 after a space for an option; the = form passes it
            (["--q-min=-5e-1"], [-0.5 + 0.25 * k for k in range(23)]),
        ],
        ids=["none", "step_only", "step_default", "step_tenth", "min_only", "min_exponent"],
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

    def test_unwritable_band_is_one_error_line(self, tmp_path):
        write_wav(tmp_path / "clip.wav", tone(2500.0, 44100.0, 0.1), 44100.0)
        (tmp_path / "out" / "band1.wav").mkdir(parents=True)
        proc = run_capped(tmp_path, "split-bands", "clip.wav", "--outdir", "out")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: out/band1.wav: cannot write WAV (")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize(
        "flag", [["--electrodes", ","], ["--electrodes="]], ids=["comma", "empty"]
    )
    def test_empty_electrode_list_rejected(self, tmp_path, capsys, flag):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg)
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--clips", "1",
            *flag, "--outdir", str(tmp_path / "out"),
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

    def test_clip_count_past_the_recording_fails_in_bounded_memory(self, tmp_path):
        # a nominal timeline of 1e9 clips would take hundreds of GB, past the child's cap
        make_eeg_fixture(tmp_path / "eeg.csv", electrodes=("F3",))
        proc = run_capped(
            tmp_path, "analyze", "eeg.csv", "--fs", "256", "--clips", "1000000000",
            "--electrodes", "F3", "--outdir", "out",
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: eeg.csv: recording ends before condition 'clip2_original' "
            "(235-255 s needs 65280 samples, have 60160)\n"
        )

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
        assert "error: F3 clip1_original: band-pass needs at least 16 samples, got 8" in err

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
            (None, None, 1, "{csv}: sampling rate not given (--fs) and no sidecar {json} found"),
        ],
        ids=[
            "sidecar_empty", "sidecar_list", "sidecar_bool", "sidecar_zero", "sidecar_string",
            "sidecar_nan", "flag_inf", "flag_nan", "flag_zero", "flag_negative", "no_rate",
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
        expected = message.format(csv=eeg, json=tmp_path / "eeg.json", positive=positive)
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
                [{"label": "rest", "start_s": -10, "end_s": 60},
                 {"label": "clip1_original", "start_s": 60, "end_s": 80}],
                "condition 'rest' starts at -10 s, before the recording",
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
            (
                {"label": "rest", "start_s": 0, "end_s": 60},
                "marker file must be a JSON list",
            ),
            (
                [{"label": "rest", "start_s": 0, "end_s": 60},
                 {"label": "clip1_original", "start_s": "60", "end_s": 80}],
                'marker 1: start_s must be a JSON number, got "60"',
            ),
            (
                [{"label": "rest", "start_s": 0, "end_s": True},
                 {"label": "clip1_original", "start_s": 60, "end_s": 80}],
                "marker 0: end_s must be a JSON number, got true",
            ),
            (
                [{"label": "rest", "start_s": 0, "end_s": 60},
                 {"label": "clip1_original", "start_s": 60, "end_s": 60}],
                "marker 1: condition must have positive duration",
            ),
            (
                # the label is read first, so it is the one named
                [{"label": "rest", "start_s": 0, "end_s": 60}, {"start_s": "x"}],
                "marker 1: 'label'",
            ),
        ],
        ids=[
            "no_rest", "overlap", "before_zero", "bad_label", "infinite_time", "repeated_label",
            "not_a_list", "time_string", "time_bool", "zero_duration", "missing_label",
        ],
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

    def test_dwt_rhythm_below_the_deepest_subband_is_located(self, tmp_path, capsys):
        # 102 samples allow 4 levels, down to 8-16 Hz: none overlaps theta's 4-7 Hz
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",), duration_s=11.0)
        markers = tmp_path / "markers.json"
        markers.write_text(json.dumps([
            {"label": "rest", "start_s": 0.0, "end_s": 10.0},
            {"label": "clip1_original", "start_s": 10.0, "end_s": 10.4},
        ]))
        rc = main([
            "analyze", str(eeg), "--fs", "256", "--markers", str(markers), "--electrodes", "F3",
            "--rhythm-method", "dwt", "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: F3 clip1_original: no dyadic subband down to level 4, the deepest the "
            "window allows, overlaps 4-7 Hz at 256 Hz\n"
        )

    @pytest.mark.parametrize("method", ["fft", "dwt"])
    def test_rhythm_above_nyquist_is_named_by_either_method(self, tmp_path, capsys, method):
        # at 50 Hz gamma's 13-30 Hz passes Nyquist; no dyadic subband stands in for it
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",), fs=50.0)
        rc = main([
            "analyze", str(eeg), "--fs", "50", "--clips", "1", "--electrodes", "F3",
            "--rhythm-method", method, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: F3 rest: band gamma exceeds Nyquist (25.0 Hz)\n"

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
            "error: F3 rest: rhythm filter overflowed: the window's samples are too large\n"
        )

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            # the DWT band signal stays finite, and MFDFA rescales its profile exactly
            (["--rhythm-method", "dwt", "--no-envelope"], 0, ""),
            # EMD sifts the window rescaled exactly; the FFT envelope then overflows
            (
                ["--emd-drop", "1"], 1,
                "error: F3 rest: rhythm filter overflowed: "
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

    def test_markers_labels_are_normalised(self, tmp_path):
        eeg = tmp_path / "eeg.csv"
        make_eeg_fixture(eeg, electrodes=("F3",))
        markers = [
            {"label": "rest", "start_s": 0, "end_s": 60},
            {"label": "clip01_band03", "start_s": 60, "end_s": 80},
            {"label": "clip1_original", "start_s": 85, "end_s": 105},
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
        assert {r["condition"] for r in payload["records"]} == {
            "rest", "clip1_band3", "clip1_original",
        }
        rows = (outdir / "report.csv").read_text().strip().split("\n")[1:]
        assert {tuple(row.split(",")[3:5]) for row in rows} == {("1", "band3"), ("1", "original")}

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
        # one line, also through the pool: a worker prints no traceback
        assert capsys.readouterr().err == (
            "error: F3 rest alpha: scale 16: all segments have zero residual variance\n"
        )
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
            (
                {"records": [dict(GOOD_RECORD, w=None)]},
                "record 0: w must be a JSON number, got null",
            ),
            (
                {"records": [GOOD_RECORD, dict(GOOD_RECORD, w=-0.1)]},
                "record 1: width must be finite and non-negative, got -0.1",
            ),
            ({"records": [dict(GOOD_RECORD, condition="clipX")]}, "record 0: bad label 'clipX'"),
            (
                {"records": [dict(GOOD_RECORD, flags=5)]},
                "record 0: flags must be a JSON string, got 5",
            ),
            (
                {"records": [GOOD_RECORD, dict(GOOD_RECORD, condition=["rest"])]},
                'record 1: condition must be a JSON string, got ["rest"]',
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
                {"schema_version": "2", "records": [GOOD_RECORD]},
                "schema_version must be '1', got '2'",
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
            (
                {"records": [GOOD_RECORD, dict(GOOD_RECORD, subject="S,1")]},
                "record 1: subject 'S,1' must not contain ','",
            ),
            ({"records": [dict(GOOD_RECORD, subject="")]}, "record 0: subject must not be empty"),
            (
                {"records": [dict(GOOD_RECORD, electrode='F"3')]},
                "record 0: electrode name 'F\"3' must not be empty",
            ),
            (
                {"records": [dict(GOOD_RECORD, rhythm="alpha\n")]},
                "record 0: rhythm 'alpha\\n' must not contain '\\n'",
            ),
            (
                {"records": [dict(GOOD_RECORD, flags="nonconcave,x")]},
                "record 0: flags 'nonconcave,x' must not contain ','",
            ),
            *[
                (
                    {"records": [GOOD_RECORD, {k: v for k, v in GOOD_RECORD.items() if k != key}]},
                    f"record 1: missing key '{key}'",
                )
                for key in ("subject", "electrode", "rhythm", "condition")
            ],
            (
                {"records": [dict(GOOD_RECORD, fit_b=True)]},
                "record 0: fit_b must be a JSON number, got true",
            ),
            (
                {"records": [GOOD_RECORD, dict(GOOD_RECORD, alpha0="0.4")]},
                'record 1: alpha0 must be a JSON number, got "0.4"',
            ),
            (
                # a record without flags reads them as empty; record 1's are not a string
                {"records": [
                    {k: v for k, v in GOOD_RECORD.items() if k != "flags"},
                    dict(GOOD_RECORD, flags=None),
                ]},
                "record 1: flags must be a JSON string, got null",
            ),
            (
                {"records": [GOOD_RECORD, dict(GOOD_RECORD, w=5.0)]},
                "records 0 and 1 both give subject 'S01' electrode 'F3' rhythm 'alpha' "
                "condition 'rest'",
            ),
            (
                # the labels are read as parse_label reads them
                {"records": [
                    dict(GOOD_RECORD, condition="clip1_band3"), GOOD_RECORD,
                    dict(GOOD_RECORD, condition="clip01_band03", flags="nonconcave"),
                ]},
                "records 0 and 2 both give subject 'S01' electrode 'F3' rhythm 'alpha' "
                "condition 'clip01_band03'",
            ),
        ],
        ids=[
            "list", "records_not_list", "record_not_object", "missing_key", "null_width",
            "negative_width", "bad_condition", "flags_not_string", "condition_not_string",
            "electrode_path", "electrode_empty", "baseline_not_rest", "schema_not_1", "width_bool",
            "width_string", "fit_a_string", "h2_r2_bool", "config_not_object", "inputs_not_object",
            "no_records", "subject_comma", "subject_empty", "electrode_quote", "rhythm_newline",
            "flags_comma", "missing_subject", "missing_electrode", "missing_rhythm",
            "missing_condition", "fit_b_bool", "alpha0_string", "flags_missing_reads_empty",
            "repeated_record", "repeated_record_other_spelling",
        ],
    )
    def test_malformed_report_names_file_and_record(self, tmp_path, capsys, payload, expected):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert main(["report", str(path), "--outdir", str(tmp_path / "out")]) == 1
        assert f"error: {path}: {expected}" in capsys.readouterr().err


class TestWithoutScipy:
    def test_every_command_runs_without_scipy(self, tmp_path):
        # numpy is the only dependency; a None entry fails every import of scipy
        write_wav(tmp_path / "clip.wav", tone(2500.0, 44100.0, 0.5), 44100.0)
        make_eeg_fixture(tmp_path / "eeg.csv", electrodes=("F3",))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mfsig.cli import main\n"
            "for argv in [\n"
            "    ['split-bands', 'clip.wav', '--outdir', 'bands'],\n"
            "    ['synth', 'white', '--n', '4096', '-o', 's.csv'],\n"
            "    ['mfdfa', 's.csv', '-o', 'r.json'],\n"
            "    ['analyze', 'eeg.csv', '--fs', '256', '--clips', '1', '--electrodes', 'F3',"
            " '--outdir', 'out'],\n"
            "    ['analyze', 'eeg.csv', '--fs', '256', '--clips', '1', '--electrodes', 'F3',"
            " '--emd-drop', '1', '--outdir', 'emd'],\n"
            f"    ['listening', {str(FIXDIR / 'listening_sheets.csv')!r}, '-o', 'table.csv'],\n"
            "    ['report', 'emd/report.json', '--outdir', 'again'],\n"
            "]:\n"
            "    assert main(argv) == 0, argv\n"
        )
        src = str(Path(mfsig.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        for path in ("bands/band5.wav", "r.json", "out/report.csv", "emd/report.csv",
                     "table.csv", "again/report.csv"):
            assert (tmp_path / path).exists(), path


ONE_ROW_EEG = b"sample,F3\n0,1.0\n"
SHEET_HEADER = b"subject,clip,part1,part2,part3,part4,part5\n"


class TestInputNotUtf8:
    @pytest.mark.parametrize(
        "files,argv,where",
        [
            ({"s.csv": b"value\n0.5\n\xff\n"}, ["mfdfa", "s.csv", "-o", "out"], "s.csv: line 3"),
            (
                {"eeg.csv": b"sample,F3\n0,1.0\n1,\xff\n"},
                ["analyze", "eeg.csv", "--fs", "256", "--outdir", "out"], "eeg.csv: line 3",
            ),
            (
                {"eeg.csv": ONE_ROW_EEG, "eeg.json": b'{"fs_hz":\n\xff}'},
                ["analyze", "eeg.csv", "--outdir", "out"], "eeg.json: line 2",
            ),
            (
                {"eeg.csv": ONE_ROW_EEG, "m.json": b"[\xff]"},
                ["analyze", "eeg.csv", "--fs", "256", "--markers", "m.json", "--outdir", "out"],
                "m.json: line 1",
            ),
            (
                {"report.json": b'{"records":\n\n\xff}'},
                ["report", "report.json", "--outdir", "out"], "report.json: line 3",
            ),
            (
                {"sheets.csv": SHEET_HEADER + b"S1,1,0,0,1,1,\xff\n"},
                ["listening", "sheets.csv", "-o", "out"], "sheets.csv: line 2",
            ),
        ],
        ids=["series_csv", "eeg_csv", "sidecar", "markers", "report_json", "response_sheets"],
    )
    def test_exits_1_naming_file_and_line(self, tmp_path, capsys, monkeypatch, files, argv, where):
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {where}: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "out").exists()


POSITIVE = "expected a finite positive number"
NON_NEGATIVE = "expected a finite non-negative number"
FINITE = "expected a finite number"


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
            (["analyze", "{csv}", "--workers", "two"], "argument --workers: expected an integer"),
            (["analyze", "{csv}", "--order", "0"], "argument --order: must be at least 1, got 0"),
            (["mfdfa", "{csv}", "--order", "0"], "argument --order: must be at least 1, got 0"),
            (["mfdfa", "{csv}", "--order", "-1"], "argument --order: must be at least 1, got -1"),
            *(
                (["split-bands", "{wav}", "--rms", value], f"argument --rms: {POSITIVE}, got {value!r}")
                for value in ("nan", "inf", "0", "-1", "abc")
            ),
            *(
                (
                    ["split-bands", "{wav}", "--transition", value],
                    f"argument --transition: {NON_NEGATIVE}, got {value!r}",
                )
                for value in ("nan", "inf", "-5")
            ),
            *(
                (["synth", "tone", f"{flag}={value}"], f"argument {flag}: {FINITE}, got {value!r}")
                for flag in ("--freq", "--amplitude")
                for value in ("nan", "inf", "-inf")
            ),
            (["synth", "white", "--n", "0"], "argument --n: must be at least 1, got 0"),
            (["synth", "white", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
            (["synth", "cascade", "--k", "40"], "argument --k: must lie in [1, 24], got 40"),
            (
                ["synth", "cascade", "--a", "2"],
                "argument --a: expected a number in (0.5, 1), got '2'",
            ),
            (
                ["synth", "fgn", "--hurst", "1.5"],
                "argument --hurst: expected a number in (0, 1), got '1.5'",
            ),
            (["synth", "fgn", "--n", "3"], "argument --n: fgn needs at least 1024, got 3"),
            *(
                (["analyze", "{csv}", "--subject", value], f"argument --subject: {message}")
                for value, message in [
                    ("S,1", "subject 'S,1' must not contain ','"),
                    ('S"1', "subject 'S\"1' must not contain '\"'"),
                    ("S\n1", "subject 'S\\n1' must not contain '\\n'"),
                    ("S\r1", "subject 'S\\r1' must not contain '\\r'"),
                    ("", "subject must not be empty"),
                ]
            ),
        ],
        ids=[
            "mfdfa_fs", "rhythm_method", "synth_kind", "synth_fs_inf", "workers_0", "workers_neg",
            "workers_word", "analyze_order_0", "mfdfa_order_0", "mfdfa_order_neg",
            "rms_nan", "rms_inf", "rms_0", "rms_neg", "rms_word", "transition_nan",
            "transition_inf", "transition_neg", "freq_nan", "freq_inf", "freq_neg_inf",
            "amplitude_nan", "amplitude_inf", "amplitude_neg_inf", "white_n_0", "seed_neg",
            "cascade_k_40", "cascade_a_2", "fgn_hurst_1_5", "fgn_n_3", "subject_comma",
            "subject_quote", "subject_lf", "subject_cr", "subject_empty",
        ],
    )
    def test_exits_2_naming_the_argument(self, tmp_path, capsys, argv, message):
        series_csv = tmp_path / "series.csv"
        write_series_csv(series_csv, white_noise(1024, seed=3))
        wav = tmp_path / "clip.wav"
        write_wav(wav, tone(2500.0, 44100.0, 0.1), 44100.0)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(csv=series_csv, wav=wav) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mfsig {argv[0]} ")
        assert message in err


LIST = "expected comma-separated integers"
SCALES = "scales must be strictly increasing with >= 2 entries"


class TestIntegerListFlags:
    @pytest.mark.parametrize(
        "argv,flag,message",
        [
            (["mfdfa", "--scales", "16,abc"], "--scales", LIST),
            (["analyze", "--fs", "256", "--emd-drop", "x"], "--emd-drop", LIST),
            (["mfdfa", "--scales", ","], "--scales", LIST),
            (["analyze", "--fs", "256", "--emd-drop", ","], "--emd-drop", LIST),
            (["analyze", "--fs", "256", "--emd-drop", "0"], "--emd-drop", LIST),
            (["analyze", "--fs", "256", "--emd-drop=-1"], "--emd-drop", LIST),
            (["mfdfa", "--scales=0,16"], "--scales", LIST),
            (["mfdfa", "--scales", "32,16"], "--scales", SCALES),
            (["mfdfa", "--scales", "16"], "--scales", SCALES),
            (["analyze", "--fs", "256", "--clips", "0"], "--clips", "must be at least 1, got 0"),
            (["mfdfa", "--q-step", "10"], "--q-step", "the q range -5 to 5 in steps of 10"),
        ],
        ids=[
            "scales", "emd_drop", "scales_empty", "emd_drop_empty", "emd_drop_0",
            "emd_drop_neg", "scales_0", "scales_decreasing", "scales_one", "clips_0", "q_step_10",
        ],
    )
    def test_bad_list_is_usage_error_before_input_is_read(
        self, tmp_path, capsys, argv, flag, message
    ):
        # the input does not exist: reading it first would exit 1, not 2
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], missing, *argv[1:]])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
