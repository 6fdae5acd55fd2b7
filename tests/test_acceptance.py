"""Acceptance gate: one test per release criterion, each printing a
PASS line with its measured figure so the run log doubles as a report.

Run with: pytest tests/test_acceptance.py -v
"""

import time
from pathlib import Path

import numpy as np
import pytest

from mfsig import MfdfaConfig, binomial_cascade, cascade_hurst_oracle, run_mfdfa
from mfsig.bands import STIMULUS_BANDS, fft_bandpass, split_bands
from mfsig.cli import main
from mfsig.dataio import write_eeg_csv
from mfsig.emd import emd
from mfsig.protocol import build_timeline
from mfsig.series import shuffle
from mfsig.spectrum import fit_spectrum, singularity_spectrum
from mfsig.synth import tone, white_noise
from mfsig.wavelet import dwt, idwt

from conftest import DYADIC_SCALES
from oracles import SUB_BAND_FLOOR, cascade_alpha_oracle, energy, imf_sum, plain_dfa_slope

FIXDIR = Path(__file__).parent / "fixtures"

REFERENCE_TABLE = [
    [0, 0, 15, 78, 100],
    [0, 0, 12, 87, 95],
    [0, 0, 5, 97, 100],
    [0, 0, 20, 89, 95],
]


def report(name, detail):
    print(f"ACCEPTANCE PASS: {name} ({detail})")


class TestC1ListeningTable:
    def test_reference_table_reproduced_exactly(self, tmp_path):
        out = tmp_path / "table.csv"
        t0 = time.perf_counter()
        rc = main(["listening", str(FIXDIR / "listening_sheets.csv"), "-o", str(out)])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        parsed = [[int(v) for v in line.split(",")[1:]] for line in lines[1:]]
        assert parsed == REFERENCE_TABLE
        assert elapsed < 1.0
        report("listening table exact", f"{elapsed * 1000:.0f} ms")


class TestC2CascadeOracle:
    def test_hurst_curve_and_width_match_closed_form(self):
        t0 = time.perf_counter()
        ts = binomial_cascade(16, 0.75)
        result = run_mfdfa(ts, MfdfaConfig(bidirectional=True, scales=DYADIC_SCALES))
        fit = fit_spectrum(singularity_spectrum(result.hurst))
        elapsed = time.perf_counter() - t0

        errors = np.array(
            [result.h_at(q) - cascade_hurst_oracle(q, 0.75) for q in result.q_grid]
        )
        max_err = float(np.abs(errors).max())
        assert max_err <= 0.05

        grid_width = cascade_alpha_oracle(-5.0, 0.75) - cascade_alpha_oracle(5.0, 0.75)
        assert grid_width == pytest.approx(1.57, abs=0.01)
        assert abs(fit.width - grid_width) <= 0.25
        assert elapsed <= 10.0
        report(
            "cascade oracle",
            f"max|h err|={max_err:.4f}, |W-{grid_width:.3f}|={abs(fit.width - grid_width):.3f}, {elapsed:.2f} s",
        )


class TestC3MonofractalControls:
    def test_white_noise(self, white_result):
        h2 = white_result.h_at(2.0)
        w = fit_spectrum(singularity_spectrum(white_result.hurst)).width
        assert h2 == pytest.approx(0.5, abs=0.05)
        assert w <= 0.3
        report("white-noise control", f"h(2)={h2:.3f}, W={w:.3f}")

    def test_fgn_hurst_recovered(self, fgn_result):
        h2 = fgn_result.h_at(2.0)
        assert h2 == pytest.approx(0.8, abs=0.05)
        report("fGn control", f"h(2)={h2:.3f}")


class TestC4ShuffleSurrogate:
    def test_shuffling_destroys_correlation(self, fgn_result, fgn_shuffled_result):
        h2 = fgn_shuffled_result.h_at(2.0)
        w_orig = fit_spectrum(singularity_spectrum(fgn_result.hurst)).width
        w_shuf = fit_spectrum(singularity_spectrum(fgn_shuffled_result.hurst)).width
        assert h2 == pytest.approx(0.5, abs=0.05)
        assert w_shuf < w_orig
        report(
            "shuffle surrogate",
            f"h(2)={h2:.3f}, W {w_orig:.3f} -> {w_shuf:.3f}",
        )


class TestC5ReconstructionIdentities:
    def test_dwt_perfect_reconstruction(self):
        worst = 0.0
        for seed in range(10):
            n = 600 + 311 * seed
            ts = white_noise(n, seed=seed)
            back = idwt(dwt(ts.samples, 4))
            rel = float(
                np.sqrt(np.mean((back - ts.samples) ** 2))
                / np.sqrt(np.mean(ts.samples**2))
            )
            worst = max(worst, rel)
        assert worst <= 1e-8
        report("DWT round trip", f"worst rel RMS {worst:.2e} over 10 fixtures")

    def test_emd_completeness(self):
        fs = 256.0
        t = np.arange(int(8 * fs)) / fs
        inputs = [
            white_noise(2048, seed=41, sample_rate_hz=fs),
            tone(5, fs, 8.0),
            white_noise(2048, seed=42, sample_rate_hz=fs).with_samples(
                np.sin(2 * np.pi * 2 * t) + np.sin(2 * np.pi * 40 * t)
            ),
        ]
        worst = 0.0
        for ts in inputs:
            result = emd(ts)
            rel = float(
                np.sqrt(np.mean((imf_sum(result) - ts.samples) ** 2))
                / np.sqrt(np.mean(ts.samples**2))
            )
            worst = max(worst, rel)
        assert worst <= 1e-10
        report("EMD completeness", f"worst rel RMS {worst:.2e}")


class TestC6BandFilterSuite:
    def test_tone_rejection(self):
        ts = tone(500, 44100, 0.25)
        out = fft_bandpass(ts, STIMULUS_BANDS[1])
        ratio = energy(out.samples) / energy(ts.samples)
        assert ratio <= 1e-6
        report("brick-wall rejection", f"out-of-band energy ratio {ratio:.2e}")

    def test_parseval_partition(self):
        ts = white_noise(2**16, seed=55, sample_rate_hz=44100.0)
        total = energy(ts.samples)
        parts = [energy(b.samples) for b in split_bands(ts).values()]
        parts.append(energy(fft_bandpass(ts, SUB_BAND_FLOOR).samples))
        rel = abs(sum(parts) - total) / total
        assert rel <= 1e-6
        report("Parseval partition", f"relative defect {rel:.2e}")

    def test_band_energy_proportionality(self):
        ts = white_noise(2**17, seed=56, sample_rate_hz=44100.0)
        bands = split_bands(ts)
        total = energy(ts.samples)
        nyquist = 44100.0 / 2
        worst = 0.0
        for spec in STIMULUS_BANDS:
            high = spec.high_hz if spec.high_hz is not None else nyquist
            expected = (high - spec.low_hz) / nyquist
            share = energy(bands[spec.name].samples) / total
            worst = max(worst, abs(share / expected - 1.0))
        assert worst <= 0.05
        report("band proportionality", f"worst deviation {worst * 100:.2f}%")


class TestC7ProtocolArithmetic:
    def test_timeline_and_window_sizes(self):
        timeline = build_timeline(4)
        assert timeline.total_duration_s == 760.0
        assert int(20.0 * 256.0) == 5120
        stim = timeline.stimulus_conditions()[0]
        n = int(round(stim.end_s * 256.0)) - int(round(stim.start_s * 256.0))
        assert n == 5120
        report("protocol arithmetic", "760 s timeline, 5120-sample windows")


@pytest.fixture(scope="module")
def eeg_fixture_csv(tmp_path_factory):
    """Synthetic 10-channel, 760 s recording at 256 Hz."""
    tmp = tmp_path_factory.mktemp("e2e")
    path = tmp / "eeg.csv"
    fs = 256.0
    n = int(build_timeline(4).total_duration_s * fs)
    rng = np.random.default_rng(2024)
    electrodes = ("F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")
    write_eeg_csv(path, {e: rng.standard_normal(n) for e in electrodes})
    return path


class TestC8EndToEndDeterminism:
    def test_repeat_runs_and_worker_counts_agree(self, eeg_fixture_csv, tmp_path):
        outs = []
        for name, workers in (("a", 1), ("b", 1), ("c", 8)):
            outdir = tmp_path / name
            rc = main([
                "analyze", str(eeg_fixture_csv), "--fs", "256", "--clips", "4",
                "--outdir", str(outdir), "--workers", str(workers),
            ])
            assert rc == 0
            outs.append(outdir)
        csv_a = (outs[0] / "report.csv").read_bytes()
        assert (outs[1] / "report.csv").read_bytes() == csv_a
        assert (outs[2] / "report.csv").read_bytes() == csv_a
        json_a = (outs[0] / "report.json").read_bytes()
        assert (outs[1] / "report.json").read_bytes() == json_a
        assert (outs[2] / "report.json").read_bytes() == json_a
        rows = csv_a.decode().strip().split("\n")
        assert len(rows) == 1 + 10 * 3 * 4 * 6  # full grid
        report("end-to-end determinism", f"{len(rows) - 1} rows byte-identical across runs and 1 vs 8 workers")


class TestC9PlainDfaCrossCheck:
    @pytest.mark.parametrize(
        "make_ts",
        [
            lambda: white_noise(8192, seed=71),
            lambda: binomial_cascade(13, 0.75),
            lambda: shuffle(white_noise(8192, seed=72), seed=5),
        ],
        ids=["white", "cascade", "shuffled"],
    )
    def test_h2_equals_independent_dfa(self, make_ts):
        ts = make_ts()
        scales = np.array([16, 32, 64, 128, 256, 512])
        result = run_mfdfa(ts, MfdfaConfig(scales=scales, q_grid=np.array([2.0])))
        ref = plain_dfa_slope(ts.samples, scales, order=1)
        diff = abs(result.h_at(2.0) - ref)
        assert diff <= 1e-9
        report("q=2 cross-check", f"|h2 - dfa| = {diff:.2e}")
