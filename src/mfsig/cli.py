"""Command-line interface.

Subcommands: split-bands, mfdfa, analyze, synth, listening, report; the
exit codes are ``main``'s. Every JSON output embeds the resolved configuration
and a content hash of its inputs so runs can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, synth
from .bands import normalize, rms, split_bands
from .errors import AnalysisError
from .mfdfa import DEFAULT_Q_GRID, MfdfaConfig, run_mfdfa
from .pipeline import RunConfig, analyze_recording
from .protocol import aggregate_responses, build_timeline, window_span
from .report import check_subject_id, emit_report, read_report_json
from .spectrum import fit_spectrum, singularity_spectrum

def _int_list(text: str) -> list[int]:
    """argparse type of a comma-separated list of at least one integer, each at least 1."""
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []  # rejected below, with the same message
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers of at least 1, got {text!r}"
        )
    return values


def _scale_list(text: str) -> list[int]:
    """argparse type of ``mfdfa --scales``: a list ``MfdfaConfig`` accepts."""
    try:
        return MfdfaConfig(scales=_int_list(text)).scales.tolist()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer(low: int, high: int | None = None):
    """argparse type of an integer in [low, high], or of at least low when
    high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if high is None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {value}")
        return value

    return parse


def _finite_float(accepts, wanted: str):
    """argparse type of a finite number for which ``accepts`` holds."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")  # rejected below, with the same message
        if not (math.isfinite(value) and accepts(value)):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


def _open_interval(bounds: tuple):
    """argparse type of a number strictly between the two bounds."""
    lo, hi = bounds
    return _finite_float(lambda v: lo < v < hi, f"a number in ({lo:g}, {hi:g})")


_at_least_one = _integer(1)
_finite = _finite_float(lambda v: True, "a finite number")
_positive = _finite_float(lambda v: v > 0, "a finite positive number")
_non_negative = _finite_float(lambda v: v >= 0, "a finite non-negative number")


def _subject_id(text: str) -> str:
    """argparse type of a subject ID that fits a report.csv field."""
    try:
        check_subject_id(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def cmd_split_bands(args) -> int:
    audio, fs = dataio.read_wav(args.input)
    try:
        parts = split_bands(audio, fs, transition_hz=args.transition)
    except AnalysisError as exc:
        raise AnalysisError(f"{args.input}: {exc}") from None
    args.outdir.mkdir(parents=True, exist_ok=True)
    source_level = rms(audio)
    for name, band in parts.items():
        # bands 60 dB or more below the clip, and every band of a silent
        # clip, are effectively silent; boosting them would just amplify
        # quantization dust
        if rms(band) > 1e-3 * source_level:
            band = normalize(band, args.rms)
        dataio.write_wav(args.outdir / f"{name}.wav", band, fs)
    print(f"wrote 5 band files to {args.outdir}")
    return 0


def _q_grid(args) -> np.ndarray | None:
    """``mfdfa``'s q grid: None without q flags, else the flags' range with the
    default grid's ends and step filling unset flags. A usage error when the range
    is empty, when the step does not divide it, or when it holds fewer than 3 q
    values; a ValueError or MemoryError when the grid has too many points to build."""
    if args.q_min is None and args.q_max is None and args.q_step is None:
        return None
    lo = float(DEFAULT_Q_GRID[0]) if args.q_min is None else args.q_min
    hi = float(DEFAULT_Q_GRID[-1]) if args.q_max is None else args.q_max
    step = float(DEFAULT_Q_GRID[1] - DEFAULT_Q_GRID[0]) if args.q_step is None else args.q_step
    if not hi >= lo:
        args.usage_error(f"argument --q-max: {hi:g} is below --q-min {lo:g}")
    steps = (hi - lo) / step
    if not steps < np.iinfo(np.intp).max:  # also when hi - lo overflows
        raise ValueError(f"q grid from {lo:g} to {hi:g} in steps of {step:g} is too large")
    q_range = f"the q range {lo:g} to {hi:g}"
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        args.usage_error(f"argument --q-step: {step:g} does not divide {q_range}")
    if round(steps) < 2:
        args.usage_error(
            f"argument --q-step: {q_range} in steps of {step:g} holds fewer than the 3 q values "
            "the spectrum fit needs"
        )
    return np.linspace(lo, hi, int(round(steps)) + 1)


def cmd_mfdfa(args) -> int:
    q_grid = _q_grid(args)
    x = dataio.read_series_csv(args.input)
    cfg = MfdfaConfig(
        detrend_order=args.order,
        scales=args.scales or None,
        q_grid=q_grid,
        bidirectional=args.bidirectional,
    )
    try:
        result = run_mfdfa(x, cfg)
        fit = fit_spectrum(singularity_spectrum(result.hurst))
    except AnalysisError as exc:
        raise AnalysisError(f"{args.input}: {exc}") from None
    payload = {
        "config": {
            "detrend_order": cfg.detrend_order,
            "scales": None if cfg.scales is None else cfg.scales.tolist(),
            "q_grid": None if cfg.q_grid is None else cfg.q_grid.tolist(),
            "bidirectional": cfg.bidirectional,
            "input_path": str(args.input),
        },
        "inputs": {"path": str(args.input), "sha256": dataio.sha256_file(args.input)},
        "mfdfa": {
            "scales": result.scales.tolist(),
            "q": result.q_grid.tolist(),
            "log_fq": result.log_fq.tolist(),
            "h": result.hurst.h.tolist(),
            "r2": result.hurst.r2.tolist(),
            "stderr": [v if math.isfinite(v) else None for v in result.hurst.stderr.tolist()],
            "h_monotone": result.hurst.monotone,
            "zero_variance_segments": result.zero_variance_segments,
        },
        "spectrum": {
            "A": fit.a,
            "B": fit.b,
            "C": 1.0,
            "alpha0": fit.alpha0,
            "W": fit.width,
            "root_alpha_1": fit.root_alpha_1,
            "root_alpha_2": fit.root_alpha_2,
            "raw_alpha_width": fit.raw_width,
            "concave": fit.concave,
            "monofractal_degenerate": fit.monofractal_degenerate,
        },
    }
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.csv:
        rows = zip(result.q_grid.tolist(), np.exp(result.log_fq).tolist(), result.log_fq.tolist())
        with open(args.csv, "w") as fh:
            fh.write("q,s,fq,log_fq\n")
            for q, fq_at_q, log_fq_at_q in rows:
                for s, fq, log_fq in zip(result.scales.tolist(), fq_at_q, log_fq_at_q):
                    fh.write(f"{q:.6g},{s},{fq:.6g},{log_fq:.6g}\n")
    i = result.hurst.index(2.0)
    summary = "" if i is None else f"h(2) = {result.h[i]:.4f}  "
    print(f"{summary}W = {fit.width:.4f}  -> {out}")
    return 0


def cmd_analyze(args) -> int:
    fs = args.fs if args.fs is not None else dataio.read_fs_sidecar(args.input)
    if args.markers:
        timeline = dataio.read_markers(args.markers)
    else:
        # each row of the CSV takes at least two bytes, a field and a comma or a line
        # end: a condition ending past (rows + 1) / fs needs more rows than there are
        rows = os.path.getsize(args.input) // 2
        timeline = build_timeline(args.clips, recording_s=(rows + 1) / fs)
    try:  # the windows analyze_recording cuts; a later rest need not fit
        for cond in timeline.analyzed():
            window_span(cond, fs)
    except AnalysisError as exc:  # name the inputs that set the times and the rate
        rate = "--fs" if args.fs is not None else Path(args.input).with_suffix(".json")
        sources = f"{args.markers} and {rate}" if args.markers else rate
        raise AnalysisError(f"{sources}: {exc}") from None
    cfg = RunConfig(
        detrend_order=args.order,
        bidirectional=args.bidirectional,
        rhythm_method=args.rhythm_method,
        use_envelope=not args.no_envelope,
        emd_drop=args.emd_drop or [],
        input_path=str(args.input),
    )
    if args.electrodes is not None:
        cfg.electrodes = [e.strip() for e in args.electrodes.split(",") if e.strip()]
    report = analyze_recording(
        args.input, fs, timeline, cfg, subject_id=args.subject, workers=args.workers
    )
    report.inputs = {"path": str(args.input), "sha256": dataio.sha256_file(args.input)}
    if args.markers:
        report.inputs["markers_path"] = str(args.markers)
        report.inputs["markers_sha256"] = dataio.sha256_file(args.markers)
    written = emit_report(report, args.outdir)
    print(f"wrote {len(written)} files to {args.outdir}")
    return 0


def cmd_synth(args) -> int:
    if args.kind == "fgn" and args.n < synth.FGN_MIN_LENGTH:
        args.usage_error(f"argument --n: fgn needs at least {synth.FGN_MIN_LENGTH}, got {args.n}")
    if args.kind == "cascade":
        x = synth.binomial_cascade(args.k, args.a)
    elif args.kind == "fgn":
        x = synth.fgn(args.n, args.hurst, args.seed)
    elif args.kind == "white":
        x = synth.white_noise(args.n, args.seed)
    else:  # tone, the last of the kinds argparse allows
        x = synth.tone(args.freq, args.fs, args.duration, args.amplitude)
    dataio.write_series_csv(args.output, x)
    print(f"wrote {len(x)} samples to {args.output}")
    return 0


def cmd_listening(args) -> int:
    marks = dataio.read_response_sheets(args.input)
    table = aggregate_responses(marks)
    lines = ["clip," + ",".join(f"band{b}" for b in range(1, table.shape[1] + 1))]
    for clip, row in enumerate(table.tolist(), start=1):
        lines.append(",".join(str(v) for v in [clip, *row]))
    Path(args.output).write_text("\n".join(lines) + "\n")
    print(f"aggregated {len(marks)} sheets -> {args.output}")
    return 0


def cmd_report(args) -> int:
    report = read_report_json(args.input)
    written = emit_report(report, args.outdir)
    print(f"re-emitted {len(written)} files")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfsig",
        description="Multifractal analysis of EEG rhythms and band-split audio stimuli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split-bands", help="split audio into the five stimulus bands")
    p.add_argument("input", help="input WAV (16/24-bit PCM)")
    p.add_argument("--outdir", type=Path, default=".", help="output directory (default: .)")
    p.add_argument("--rms", type=_positive, default=0.1, help="per-band target RMS (default 0.1)")
    p.add_argument(
        "--transition", type=_non_negative, default=0.0,
        help="raised-cosine edge width in Hz (0 = exact brick-wall)",
    )
    p.set_defaults(func=cmd_split_bands)

    p = sub.add_parser("mfdfa", help="multifractal analysis of one series")
    p.add_argument("input", help="single-column CSV with header")
    p.add_argument("-o", "--output", default="result.json")
    p.add_argument("--csv", default=None, help="also write the (q, s) fluctuation table")
    p.add_argument("--order", type=_at_least_one, default=1, help="detrending polynomial order")
    p.add_argument("--scales", type=_scale_list, help="comma-separated scale list (default: auto)")
    p.add_argument(
        "--q-min", type=_finite, default=None,
        help="lowest q (default -5); a negative exponent form needs '=': --q-min=-5e-1",
    )
    p.add_argument(
        "--q-max", type=_finite, default=None,
        help="highest q (default 5); a negative exponent form needs '=': --q-max=-1e-1",
    )
    p.add_argument("--q-step", type=_positive, default=None)
    p.add_argument("--bidirectional", action="store_true")
    p.set_defaults(func=cmd_mfdfa)

    p = sub.add_parser("analyze", help="full EEG pipeline for one recording")
    p.add_argument("input", help="EEG CSV: header sample,F3,F4,...")
    p.add_argument(
        "--fs", type=_positive, default=None, help="sample rate (Hz); else sidecar JSON"
    )
    p.add_argument("--clips", type=_at_least_one, default=4, help="clips in the nominal timeline")
    p.add_argument("--markers", default=None, help="JSON marker file overriding the timeline")
    p.add_argument("--outdir", type=Path, default=".", help="output directory (default: .)")
    p.add_argument("--subject", type=_subject_id, default="S01")
    p.add_argument("--workers", type=_at_least_one, default=1, help="parallel jobs (default: 1)")
    p.add_argument("--order", type=_at_least_one, default=1)
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--rhythm-method", choices=("fft", "dwt"), default="fft")
    p.add_argument("--no-envelope", action="store_true", help="analyze band signals, not envelopes")
    p.add_argument("--emd-drop", type=_int_list, help="comma-separated IMF indices to remove first")
    p.add_argument("--electrodes", default=None, help="comma-separated subset to analyze")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="generate a benchmark series as CSV")
    p.add_argument("kind", choices=("cascade", "fgn", "white", "tone"))
    p.add_argument("-o", "--output", default="series.csv")
    p.add_argument(
        "--k", type=_integer(*synth.CASCADE_DEPTHS), default=16,
        help="cascade: series length is 2^k",
    )
    p.add_argument(
        "--a", type=_open_interval(synth.CASCADE_MULTIPLIERS), default=0.75,
        help="cascade multiplier in ({:g}, {:g})".format(*synth.CASCADE_MULTIPLIERS),
    )
    p.add_argument(
        "--n", type=_at_least_one, default=65536,
        help=f"fgn/white: series length (fgn: at least {synth.FGN_MIN_LENGTH})",
    )
    p.add_argument(
        "--hurst", type=_open_interval(synth.HURST_EXPONENTS), default=0.8,
        help="fgn: Hurst exponent in ({:g}, {:g})".format(*synth.HURST_EXPONENTS),
    )
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument(
        "--freq", type=_finite, default=440.0,
        help="tone frequency (Hz); a negative exponent form needs '=': --freq=-4.4e2",
    )
    p.add_argument("--fs", type=_positive, default=44100.0)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument(
        "--amplitude", type=_finite, default=1.0,
        help="tone amplitude; a negative exponent form needs '=': --amplitude=-5e-1",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("listening", help="aggregate response sheets into the non-recognition table")
    p.add_argument("input", help="CSV: subject,clip,part1..part5 with 0/1 cells")
    p.add_argument("-o", "--output", default="table.csv")
    p.set_defaults(func=cmd_listening)

    p = sub.add_parser("report", help="re-emit report files from a report.json")
    p.add_argument("input", help="report.json from a previous run")
    p.add_argument("--outdir", type=Path, default=".", help="output directory (default: .)")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: exit 0, 2 on a usage error, or 1 on a data error, one
    ``error:`` line on stderr. The data errors are ``AnalysisError`` (with its
    ``DataFormatError``), ``ValueError``, ``OSError`` and ``MemoryError``."""
    args, unrecognized = build_parser().parse_known_args(argv)
    if unrecognized:  # argparse's own message, under the subcommand's usage line
        args.usage_error(f"unrecognized arguments: {' '.join(unrecognized)}")
    try:
        return args.func(args)
    except (AnalysisError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
