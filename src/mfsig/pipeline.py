"""End-to-end EEG analysis: segmentation, rhythm extraction, MFDFA,
spectrum fitting, and report assembly.

The unit of work is one (electrode, condition) window; jobs are pure and
independent, so they can run across processes. Results come back in job
order for any worker count, and emission sorts the records, so the emitted
report is identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bands
from .emd import emd_denoise
from .errors import AnalysisError, DataFormatError
from .mfdfa import MfdfaConfig, MfdfaResult, run_mfdfa, run_mfdfa_batch
from .protocol import DEFAULT_ANALYZED, ProtocolTimeline, segment_recording
from .report import AnalysisReport, WidthRecord
from .series import TimeSeries
from .spectrum import SpectrumFit, fit_spectrum, singularity_spectrum


@dataclass
class RunConfig:
    """Resolved settings of one ``analyze`` run; JSON-serializable.

    Every window is analyzed with the default scale and q grids.
    """

    detrend_order: int = 1
    bidirectional: bool = False
    rhythm_method: str = "fft"
    use_envelope: bool = True
    emd_drop: list = field(default_factory=list)
    electrodes: list = field(default_factory=lambda: list(DEFAULT_ANALYZED))
    input_path: str = ""


def analyze_series(ts: TimeSeries, config: MfdfaConfig | None = None) -> tuple[MfdfaResult, SpectrumFit]:
    """MFDFA plus spectrum fit for a single series."""
    result = run_mfdfa(ts, config)
    fit = fit_spectrum(singularity_spectrum(result.hurst))
    return result, fit


def _fit_flags(result: MfdfaResult, fit: SpectrumFit) -> str:
    flags = []
    if not fit.concave:
        flags.append("nonconcave")
    if fit.monofractal_degenerate:
        flags.append("monofractal_degenerate")
    if not result.hurst.monotone:
        flags.append("h_nonmonotone")
    return ";".join(flags)


def _h2_r2(result: MfdfaResult) -> float:
    """R^2 of the h(2) regression; NaN when the q grid has no q = 2."""
    i = result.hurst.index(2.0)
    return float("nan") if i is None else float(result.hurst.r2[i])


def _rhythm_signal(window: TimeSeries, rhythm_name: str, config: RunConfig) -> TimeSeries:
    """The series MFDFA analyzes for one rhythm of a window."""
    signal = bands.extract_rhythm(window, rhythm_name, method=config.rhythm_method)
    return bands.envelope(signal) if config.use_envelope else signal


def _run_job(job: tuple) -> list[WidthRecord]:
    """Analyze one (electrode, condition) window across all rhythms.

    The rhythms' series go through MFDFA as one batch. When that fails, the
    rhythms are analyzed again one at a time, so that the error names the
    first failing rhythm at its first failing step.
    """
    subject, electrode, condition, window, config = job
    where = f"{electrode} {condition}"
    mfdfa_config = MfdfaConfig(
        detrend_order=config.detrend_order, bidirectional=config.bidirectional
    )
    rhythms = sorted(bands.RHYTHMS)
    records = []
    try:
        if config.emd_drop:
            window = emd_denoise(window, drop_imfs=list(config.emd_drop))
        try:
            results = run_mfdfa_batch(
                [_rhythm_signal(window, name, config) for name in rhythms], mfdfa_config
            )
        except AnalysisError:
            for rhythm_name in rhythms:
                where = f"{electrode} {condition} {rhythm_name}"
                analyze_series(_rhythm_signal(window, rhythm_name, config), mfdfa_config)
            raise
        for rhythm_name, result in zip(rhythms, results):
            where = f"{electrode} {condition} {rhythm_name}"
            fit = fit_spectrum(singularity_spectrum(result.hurst))
            records.append(
                WidthRecord(
                    subject_id=subject,
                    electrode=electrode,
                    rhythm=rhythm_name,
                    condition=condition,
                    w=fit.width,
                    fit_a=fit.a,
                    fit_b=fit.b,
                    alpha0=fit.alpha0,
                    h2_r2=_h2_r2(result),
                    flags=_fit_flags(result, fit),
                )
            )
    except AnalysisError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    return records


def analyze_recording(
    channels: dict[str, np.ndarray],
    fs: float,
    timeline: ProtocolTimeline,
    config: RunConfig,
    subject_id: str = "S01",
    workers: int = 1,
) -> AnalysisReport:
    """Per-electrode, per-condition widths for one recording.

    The baseline window (initial rest) and every stimulus window are
    analyzed; deltas against the baseline are computed at emission time.
    """
    if not config.electrodes:
        raise ValueError("the electrode list is empty")
    repeated = sorted({e for e in config.electrodes if config.electrodes.count(e) > 1})
    if repeated:
        raise ValueError(f"electrode(s) listed more than once: {', '.join(repeated)}")
    missing = [e for e in config.electrodes if e not in channels]
    if missing:
        source = f"{config.input_path}: " if config.input_path else ""
        raise DataFormatError(
            f"{source}recording is missing electrode column(s): {', '.join(missing)}"
        )

    conditions = [timeline.baseline()] + timeline.stimulus_conditions()
    jobs = [
        (subject_id, electrode, cond.label, window, config)
        for electrode in config.electrodes
        for cond, window in segment_recording(TimeSeries(channels[electrode], fs), conditions)
    ]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs, chunksize=4))
    else:
        results = [_run_job(job) for job in jobs]

    records = [r for per_job in results for r in per_job]
    return AnalysisReport(records=records, config=asdict(config))
