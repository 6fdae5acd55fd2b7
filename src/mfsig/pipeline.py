"""End-to-end EEG analysis: segmentation, rhythm extraction, MFDFA,
spectrum fitting, and report assembly.

The unit of work is one electrode's windows of one clip and one length
(the rest baseline is its own job): every rhythm series of those windows
goes through MFDFA as one batch. Jobs are pure and independent, so they can
run across processes. Records come back in job order; emission sorts them,
so the emitted report is identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bands
from .emd import emd_denoise
from .errors import AnalysisError, DataFormatError
from .mfdfa import MfdfaConfig, MfdfaResult, run_mfdfa_batch
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


def _run_job(job: tuple) -> list[WidthRecord]:
    """Analyze one electrode's windows of one clip and one length, all rhythms.

    Each window is EMD-denoised first when configured, and one
    ``bands.rhythm_series`` call builds its three rhythm series; every rhythm
    series of every window goes through MFDFA as one batch, and then each
    series' spectrum is fitted. An AnalysisError is prefixed with the
    electrode, condition and rhythm of the first failing step (no rhythm for
    EMD); in the front end and MFDFA, of the series they name.
    Returns the records in window order and sorted rhythm order.
    """
    subject, electrode, windows, config = job
    mfdfa_config = MfdfaConfig(
        detrend_order=config.detrend_order, bidirectional=config.bidirectional
    )
    rhythms = sorted(bands.RHYTHMS)
    keys, series, records = [], [], []
    try:
        for condition, window in windows:
            where = f"{electrode} {condition}"
            if config.emd_drop:
                window = emd_denoise(window, drop_imfs=list(config.emd_drop))
            # the front end names the failing rhythm; a whole-window failure, the first
            where, first = None, len(keys)
            keys += [(f"{electrode} {condition} {r}", condition, r) for r in rhythms]
            rows = bands.rhythm_series(window, config.rhythm_method, config.use_envelope)
            series += [window.with_samples(row) for row in rows]
        where, first = None, 0  # the batch names the failing series
        results = run_mfdfa_batch(series, mfdfa_config)
        for (where, condition, rhythm_name), result in zip(keys, results):
            fit = fit_spectrum(singularity_spectrum(result.hurst))
            records.append(WidthRecord(
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
            ))
    except AnalysisError as exc:
        where = where or keys[first + (exc.series or 0)][0]
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
    # one job per electrode, clip and window length; the baseline has clip None
    batches: dict[tuple, list] = {}
    for electrode in config.electrodes:
        eeg = TimeSeries(channels[electrode], fs)
        for cond, window in segment_recording(eeg, conditions):
            batches.setdefault((electrode, cond.clip, len(window)), []).append((cond.label, window))
    jobs = [
        (subject_id, electrode, windows, config)
        for (electrode, _, _), windows in batches.items()
    ]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [_run_job(job) for job in jobs]
    records = [r for job_records in results for r in job_records]
    return AnalysisReport(records=records, config=asdict(config))
