"""End-to-end EEG analysis: segmentation, rhythm extraction, MFDFA,
spectrum fitting, and report assembly.

The unit of work is one electrode's windows of one clip and one length
(the rest baseline is its own job), carried as one array: the windows
(k, n) become their rhythm series (k, 3, n), which go through MFDFA and
the spectrum fit as one batch of k * 3 rows, and the records are read off
the result arrays; only a job whose batch fails is run again, a window at
a time, to name the window that fails. Jobs are pure and independent, so
they can run across processes. Records come back in job order; emission
sorts them, so the emitted report is identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bands
from .emd import emd_denoise
from .errors import AnalysisError, DataFormatError
from .mfdfa import MfdfaConfig, run_mfdfa_batch
from .protocol import DEFAULT_ANALYZED, ProtocolTimeline, segment_recording
from .report import AnalysisReport, WidthRecord
from .spectrum import fit_spectra, singularity_spectrum


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


def _rhythm_rows(windows: list, fs: float, config: RunConfig) -> np.ndarray:
    """The rhythm series (k, 3, n) of k windows sampled at fs Hz, each
    EMD-denoised first when configured."""
    if config.emd_drop:
        windows = [emd_denoise(window, drop_imfs=list(config.emd_drop)) for window in windows]
    return bands.rhythm_series(np.stack(windows), fs, config.rhythm_method, config.use_envelope)


def _job_error(exc: AnalysisError, job: tuple, mfdfa_config: MfdfaConfig) -> AnalysisError:
    """The error of the first failing window of a job whose batch raised exc,
    the job run again a window at a time and MFDFA a rhythm series at a time:
    prefixed with the electrode, condition and, past the filter, rhythm."""
    _, electrode, fs, windows, config = job
    for label, window in windows:
        try:
            rows = _rhythm_rows([window], fs, config)[0]
        except AnalysisError as failure:
            return type(failure)(f"{electrode} {label}: {failure}")
        for rhythm, row in zip(sorted(bands.RHYTHMS), rows):
            try:
                result = run_mfdfa_batch(row[np.newaxis], mfdfa_config)
                fit_spectra(singularity_spectrum(result.hurst))
            except AnalysisError as failure:
                return type(failure)(f"{electrode} {label} {rhythm}: {failure}")
    return type(exc)(f"{electrode}: {exc}")  # unreached: a row fails alone as in its batch


def _run_job(job: tuple) -> list[WidthRecord]:
    """Analyze one electrode's windows, sampled at fs Hz, of one clip and one
    length, all rhythms.

    The windows are EMD-denoised first when configured; one
    ``bands.rhythm_series`` call turns them into their rhythm series, which
    go through MFDFA and the spectrum fit as one batch; a failure is located
    by ``_job_error``. Returns the records in window order and sorted rhythm
    order.
    """
    subject, electrode, fs, windows, config = job
    mfdfa_config = MfdfaConfig(config.detrend_order, bidirectional=config.bidirectional)
    rhythms = sorted(bands.RHYTHMS)
    labels = [label for label, _ in windows]
    try:
        rows = _rhythm_rows([window for _, window in windows], fs, config)
        result = run_mfdfa_batch(rows.reshape(-1, rows.shape[-1]), mfdfa_config)
        fit = fit_spectra(singularity_spectrum(result.hurst))
    except AnalysisError as exc:
        raise _job_error(exc, job, mfdfa_config) from None
    q2 = result.hurst.index(2.0)
    h2_r2 = np.full(fit.width.shape, np.nan) if q2 is None else result.hurst.r2[:, q2]
    flags = {
        "nonconcave": ~fit.concave,
        "monofractal_degenerate": fit.monofractal_degenerate,
        "h_nonmonotone": ~result.hurst.monotone,
    }
    # w, fit_a, fit_b, alpha0 and h2_r2 of every row of the (window, rhythm) grid
    values = zip(*(c.tolist() for c in (fit.width, fit.a, fit.b, fit.alpha0, h2_r2)))
    return [
        WidthRecord(
            subject, electrode, rhythms[i % len(rhythms)], labels[i // len(rhythms)], *row,
            flags=";".join(name for name, mask in flags.items() if mask[i]),
        )
        for i, row in enumerate(values)
    ]


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
        for cond, window in segment_recording(channels[electrode], fs, conditions):
            batches.setdefault((electrode, cond.clip, len(window)), []).append((cond.label, window))
    jobs = [
        (subject_id, electrode, fs, windows, config)
        for (electrode, _, _), windows in batches.items()
    ]

    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [_run_job(job) for job in jobs]
    records = [r for job_records in results for r in job_records]
    return AnalysisReport(records=records, config=asdict(config))
