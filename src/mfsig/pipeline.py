"""End-to-end EEG analysis: segmentation, rhythm extraction, MFDFA,
spectrum fitting, and report assembly.

The unit of work is one electrode's windows of one clip and one length
(the rest baseline is its own job), carried as one array: the windows
(k, n) become their rhythm series (k, 3, n), which go through MFDFA and
the spectrum fit as one batch of k * 3 rows, and the records are read off
the result arrays; only a job whose batch fails is run again, a window at
a time, to name the window that fails. Jobs are pure and independent, so
they can run across processes. The recording is read in blocks of rows,
and a job runs as soon as the rows of its windows are in, so only the
rows of windows still to come are held. Records come back in job order;
emission sorts them, so the emitted report is identical for any worker
count.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bands
from .dataio import read_eeg_blocks
from .emd import emd_denoise
from .errors import AnalysisError, DataFormatError
from .mfdfa import MfdfaConfig, run_mfdfa_batch
from .protocol import DEFAULT_ANALYZED, ProtocolTimeline, segment_recording, window_span
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
    h2_r2 = result.hurst.r2[:, result.hurst.index(2.0)]
    flags = {
        "nonconcave": ~fit.concave,
        "monofractal_degenerate": fit.monofractal_degenerate,
        "h_nonmonotone": ~result.hurst.monotone,
    }
    # the record's numbers by name, one dict per row of the (window, rhythm) grid
    columns = {"w": fit.width, "fit_a": fit.a, "fit_b": fit.b, "alpha0": fit.alpha0, "h2_r2": h2_r2}
    numbers = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    return [
        WidthRecord(
            subject_id=subject, electrode=electrode, rhythm=rhythms[i % len(rhythms)],
            condition=labels[i // len(rhythms)], **row,
            flags=";".join(name for name, mask in flags.items() if mask[i]),
        )
        for i, row in enumerate(numbers)
    ]


class _Serial(contextlib.nullcontext):
    """The 1-worker stand-in for a process pool: ``submit`` runs the job at
    once and returns its finished future, holding the records or the job's
    error."""

    def submit(self, fn, job):
        from concurrent.futures import Future

        done = Future()
        try:
            done.set_result(fn(job))
        except AnalysisError as exc:
            done.set_exception(exc)
        return done


def _batches(conditions: list, fs: float) -> list[list[int]]:
    """The conditions' indices grouped into one job's windows per clip and
    window length, in order of first appearance (the baseline has clip None)."""
    batches: dict[tuple, list] = {}
    for i, cond in enumerate(conditions):
        lo, hi = window_span(cond, fs)
        batches.setdefault((cond.clip, hi - lo), []).append(i)
    return list(batches.values())


def _windows_as_read(
    blocks: Iterator[np.ndarray], columns: list, fs: float, conditions: list, batches: list,
    source: str,
) -> Iterator[dict[int, list]]:
    """For each block of samples, one row per sample, the batches whose
    windows are all read once it is: batch index -> its (condition, window)
    pairs, a window one column per electrode of ``columns``, each contiguous.

    The samples read are held as one array, a row per electrode, from the
    earliest start of a window still to come. A batch with a window that
    holds no sample is never ready; once the blocks end, the batches left
    are cut, which raises for the first of their conditions, in condition
    order, that the recording does not cover or whose window holds no sample,
    the error prefixed with ``source``."""
    # batch index -> the spans of its windows, while the batch is still to come
    pending = {b: [window_span(conditions[i], fs) for i in bs] for b, bs in enumerate(batches)}
    held, start, read = np.empty((len(columns), 0)), 0, 0  # held: the samples from start on
    for block in blocks:
        held = np.concatenate([held, block.T[columns]], axis=1)
        read += len(block)
        ready = [b for b, spans in pending.items() if all(read >= hi > lo for lo, hi in spans)]
        yield {
            b: segment_recording(held.T, fs, [conditions[i] for i in batches[b]], start)
            for b in ready
        }
        for b in ready:
            del pending[b]
        # never past the samples read, where the next block goes on
        keep_from = min([lo for spans in pending.values() for lo, _ in spans] + [read])
        held, start = held[:, keep_from - start :], keep_from
    left = sorted(i for b in pending for i in batches[b])
    try:  # raises if any are left
        segment_recording(held.T, fs, [conditions[i] for i in left], start)
    except AnalysisError as exc:
        raise AnalysisError(f"{source}{exc}") from None


def analyze_recording(
    recording: dict[str, np.ndarray] | str | Path,
    fs: float,
    timeline: ProtocolTimeline,
    config: RunConfig,
    subject_id: str = "S01",
    workers: int = 1,
) -> AnalysisReport:
    """Per-electrode, per-condition widths for one recording: channel name ->
    samples, all of one length, or the path of an EEG CSV.

    The baseline window (initial rest) and every stimulus window are
    analyzed; deltas against the baseline are computed at emission time.
    A CSV is read in blocks of rows, a dict is one block. Each job runs, or
    goes to the pool, as soon as its windows are read, and only the rows
    of windows still to come are held (``_windows_as_read``). A CSV error,
    then a window the recording does not cover, wins over a failing job;
    of several failing jobs the first in job order is named.
    """
    if not config.electrodes:
        raise ValueError("the electrode list is empty")
    repeated = sorted({e for e in config.electrodes if config.electrodes.count(e) > 1})
    if repeated:
        raise ValueError(f"electrode(s) listed more than once: {', '.join(repeated)}")
    if isinstance(recording, dict):  # one block, stacked once the missing check has passed
        channels, blocks = list(recording), map(np.column_stack, [list(recording.values())])
    else:
        channels, blocks = read_eeg_blocks(recording)
    source = f"{config.input_path}: " if config.input_path else ""
    missing = [e for e in config.electrodes if e not in channels]
    if missing:
        raise DataFormatError(
            f"{source}recording is missing electrode column(s): {', '.join(missing)}"
        )
    columns = [channels.index(e) for e in config.electrodes]
    conditions = timeline.analyzed()
    batches = _batches(conditions, fs)

    workers = min(workers, len(batches) * len(columns))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    else:
        pool = _Serial()
    with pool:
        outcomes = {}  # (electrode, batch), which sort in job order -> the job's future
        for ready in _windows_as_read(blocks, columns, fs, conditions, batches, source):
            for e, electrode in enumerate(config.electrodes):
                for b, segments in ready.items():
                    windows = [(cond.label, window[:, e]) for cond, window in segments]
                    job = (subject_id, electrode, fs, windows, config)
                    outcomes[e, b] = pool.submit(_run_job, job)
        records = [r for key in sorted(outcomes) for r in outcomes[key].result()]
    return AnalysisReport(records=records, config=asdict(config))
