"""Spans and counters recorded from outside the program.

``install`` replaces each traced function at the name its caller looks
it up by (``mfsig.pipeline.run_mfdfa``, ``mfsig.mfdfa.q_order_mean``, ...)
with a wrapper that records a span: name, start, end, parent span and the
(electrode, condition) window it ran for. Spans live in flat arrays while
the run lasts (an ``eeg_c8`` iteration makes ~600k of them) and are
written out at the end. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.window = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._current_window = NO_PARENT
        self._windows = 0
        self._installed: list[tuple] = []
        self.missing: list[str] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.window.append(self._current_window)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, count=None, new_window: bool = False) -> None:
        """Trace ``owner.attr``; ``count(args, kwargs, result)`` updates counters.

        A function the program no longer has is listed in ``missing`` and
        its metrics read 0, so that a change which removes a layer's
        function still gets a traced run.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_window = self._current_window
            if new_window:
                self._current_window = self._windows
                self._windows += 1
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._current_window = outer_window
            if count is not None:
                count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span of its own, the root of a traced iteration."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def summary(self) -> dict:
        """Per span name: calls, self time (s) and inclusive durations (s).

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        out = {}
        for i, label in enumerate(self.names):
            mask = name == i
            out[label] = {
                "calls": int(np.count_nonzero(mask)),
                "self_s": float(self_time[mask].sum()),
                "dur_s": dur[mask],
            }
        return out

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            window=np.frombuffer(self.window, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def tail(values) -> tuple[int, float]:
    """(p, value) of the highest integer percentile with at least ten
    samples above it; with ten samples or fewer, (100, maximum)."""
    import numpy as np

    v = np.sort(np.asarray(values, dtype=float))
    if v.size <= 10:
        return 100, float(v[-1]) if v.size else 0.0
    for p in range(99, -1, -1):
        q = float(np.percentile(v, p))
        if np.count_nonzero(v > q) >= 10:
            return p, q
    return 0, float(v[0])


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the mfsig package."""
    from workloads import program

    bands, cli, dataio, emd, mfdfa, pipeline, series, spectrum, wavelet = (
        program(m) for m in
        ("bands", "cli", "dataio", "emd", "mfdfa", "pipeline", "series", "spectrum", "wavelet")
    )
    c = tracer.counts

    def add(key, n=1):
        c[key] += int(n)

    def rhythm(a, k, r):
        method = k.get("method", a[2] if len(a) > 2 else "fft")
        add("bands.fft_rhythm_calls", method == "fft")

    def dropped(a, k, r):
        drop = k.get("drop_imfs", a[1] if len(a) > 1 else None)
        add("emd.imfs_dropped", len(set([1] if drop is None else drop)))

    def zero_var(a, k, r):
        add("mfdfa.zero_variance_segments", r.zero_variance_segments)

    def nonconcave(a, k, r):
        add("spectrum.nonconcave_fits", not r.concave)

    sites = [
        (cli, "main", "cli.main", None),
        (cli, "analyze_recording", "pipeline.analyze_recording", None),
        (cli, "emit_report", "report.emit_report",
         lambda a, k, r: add("report.bytes_written", sum(p.stat().st_size for p in r))),
        (dataio, "read_eeg_csv", "dataio.read_eeg_csv",
         lambda a, k, r: add("dataio.eeg_csv_bytes", os.path.getsize(a[0]))),
        (dataio, "read_series_csv", "dataio.read_series_csv", None),
        (dataio, "sha256_file", "dataio.sha256_file", None),
        (pipeline, "emd_denoise", "emd.emd_denoise", dropped),
        (pipeline, "run_mfdfa", "mfdfa.run_mfdfa", zero_var),
        (pipeline, "singularity_spectrum", "spectrum.singularity_spectrum", None),
        (pipeline, "fit_spectrum", "spectrum.fit_spectrum", nonconcave),
        (bands, "extract_rhythm", "bands.extract_rhythm", rhythm),
        (bands, "envelope", "bands.envelope", None),
        (wavelet, "dyadic_subband", "wavelet.dyadic_subband", None),
        (emd, "emd", "emd.emd", lambda a, k, r: add("emd.imfs_extracted", r.n_imfs)),
        (mfdfa, "run_mfdfa", "mfdfa.run_mfdfa", zero_var),
        (mfdfa, "segment_fluctuations", "mfdfa.segment_fluctuations",
         lambda a, k, r: add("mfdfa.segments_detrended", r.size)),
        (mfdfa, "q_order_mean", "mfdfa.q_order_mean",
         lambda a, k, r: add("mfdfa.negative_q_blowups", r[2])),
        (mfdfa, "hurst_exponents", "mfdfa.hurst_exponents", None),
        (spectrum, "singularity_spectrum", "spectrum.singularity_spectrum", None),
        (spectrum, "fit_spectrum", "spectrum.fit_spectrum", nonconcave),
        (series, "shuffle", "series.shuffle", None),
    ]
    for owner, attr, name, count in sites:
        tracer.wrap(owner, attr, name, count)
    tracer.wrap(pipeline, "_run_job", "pipeline._run_job", new_window=True)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans and counters of one traced run."""
    import numpy as np

    s = tracer.summary()
    c = tracer.counts

    def self_s(*names):
        return sum(s[n]["self_s"] for n in names if n in s)

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def ms(name):
        """(median, tail) of the inclusive call durations in ms; 0 without calls."""
        if not calls(name):
            return 0.0, 0.0
        d = s[name]["dur_s"] * 1e3
        return float(np.median(d)), tail(d)[1]

    eeg_read_s = self_s("dataio.read_eeg_csv")
    emd_p50, emd_tail = ms("emd.emd")
    mf_p50, mf_tail = ms("mfdfa.run_mfdfa")
    job_p50, job_tail = ms("pipeline._run_job")
    extracted = c["emd.imfs_extracted"]
    return {
        "dataio.read_eeg_csv_s": eeg_read_s,
        "dataio.read_eeg_csv_mb_per_s":
            c["dataio.eeg_csv_bytes"] / 1e6 / eeg_read_s if eeg_read_s > 0 else 0.0,
        "dataio.sha256_s": self_s("dataio.sha256_file"),
        "dataio.read_series_csv_s": self_s("dataio.read_series_csv"),
        "bands.extract_rhythm_s": self_s("bands.extract_rhythm"),
        "bands.extract_rhythm_calls": calls("bands.extract_rhythm"),
        "bands.envelope_s": self_s("bands.envelope"),
        "bands.envelope_calls": calls("bands.envelope"),
        # computed, not observed: rfft + irfft per FFT rhythm, fft + ifft per envelope
        "bands.fft_count": 2 * c["bands.fft_rhythm_calls"] + 2 * calls("bands.envelope"),
        "wavelet.dyadic_subband_s": self_s("wavelet.dyadic_subband"),
        "emd.emd_s": self_s("emd.emd", "emd.emd_denoise"),
        "emd.emd_calls": calls("emd.emd"),
        "emd.emd_ms_p50": emd_p50,
        "emd.emd_ms_tail": emd_tail,
        "emd.imfs_extracted": extracted,
        "emd.imfs_used_ratio": c["emd.imfs_dropped"] / extracted if extracted else 0.0,
        "mfdfa.run_mfdfa_s": self_s("mfdfa.run_mfdfa"),
        "mfdfa.run_mfdfa_calls": calls("mfdfa.run_mfdfa"),
        "mfdfa.run_mfdfa_ms_p50": mf_p50,
        "mfdfa.run_mfdfa_ms_tail": mf_tail,
        "mfdfa.segment_fluctuations_s": self_s("mfdfa.segment_fluctuations"),
        "mfdfa.segments_detrended": c["mfdfa.segments_detrended"],
        "mfdfa.q_order_mean_s": self_s("mfdfa.q_order_mean"),
        "mfdfa.q_order_mean_calls": calls("mfdfa.q_order_mean"),
        "mfdfa.hurst_exponents_s": self_s("mfdfa.hurst_exponents"),
        "mfdfa.zero_variance_segments": c["mfdfa.zero_variance_segments"],
        "mfdfa.negative_q_blowups": c["mfdfa.negative_q_blowups"],
        "series.shuffle_s": self_s("series.shuffle"),
        "spectrum.fit_s": self_s("spectrum.singularity_spectrum", "spectrum.fit_spectrum"),
        "spectrum.nonconcave_fits": c["spectrum.nonconcave_fits"],
        "pipeline.jobs": calls("pipeline._run_job"),
        "pipeline.job_ms_p50": job_p50,
        "pipeline.job_ms_tail": job_tail,
        "pipeline.analyze_recording_s": self_s("pipeline.analyze_recording", "pipeline._run_job"),
        "report.emit_report_s": self_s("report.emit_report"),
        "report.bytes_written": c["report.bytes_written"],
    }
