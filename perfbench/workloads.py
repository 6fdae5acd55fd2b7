"""Workload definitions, seeded input generation, iteration bodies and
output checks.

Shared by the parent (``run.py``, which also runs the traced iteration
in-process) and the child (``child.py``, one untraced iteration per
process). Every call into the program goes through a module attribute
(``cli.main``, ``mfdfa.run_mfdfa``, ...) so that the tracer can wrap it.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

ELECTRODES = ("F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")
FS_HZ = 256
RHYTHMS = 3  # alpha, gamma, theta: one MFDFA series each per window
STIMULI_PER_CLIP = 6  # original + five band parts

FGN_HURST = 0.8
CASCADE_K = 16
CASCADE_A = 0.75
# C2's scale grid, aligned with the cascade's dyadic cells
CASCADE_SCALES = tuple(2**e for e in range(7, 15))
H2_TOLERANCE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "eeg" or "series"
    electrodes: int = 0
    clips: int = 0
    flags: tuple = ()
    series_log2: int = 0
    surrogates: int = 0

    @property
    def windows(self) -> int:
        """(electrode, condition) windows: the rest baseline plus every stimulus."""
        return self.electrodes * (1 + STIMULI_PER_CLIP * self.clips)

    @property
    def series_per_iteration(self) -> int:
        if self.kind == "eeg":
            return self.windows * RHYTHMS
        return 1 + self.surrogates + 1  # fGn, its surrogates, the cascade

    @property
    def report_lines(self) -> int:
        return 1 + self.electrodes * RHYTHMS * self.clips * STIMULI_PER_CLIP


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("eeg_c8", "eeg", electrodes=10, clips=4),
        # Timed with one worker like eeg_c8: on a 2-vCPU virtual machine the
        # wall time of 2-worker runs followed host CPU steal (10.9 s at 0.1%
        # steal, 19.6 s at 10%), a run-to-run spread of 26%. The traced run
        # times the pool instead (pipeline.parallel_efficiency).
        Workload(
            "eeg_emd", "eeg", electrodes=10, clips=4,
            flags=("--emd-drop", "1", "--bidirectional", "--rhythm-method", "dwt"),
        ),
        Workload(
            "series_surrogate", "series",
            # 2^18, not 2^17: at 2^17 the fGn h(2) estimate has a spread of
            # 0.019 over seeds and misses the 0.05 check on about 1 seed in 150
            series_log2=18, surrogates=3,
        ),
    )
}

# Same code paths at a size that runs in seconds; used by selftest.py.
TINY = {
    "eeg_c8": dict(electrodes=2, clips=1),
    "eeg_emd": dict(electrodes=2, clips=1),
    "series_surrogate": dict(series_log2=15, surrogates=2),
}


def sized(name: str, size: str) -> Workload:
    wl = WORKLOADS[name]
    if size == "tiny":
        wl = replace(wl, **TINY[name])
    return wl


def program(name: str):
    """The ``mfsig.<name>`` module. ``mfsig.emd`` as an attribute is the
    re-exported function, so modules are looked up by their full name."""
    return importlib.import_module(f"mfsig.{name}")


# ---------------------------------------------------------------- inputs


def make_inputs(wl: Workload, seed: int, workdir: Path) -> dict:
    """Write the seeded inputs with the program's own writers; return sizes."""
    import numpy as np

    dataio, protocol, synth = program("dataio"), program("protocol"), program("synth")
    if wl.kind == "eeg":
        n = int(protocol.build_timeline(wl.clips).total_duration_s * FS_HZ)
        rng = np.random.default_rng(seed)
        channels = {e: rng.standard_normal(n) for e in ELECTRODES[: wl.electrodes]}
        path = workdir / "eeg.csv"
        dataio.write_eeg_csv(path, channels)
        (workdir / "eeg.json").write_text(json.dumps({"fs_hz": FS_HZ}))
        return {
            "bytes": path.stat().st_size,
            "samples": n * wl.electrodes,
            "windows": wl.windows,
            "mfdfa_series_per_iteration": wl.series_per_iteration,
        }
    fgn_path, cascade_path = workdir / "fgn.csv", workdir / "cascade.csv"
    dataio.write_series_csv(fgn_path, synth.fgn(2**wl.series_log2, FGN_HURST, seed))
    dataio.write_series_csv(cascade_path, synth.binomial_cascade(CASCADE_K, CASCADE_A))
    return {
        "bytes": fgn_path.stat().st_size + cascade_path.stat().st_size,
        "samples": 2**wl.series_log2 + 2**CASCADE_K,
        "windows": 0,
        "mfdfa_series_per_iteration": wl.series_per_iteration,
    }


# ------------------------------------------------------------ iterations


def run_iteration(wl: Workload, seed: int, workdir: Path, outdir: Path, workers: int) -> int:
    """One iteration of the workload through the public entry points.

    Returns the exit code of the failing ``mfsig`` command, else 0.
    """
    cli = program("cli")
    outdir.mkdir(parents=True, exist_ok=True)
    if wl.kind == "eeg":
        subset = []
        if wl.electrodes < len(ELECTRODES):
            subset = ["--electrodes", ",".join(ELECTRODES[: wl.electrodes])]
        return cli.main([
            "analyze", str(workdir / "eeg.csv"), "--clips", str(wl.clips),
            "--outdir", str(outdir), "--workers", str(workers), *wl.flags, *subset,
        ])

    dataio, mfdfa, series, spectrum = (
        program(m) for m in ("dataio", "mfdfa", "series", "spectrum")
    )
    fgn_path = workdir / "fgn.csv"
    rc = cli.main(["mfdfa", str(fgn_path), "--bidirectional", "-o", str(outdir / "fgn.json")])
    if rc:
        return rc
    ts = dataio.read_series_csv(fgn_path)
    cfg = mfdfa.MfdfaConfig(bidirectional=True)
    surrogates = []
    for k in range(wl.surrogates):
        result = mfdfa.run_mfdfa(series.shuffle(ts, 1000 * seed + k), cfg)
        fit = spectrum.fit_spectrum(spectrum.singularity_spectrum(result.hurst))
        surrogates.append({"q": result.q_grid.tolist(), "h": result.h.tolist(), "w": fit.width})
    (outdir / "surrogates.json").write_text(json.dumps(surrogates))
    return cli.main([
        "mfdfa", str(workdir / "cascade.csv"), "--bidirectional",
        "--scales", ",".join(map(str, CASCADE_SCALES)), "-o", str(outdir / "cascade.json"),
    ])


# ---------------------------------------------------------------- checks


def cascade_hurst(q: float, a: float = CASCADE_A) -> float:
    """Closed-form h(q) of the binomial cascade, coded apart from the program."""
    b = 1.0 - a
    if q == 0:
        return -math.log(a * b) / (2.0 * math.log(2.0))
    return 1.0 / q - math.log(a**q + b**q) / (q * math.log(2.0))


def _h_at(q_grid: list, h: list, q: float) -> float:
    i = min(range(len(q_grid)), key=lambda j: abs(q_grid[j] - q))
    if abs(q_grid[i] - q) > 1e-9:
        raise KeyError(f"q = {q} not on the grid")
    return h[i]


def check_outputs(wl: Workload, outdir: Path, reference_csv: bytes | None = None) -> list:
    """Names of the output checks that failed (empty when all pass)."""
    try:
        if wl.kind == "eeg":
            return _check_eeg(wl, outdir, reference_csv)
        return _check_series(outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


def _check_eeg(wl: Workload, outdir: Path, reference_csv: bytes | None) -> list:
    failed = []
    data = (outdir / "report.csv").read_bytes()
    rows = list(csv.DictReader(data.decode().splitlines()))
    if 1 + len(rows) != wl.report_lines:
        failed.append(f"report.csv has {1 + len(rows)} lines, expected {wl.report_lines}")
    bad = [r for r in rows if not r["w"] or not math.isfinite(float(r["w"]))]
    if bad:
        failed.append(f"report.csv: {len(bad)} rows with non-finite w")
    if reference_csv is not None and data != reference_csv:
        failed.append("report.csv differs from the reference run on the same inputs")
    return failed


def _check_series(outdir: Path) -> list:
    failed = []
    fgn = json.loads((outdir / "fgn.json").read_text())["mfdfa"]
    h2 = _h_at(fgn["q"], fgn["h"], 2.0)
    if abs(h2 - FGN_HURST) > H2_TOLERANCE:
        failed.append(f"fGn h(2) = {h2:.4f}, not within {H2_TOLERANCE} of {FGN_HURST}")
    for k, sur in enumerate(json.loads((outdir / "surrogates.json").read_text())):
        h2 = _h_at(sur["q"], sur["h"], 2.0)
        if abs(h2 - 0.5) > H2_TOLERANCE:
            failed.append(f"surrogate {k} h(2) = {h2:.4f}, not within {H2_TOLERANCE} of 0.5")
    cascade = json.loads((outdir / "cascade.json").read_text())["mfdfa"]
    err = max(abs(h - cascade_hurst(q)) for q, h in zip(cascade["q"], cascade["h"]))
    if err > H2_TOLERANCE:
        failed.append(f"cascade max|h(q) - oracle| = {err:.4f} > {H2_TOLERANCE}")
    return failed
