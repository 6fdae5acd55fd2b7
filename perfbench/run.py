"""mfsig benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eeg_c8 --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole iterations, each in a fresh interpreter that
runs the workload through ``mfsig.cli.main`` and the public functions of
``mfsig.*`` with ``--workers 1``, and prints the end-to-end metrics.
``--trace 1`` runs an EEG workload once untraced with a 2-worker pool in a
fresh interpreter, then every workload twice in this process with
``--workers 1``, untraced and traced, and prints the per-layer metrics.
Every output is checked; a failed check or a non-zero exit counts as a
failed operation. Metric names and units come from BENCHMARK.json; what
each per-layer metric should move is in perfbench/layers.json. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os

# One benchmark process that starts no threads of its own: BLAS pools are
# held at one thread here and in every child, so the program's own process
# pool is the only parallelism. Set before numpy is first imported.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# The program's process pool, at no more workers than the 2 cores measured on.
POOL_WORKERS = 2
SETUP_SAMPLES = 5
IMPORT_TIME_SAMPLES = 3

# ROADMAP's re-anchor figures for eeg_c8 (2 cores), compared in the traced run.
ROADMAP_BASELINE = {
    "wall_s_1_worker": 15.1,
    "wall_s_2_workers": 9.3,
    "q_order_mean_share": 0.63,
    "read_eeg_csv_s": 1.4,
}
BASELINE_AGREEMENT = 0.20


class Tally:
    """Operations attempted and failed; prints every failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, failures: list) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED [{what}]: {failure}", flush=True)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn(args: list, log_path: Path) -> tuple:
    """Run ``python3 *args``; return (start, wall s, peak RSS MB, exit code).

    The peak RSS comes from wait4 on the child, which covers the child
    and every descendant it reaped (the program's pool workers).
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(workdir: Path) -> list:
    """Fresh-interpreter ``import mfsig.cli`` times, after one warm-up."""
    log = workdir / "setup.log"
    spawn(["-c", "import mfsig.cli"], log)  # writes .pyc files, fills the file cache
    return [spawn(["-c", "import mfsig.cli"], log)[1] for _ in range(SETUP_SAMPLES)]


def measure_import_time(workdir: Path) -> float:
    """Median in-interpreter import time of mfsig.cli from ``-X importtime``."""
    log = workdir / "importtime.log"
    samples = []
    for _ in range(IMPORT_TIME_SAMPLES):
        spawn(["-X", "importtime", "-c", "import mfsig.cli"], log)
        for line in log.read_text().splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "mfsig.cli":
                samples.append(int(fields[1]) / 1e6)
    return statistics.median(samples)


def iteration(wl, seed: int, workers: int, outdir: Path, tally: Tally, what: str,
              reference: bytes | None = None, tamper=None) -> dict:
    """One untraced iteration in a fresh interpreter, checked.

    The inputs are in ``outdir.parent``. ``tamper(outdir)``, when given,
    alters the outputs before they are checked; the self-test uses it to
    show that a corrupted output counts as failed.
    """
    import workloads

    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    spec, result = outdir.with_suffix(".spec.json"), outdir.with_suffix(".result.json")
    spec.write_text(json.dumps({
        "workload": dataclasses.asdict(wl), "seed": seed, "workers": workers,
        "workdir": str(outdir.parent), "outdir": str(outdir),
    }))
    result.unlink(missing_ok=True)
    t0, wall, rss, rc = spawn([str(HERE / "child.py"), str(spec), str(result)],
                              outdir.with_suffix(".log"))
    info = json.loads(result.read_text()) if result.exists() else {}
    if rc != 0 or info.get("rc") != 0:
        detail = info.get("error") or f"see {outdir.with_suffix('.log').name}"
        failures = [f"exit code {rc}, mfsig returned {info.get('rc')}: {detail}"]
    else:
        if tamper is not None:
            tamper(outdir)
        failures = workloads.check_outputs(wl, outdir, reference)
    tally.record(what, failures)
    record = {"wall_s": wall, "peak_rss_mb": rss}
    if info.get("t_end") is not None:
        record.update(
            setup_s=info["t_import"] - t0,
            work_s=info["t_end"] - info["t_import"],
            analyze_s=info["analyze_s"],
        )
    return record


def report_bytes(outdir: Path) -> bytes | None:
    path = outdir / "report.csv"
    return path.read_bytes() if path.exists() else None


def timed_run(wl, seed: int, seconds: int, workdir: Path, tally: Tally, tamper=None) -> list:
    """Untraced one-worker iterations for at least ``seconds``; at least one.
    Every report must repeat the first one byte for byte."""
    reference = None
    runs = []
    begin = time.perf_counter()
    while not runs or time.perf_counter() - begin < seconds:
        runs.append(iteration(wl, seed, 1, workdir / "out", tally,
                              f"iteration {len(runs) + 1}", reference, tamper))
        if wl.kind == "eeg" and reference is None:
            reference = report_bytes(workdir / "out")
    return runs


def run_in_process(wl, seed: int, workdir: Path, name: str, tally: Tally,
                   reference: bytes | None, tracer) -> float:
    """One checked iteration in this process with ``--workers 1``, as the
    root span of ``tracer``; returns its duration in seconds."""
    import workloads

    outdir = workdir / name
    outdir.mkdir()
    failures = []
    t0 = time.perf_counter()
    try:
        with open(outdir.with_suffix(".log"), "w") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            rc = tracer.call("iteration", workloads.run_iteration, wl, seed, workdir, outdir, 1)
        if rc != 0:
            failures.append(f"mfsig returned {rc}")
    except Exception:  # one failed operation; report it and go on
        failures.append("raised:\n" + traceback.format_exc())
    elapsed = time.perf_counter() - t0
    if not failures:
        failures = workloads.check_outputs(wl, outdir, reference)
    tally.record(name, failures)
    return elapsed


def traced_run(wl, seed: int, workdir: Path, tally: Tally) -> tuple:
    """For EEG workloads, an untraced run with the program's process pool
    in a fresh interpreter (plus, on eeg_c8, a one-worker run for the
    ROADMAP comparison); then two serial iterations in this process:
    untraced (which also warms the process up), then traced. Their
    difference is the tracing overhead. Every EEG report must repeat the
    first one byte for byte, which covers C8's serial-vs-parallel property.
    """
    import tracer as tr
    import workloads

    extra = {}
    reference = parallel = None
    if wl == workloads.WORKLOADS["eeg_c8"]:
        extra["wall_s_1_worker"] = iteration(
            wl, seed, 1, workdir / "one_worker", tally, "untraced 1 worker"
        )["wall_s"]
        reference = report_bytes(workdir / "one_worker")
    if wl.kind == "eeg":
        parallel = iteration(wl, seed, POOL_WORKERS, workdir / "pool", tally,
                             f"untraced {POOL_WORKERS} workers", reference)
        extra["wall_s_2_workers"] = parallel["wall_s"]
        reference = reference or report_bytes(workdir / "pool")

    # untraced but for one span around analyze_recording
    timer = tr.Tracer()
    timer.wrap(workloads.program("cli"), "analyze_recording", "pipeline.analyze_recording")
    try:
        serial_s = run_in_process(wl, seed, workdir, "serial", tally, reference, timer)
    finally:
        timer.uninstall()
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        extra["traced_s"] = run_in_process(wl, seed, workdir, "traced", tally, reference, tracer)
    finally:
        tracer.uninstall()
    tracer.save(workdir / "spans.npz")
    for site in timer.missing + tracer.missing:
        print(f"trace: {site} not found; its metrics read 0")

    metrics = tr.layer_metrics(tracer)
    metrics["cli.import_s"] = measure_import_time(workdir)
    metrics["trace.overhead_s"] = extra["traced_s"] - serial_s
    serial_analyze = timer.summary().get("pipeline.analyze_recording")
    if serial_analyze and parallel and parallel.get("analyze_s"):
        metrics["pipeline.parallel_efficiency"] = (
            float(serial_analyze["dur_s"].sum()) / (POOL_WORKERS * parallel["analyze_s"])
        )
    else:
        metrics["pipeline.parallel_efficiency"] = 0.0
    return metrics, extra


def print_baseline(metrics: dict, extra: dict) -> None:
    """eeg_c8 next to ROADMAP's re-anchor figures, each as a ratio."""
    measured = {
        "wall_s_1_worker": extra["wall_s_1_worker"],
        "wall_s_2_workers": extra["wall_s_2_workers"],
        "q_order_mean_share": metrics["mfdfa.q_order_mean_s"] / extra["traced_s"],
        "read_eeg_csv_s": metrics["dataio.read_eeg_csv_s"],
    }
    for key, base in ROADMAP_BASELINE.items():
        ratio = measured[key] / base
        verdict = "within" if abs(ratio - 1.0) <= BASELINE_AGREEMENT else "outside"
        print(f"baseline {key}: measured {measured[key]:.4g}, ROADMAP {base:.4g}, "
              f"ratio {ratio:.3f} ({verdict} ±{BASELINE_AGREEMENT:.0%})")


def cpu_ticks() -> tuple:
    """(steal, total) clock ticks of all CPUs from /proc/stat; (0, 0) where absent.

    Steal is time the host gave this machine's CPUs to others: the main
    source of run-to-run spread on a shared host.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(f) for f in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
    }


def load_program() -> None:
    """Put this checkout's ``src`` first on the path and import mfsig from it."""
    if not (SRC / "mfsig" / "__init__.py").is_file():
        raise SystemExit(f"error: no mfsig package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mfsig

    if Path(mfsig.__file__).resolve().parent != (SRC / "mfsig").resolve():
        raise SystemExit(f"error: mfsig imported from {mfsig.__file__}, not from {SRC}")


def median_line(name: str, values: list, unit: str) -> str:
    import tracer as tr

    p, t = tr.tail(values)
    tail = f"p{p} {t:.6g}" if len(values) > 10 else "tail n/a (needs 11 samples)"
    return f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}; {tail})"


def main(argv=None, tamper=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same code paths at a size that runs in seconds")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    wl = workloads.sized(args.workload, args.size)
    workdir = WORK / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    sizes = workloads.make_inputs(wl, args.seed, workdir)
    print(f"inputs {wl.name} seed {args.seed}: " + json.dumps(sizes, sort_keys=True))
    tally = Tally()
    steal0, total0 = cpu_ticks()
    setup = measure_setup(workdir)

    runs = None
    if args.trace:
        values, extra = traced_run(wl, args.seed, workdir, tally)
        declared = bench["per_layer"]
    else:
        runs = timed_run(wl, args.seed, args.seconds, workdir, tally, tamper)
        samples = {
            "wall_s": [r["wall_s"] for r in runs],
            "series_per_s": [wl.series_per_iteration / r["work_s"] for r in runs if "work_s" in r],
            "setup_s": setup,
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        values = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
        declared = bench["end_to_end"]
        for m in declared:
            if samples[m["name"]]:
                print(median_line(m["name"], samples[m["name"]], m["unit"]))

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise SystemExit(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    if args.trace:
        for name in sorted(values):
            print(f"{name} = {values[name]:.6g} {units[name]}")
        if "wall_s_1_worker" in extra:
            print_baseline(values, extra)
    print(f"failed_fraction = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    steal1, total1 = cpu_ticks()
    steal_share = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    print(f"cpu steal during the run: {steal_share:.2%} of CPU time")

    (workdir / "result.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "size": args.size, "trace": args.trace,
        "machine": facts, "cpu_steal_share": steal_share, "inputs": sizes, "setup_s_samples": setup,
        "runs": runs, "metrics": values,
    }, indent=2, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
