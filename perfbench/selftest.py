"""Self-test of the benchmark at a tiny size (2 electrodes, 1 clip, a
2^15 fGn series); takes about a minute on 2 cores.

    python3 perfbench/selftest.py

Checks that, for every workload and both trace modes, the last line of
stdout is the result object, that it and the lines before it carry every
metric BENCHMARK.json declares with its unit, and that no operation
failed; that perfbench/layers.json covers exactly the per-layer metrics;
that a deliberately corrupted output counts as a failed operation; and
that the benchmark exits non-zero without a result where the program's
sources are missing. Exits 0 when every check passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
TIMEOUT_S = 170


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_printed(lines: list, declared: list) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == {m["name"] for m in declared}, sorted(result["metrics"])
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)
        assert any(ln.startswith(f"{m['name']} = ") and f" {m['unit']}" in ln for ln in lines[:-1]), m
    assert any(ln.startswith("failed_fraction = 0 ") for ln in lines), "failed_fraction missing"


def corrupt_eeg(outdir: Path) -> None:
    path = outdir / "report.csv"
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index("w")] = "nan"
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")


def corrupt_series(outdir: Path) -> None:
    path = outdir / "fgn.json"
    payload = json.loads(path.read_text())
    q = payload["mfdfa"]["q"]
    payload["mfdfa"]["h"][q.index(2.0)] = 0.3
    path.write_text(json.dumps(payload))


def check_corruption_counts(workload: str, tamper) -> None:
    sys.path.insert(0, str(HERE))
    import run

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                       "--trace", "0", "--size", "tiny"], tamper=tamper)
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0 and not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result
    assert any(ln.startswith("FAILED [iteration 1]") for ln in lines), lines


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: a non-zero exit and no result."""
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("eeg_c8", 0, cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert list(layers) == [m["name"] for m in bench["per_layer"]], "layers.json out of step"
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(wl["name"], trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            check_printed(proc.stdout.splitlines(), bench[key])
            print(f"ok {wl['name']} trace {trace}", flush=True)
    check_corruption_counts("eeg_c8", corrupt_eeg)
    check_corruption_counts("series_surrogate", corrupt_series)
    print("ok corrupted outputs count as failed", flush=True)
    check_bare_directory()
    print("ok no result without the program's sources", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
