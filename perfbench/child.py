"""One untraced iteration of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON RESULT_JSON

``run.py`` writes SPEC_JSON and starts this script with ``src`` on
PYTHONPATH. The result records monotonic timestamps (comparable with the
parent's ``time.perf_counter`` on Linux): interpreter start of this
script, end of ``import mfsig.cli``, and end of the iteration, plus the
time spent inside ``analyze_recording`` for EEG workloads.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import mfsig.cli

    t_import = time.perf_counter()
    import workloads

    out = {"t_start": T_START, "t_import": t_import, "analyze_s": None, "error": None}
    # one timer around the single analyze_recording call: no per-layer spans
    analyze = getattr(mfsig.cli, "analyze_recording", None)

    def timed_analyze(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return analyze(*args, **kwargs)
        finally:
            out["analyze_s"] = time.perf_counter() - t0

    if analyze is not None:
        mfsig.cli.analyze_recording = timed_analyze
    wl = workloads.Workload(**{**spec["workload"], "flags": tuple(spec["workload"]["flags"])})
    try:
        out["rc"] = workloads.run_iteration(
            wl, spec["seed"], Path(spec["workdir"]), Path(spec["outdir"]), spec["workers"]
        )
    except Exception:  # reported to the parent as a failed operation
        out["rc"] = -1
        out["error"] = traceback.format_exc()
    out["t_end"] = time.perf_counter()
    Path(sys.argv[2]).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
