"""The benchmark's tracer still finds the functions it wraps.

``perfbench/tracer.py`` wraps each traced layer by its module attribute; a
site it cannot find is listed in ``tracer.missing`` and its metrics read 0,
and the benchmark itself still passes. This check fails instead when a live
traced function is renamed."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sites no function of the package answers to yet; their metrics read 0
DARK_SITES = {
    "mfsig.pipeline.run_mfdfa",
    "mfsig.pipeline.fit_spectrum",
    "mfsig.bands.extract_rhythm",
    "mfsig.bands.envelope",
    "mfsig.wavelet.dyadic_subband",
    "mfsig.mfdfa.q_order_mean",
}


def test_every_live_wrap_site_is_found(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    traced = tracer.Tracer()
    try:
        tracer.install(traced)
    finally:
        traced.uninstall()
    assert set(traced.missing) <= DARK_SITES
