"""Aggregation of multifractal widths into tables and plot data.

Widths are collected per (subject, electrode, rhythm, condition), turned
into deltas against the resting baseline, averaged across subjects, and
emitted as CSV, nested JSON, and per-electrode plot data. Emission is
deterministic: fixed column order, fixed 6-significant-digit floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import DataFormatError, EmptyCellError, EmptyReportError
from .protocol import BAND_TO_PART, PART_TO_BAND, parse_label

SCHEMA_VERSION = "1"

BASELINE_CONDITION = "rest"

# Stimulus columns in presentation order: the original, then parts 1..5.
STIMULUS_SLOTS = ("original",) + tuple(f"band{PART_TO_BAND[p]}" for p in sorted(PART_TO_BAND))


def baseline_delta(w_cond: float, w_rest: float) -> float:
    """Signed width change against rest; positive = complexity rise."""
    return w_cond - w_rest


class CellStats(NamedTuple):
    mean: float
    sd: float
    n: int


def cell_mean_sd(values: list[float]) -> CellStats:
    """Arithmetic mean and population standard deviation.

    Values are summed in sorted order so the result is invariant to the
    order records arrived in.
    """
    if not values:
        raise EmptyCellError("no values in cell")
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    var = sum((v - mean) ** 2 for v in ordered) / n
    return CellStats(mean=mean, sd=math.sqrt(var), n=n)


@dataclass(frozen=True)
class WidthRecord:
    """One analyzed window: who, where, which rhythm, which condition."""

    subject_id: str
    electrode: str
    rhythm: str
    condition: str  # condition label, e.g. "rest" or "clip2_band4"
    w: float
    fit_a: float = float("nan")
    fit_b: float = float("nan")
    alpha0: float = float("nan")
    h2_r2: float = float("nan")
    flags: str = ""

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject_id,
            "electrode": self.electrode,
            "rhythm": self.rhythm,
            "condition": self.condition,
            "w": self.w,
            "fit_a": _num(self.fit_a),
            "fit_b": _num(self.fit_b),
            "alpha0": _num(self.alpha0),
            "h2_r2": _num(self.h2_r2),
            "flags": self.flags,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "WidthRecord":
        return cls(
            subject_id=d["subject"],
            electrode=d["electrode"],
            rhythm=d["rhythm"],
            condition=d["condition"],
            w=float(d["w"]),
            fit_a=_nan(d.get("fit_a")),
            fit_b=_nan(d.get("fit_b")),
            alpha0=_nan(d.get("alpha0")),
            h2_r2=_nan(d.get("h2_r2")),
            flags=d.get("flags", ""),
        )


def _num(x: float):
    return None if x is None or not math.isfinite(x) else x


def _nan(x):
    return float("nan") if x is None else float(x)


def _split_condition(label: str) -> tuple[int | None, str | None]:
    """(clip number, stimulus slot) for a stimulus label, (None, None) for rest."""
    kind, clip, band = parse_label(label)
    if kind == "rest":
        return None, None
    return clip, "original" if kind == "original" else f"band{band}"


def _condition_sort_key(label: str) -> tuple:
    kind, clip, band = parse_label(label)
    if kind == "rest":
        return (0, 0, 0)
    if kind == "original":
        return (1, clip, 0)
    return (1, clip, BAND_TO_PART.get(band, 9))


def record_sort_key(rec: WidthRecord) -> tuple:
    return (rec.subject_id, rec.electrode, _condition_sort_key(rec.condition), rec.rhythm)


@dataclass
class AnalysisReport:
    """All width records for a run plus baseline bookkeeping."""

    records: list = field(default_factory=list)
    baseline_condition: str = BASELINE_CONDITION
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

    def baselines(self) -> dict:
        """Baseline width per (subject, electrode, rhythm)."""
        return {
            (r.subject_id, r.electrode, r.rhythm): r.w
            for r in self.records
            if r.condition == self.baseline_condition
        }

    def stimulus_records(self) -> list:
        recs = [r for r in self.records if r.condition != self.baseline_condition]
        return sorted(recs, key=record_sort_key)

    def deltas(self) -> dict:
        """Per-cell subject-averaged width change.

        Keyed (clip, slot, electrode, rhythm); a cell appears only when
        both the stimulus and its subject's baseline were measured.
        """
        base = self.baselines()
        per_cell: dict[tuple, list[float]] = {}
        for rec in self.stimulus_records():
            key = (rec.subject_id, rec.electrode, rec.rhythm)
            if key not in base:
                continue
            clip, slot = _split_condition(rec.condition)
            cell = (clip, slot, rec.electrode, rec.rhythm)
            per_cell.setdefault(cell, []).append(baseline_delta(rec.w, base[key]))
        return {cell: cell_mean_sd(vals) for cell, vals in per_cell.items()}


def _fmt(x: float) -> str:
    """Fixed 6-significant-digit float field; empty for missing."""
    if x is None or not math.isfinite(x):
        return ""
    return f"{x:.6g}"


CSV_HEADER = (
    "subject,electrode,rhythm,clip,condition,w,w_rest,delta_w,"
    "fit_a,fit_b,alpha0,h2_r2,flags"
)


def report_csv(report: AnalysisReport) -> str:
    """One row per stimulus record, with its subject's baseline alongside."""
    base = report.baselines()
    lines = [CSV_HEADER]
    for rec in report.stimulus_records():
        clip, slot = _split_condition(rec.condition)
        w_rest = base.get((rec.subject_id, rec.electrode, rec.rhythm))
        delta = baseline_delta(rec.w, w_rest) if w_rest is not None else None
        flags = rec.flags
        if w_rest is None:
            flags = (flags + ";" if flags else "") + "no_baseline"
        lines.append(
            ",".join(
                [
                    rec.subject_id,
                    rec.electrode,
                    rec.rhythm,
                    str(clip),
                    slot,
                    _fmt(rec.w),
                    _fmt(w_rest),
                    _fmt(delta),
                    _fmt(rec.fit_a),
                    _fmt(rec.fit_b),
                    _fmt(rec.alpha0),
                    _fmt(rec.h2_r2),
                    flags,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def report_json_dict(report: AnalysisReport) -> dict:
    """Nested clip -> slot -> electrode -> rhythm deltas plus raw records."""
    deltas: dict = {}
    for (clip, slot, electrode, rhythm), stats in sorted(report.deltas().items()):
        deltas.setdefault(str(clip), {}).setdefault(slot, {}).setdefault(electrode, {})[
            rhythm
        ] = {"mean_delta_w": stats.mean, "sd": stats.sd, "n": stats.n}
    return {
        "schema_version": SCHEMA_VERSION,
        "baseline_condition": report.baseline_condition,
        "config": report.config,
        "inputs": report.inputs,
        "records": [r.to_json_dict() for r in sorted(report.records, key=record_sort_key)],
        "deltas": deltas,
    }


def read_report_json(path: str | Path) -> AnalysisReport:
    """The report a report.json holds; a malformed file is named in the error."""
    try:
        return report_from_json_dict(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def report_from_json_dict(payload: dict) -> AnalysisReport:
    if not isinstance(payload, dict):
        raise DataFormatError("report must be a JSON object")
    report = AnalysisReport(
        baseline_condition=payload.get("baseline_condition", BASELINE_CONDITION),
        config=payload.get("config", {}),
        inputs=payload.get("inputs", {}),
    )
    entries = payload.get("records", [])
    if not isinstance(entries, list):
        raise DataFormatError("records must be a JSON list")
    for i, d in enumerate(entries):
        try:
            rec = WidthRecord.from_json_dict(d)
            if not (math.isfinite(rec.w) and rec.w >= 0):
                raise ValueError(f"width must be finite and non-negative, got {rec.w}")
            texts = (rec.subject_id, rec.electrode, rec.rhythm, rec.condition, rec.flags)
            if not all(isinstance(v, str) for v in texts):
                raise TypeError("subject, electrode, rhythm, condition and flags must be strings")
            parse_label(rec.condition)
        except KeyError as exc:
            raise DataFormatError(f"record {i}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"record {i}: {exc}") from None
        report.records.append(rec)
    return report


def plotdata_csv(report: AnalysisReport, electrode: str) -> str:
    """Grouped-bar data: mean delta-W per stimulus slot and rhythm."""
    rhythms = sorted({r.rhythm for r in report.records})
    deltas = report.deltas()
    lines = ["condition," + ",".join(rhythms)]
    for slot in STIMULUS_SLOTS:
        row = [slot]
        for rhythm in rhythms:
            vals = [
                stats.mean
                for (clip, s, elec, rhy), stats in deltas.items()
                if s == slot and elec == electrode and rhy == rhythm
            ]
            row.append(_fmt(sum(vals) / len(vals)) if vals else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_report(report: AnalysisReport, outdir: str | Path) -> list[Path]:
    """Write report.csv, report.json, and plotdata/<electrode>.csv."""
    if not report.records:
        raise EmptyReportError("nothing to emit")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = outdir / "report.csv"
    csv_path.write_text(report_csv(report))
    written.append(csv_path)
    json_path = outdir / "report.json"
    json_path.write_text(json.dumps(report_json_dict(report), indent=2, sort_keys=True) + "\n")
    written.append(json_path)
    plotdir = outdir / "plotdata"
    plotdir.mkdir(exist_ok=True)
    for electrode in sorted({r.electrode for r in report.stimulus_records()}):
        path = plotdir / f"{electrode}.csv"
        path.write_text(plotdata_csv(report, electrode))
        written.append(path)
    return written
