"""Aggregation of multifractal widths into tables and plot data.

Widths are collected per (subject, electrode, rhythm, condition), turned
into deltas against the subject's ``rest`` width, averaged across subjects,
and emitted as CSV, nested JSON, and per-electrode plot data. Emission sorts
the records once and formats all three from the same derived tables, so it
is deterministic for any record order: fixed column order, fixed
6-significant-digit floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

from .dataio import read_json
from .errors import AnalysisError, DataFormatError
from .protocol import STIMULUS_SLOTS, check_electrode_name, json_number, parse_label

SCHEMA_VERSION = "1"

BASELINE_CONDITION = "rest"


def check_csv_field(key: str, text: str) -> None:
    """Reject text that would split or quote its report.csv field."""
    for char in (",", '"', "\r", "\n"):
        if char in text:
            raise ValueError(f"{key} {text!r} must not contain {char!r}")


def check_subject_id(subject: str) -> None:
    """Reject a subject ID that cannot be a report.csv field: an empty one,
    or one holding a comma, a double quote, a CR or a LF."""
    if not subject:
        raise ValueError("subject must not be empty")
    check_csv_field("subject", subject)


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
        raise AnalysisError("no values in cell")
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    var = sum((v - mean) ** 2 for v in ordered) / n
    return CellStats(mean=mean, sd=math.sqrt(var), n=n)


@dataclass(frozen=True)
class WidthRecord:
    """One analyzed window: who, where, which rhythm, which condition; the one
    declaration of the fields that report.json, report.csv and the reader follow,
    in order. In report.json a field with a default may be absent."""

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
        d = {}
        for name, key, number, default in _FIELDS:
            value = getattr(self, name)
            null = number and default is not MISSING and not math.isfinite(value)
            d[key] = None if null else value
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "WidthRecord":
        values = {}
        for name, key, number, default in _FIELDS:
            value = d[key] if default is MISSING else d.get(key, default)
            if number:
                null = value is None and default is not MISSING
                value = default if null else json_number(value, key)
            elif not isinstance(value, str):
                raise TypeError(f"{key} must be a JSON string, got {json.dumps(value)}")
            values[name] = value
        return cls(**values)


# (field, report.json key, whether a number, default) per field, in order; the
# type is the annotation's text, and report.json calls subject_id "subject"
_FIELDS = tuple(
    (f.name, "subject" if f.name == "subject_id" else f.name, f.type == "float", f.default)
    for f in fields(WidthRecord)
)


def record_sort_key(rec: WidthRecord) -> tuple:
    """Subject, electrode, rest first, then clip and presentation slot, then
    rhythm; a band outside the protocol sorts after its clip's known slots."""
    clip, slot = parse_label(rec.condition)
    order = STIMULUS_SLOTS.index(slot) if slot in STIMULUS_SLOTS else len(STIMULUS_SLOTS)
    return (rec.subject_id, rec.electrode, clip is not None, clip or 0, order, rec.rhythm)


@dataclass
class AnalysisReport:
    """All width records of a run, with its configuration and input hashes."""

    records: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


def _tables(report: AnalysisReport) -> tuple[list, list, dict]:
    """The tables every emitted file is formatted from.

    These are the records in ``record_sort_key`` order; a (record, clip, slot,
    rest width, delta) row per stimulus record, in the same order, with None
    for a baseline not measured; and the ``CellStats`` per (clip, slot,
    electrode, rhythm) cell of the measured deltas, in first-seen order.
    """
    records = sorted(report.records, key=record_sort_key)
    rest = [r for r in records if r.condition == BASELINE_CONDITION]
    base = {(r.subject_id, r.electrode, r.rhythm): r.w for r in rest}
    rows = []
    per_cell: dict[tuple, list[float]] = {}
    for rec in records:
        clip, slot = parse_label(rec.condition)
        if clip is None:
            continue
        w_rest = base.get((rec.subject_id, rec.electrode, rec.rhythm))
        delta = None if w_rest is None else baseline_delta(rec.w, w_rest)
        rows.append((rec, clip, slot, w_rest, delta))
        if delta is not None:
            per_cell.setdefault((clip, slot, rec.electrode, rec.rhythm), []).append(delta)
    return records, rows, {cell: cell_mean_sd(vals) for cell, vals in per_cell.items()}


def _fmt(x: float) -> str:
    """Fixed 6-significant-digit float field; empty for missing."""
    if x is None or not math.isfinite(x):
        return ""
    return f"{x:.6g}"


# report.csv splits a record's condition label into its clip and slot, and
# follows its width with the subject's rest width and the delta against it
_CSV_DERIVED = {"condition": ("clip", "condition"), "w": ("w", "w_rest", "delta_w")}
_CSV_COLUMNS = [c for _, key, _, _ in _FIELDS for c in _CSV_DERIVED.get(key, (key,))]
CSV_HEADER = ",".join(_CSV_COLUMNS)


def _report_csv(rows: list) -> str:
    """One row per stimulus record, with its subject's baseline alongside."""
    lines = [CSV_HEADER]
    for rec, clip, slot, w_rest, delta in rows:
        cells = rec.to_json_dict()
        cells.update(clip=str(clip), condition=slot, w_rest=w_rest, delta_w=delta)
        if w_rest is None:
            cells["flags"] = (rec.flags + ";" if rec.flags else "") + "no_baseline"
        values = (cells[c] for c in _CSV_COLUMNS)
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in values))
    return "\n".join(lines) + "\n"


def _report_json(report: AnalysisReport, records: list, cells: dict) -> str:
    """Nested clip -> slot -> electrode -> rhythm deltas plus raw records."""
    deltas: dict = {}
    for (clip, slot, electrode, rhythm), stats in cells.items():
        deltas.setdefault(str(clip), {}).setdefault(slot, {}).setdefault(electrode, {})[
            rhythm
        ] = {"mean_delta_w": stats.mean, "sd": stats.sd, "n": stats.n}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "baseline_condition": BASELINE_CONDITION,
        "config": report.config,
        "inputs": report.inputs,
        "records": [r.to_json_dict() for r in records],
        "deltas": deltas,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_report_json(path: str | Path) -> AnalysisReport:
    """The report a report.json holds; a malformed file is named in the error."""
    return read_json(path, report_from_json_dict)


def report_from_json_dict(payload: dict) -> AnalysisReport:
    if not isinstance(payload, dict):
        raise DataFormatError("report must be a JSON object")
    written = {"schema_version": SCHEMA_VERSION, "baseline_condition": BASELINE_CONDITION}
    for key, known in written.items():
        value = payload.get(key, known)  # an absent key reads as the value this version writes
        if value != known:
            raise DataFormatError(f"{key} must be {known!r}, got {value!r}")
    report = AnalysisReport(config=payload.get("config", {}), inputs=payload.get("inputs", {}))
    for key in ("config", "inputs"):
        if not isinstance(getattr(report, key), dict):
            raise DataFormatError(f"{key} must be a JSON object")
    entries = payload.get("records", [])
    if not isinstance(entries, list):
        raise DataFormatError("records must be a JSON list")
    if not entries:
        raise DataFormatError("no records")
    first: dict[tuple, int] = {}  # (subject, electrode, rhythm, (clip, slot)) -> its record
    for i, d in enumerate(entries):
        try:
            rec = WidthRecord.from_json_dict(d)
            if not (math.isfinite(rec.w) and rec.w >= 0):
                raise ValueError(f"width must be finite and non-negative, got {rec.w}")
            check_subject_id(rec.subject_id)
            check_electrode_name(rec.electrode)
            check_csv_field("rhythm", rec.rhythm)
            check_csv_field("flags", rec.flags)
            key = (rec.subject_id, rec.electrode, rec.rhythm, parse_label(rec.condition))
        except KeyError as exc:
            raise DataFormatError(f"record {i}: missing key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"record {i}: {exc}") from None
        if first.setdefault(key, i) != i:
            raise DataFormatError(
                f"records {first[key]} and {i} both give subject {rec.subject_id!r} electrode "
                f"{rec.electrode!r} rhythm {rec.rhythm!r} condition {rec.condition!r}"
            )
        report.records.append(rec)
    return report


def _plotdata_csvs(records: list, rows: list, cells: dict) -> dict[str, str]:
    """Grouped-bar data per electrode: mean delta-W per stimulus slot and rhythm.

    A slot averages the cell means of its clips in the order the cells were
    first seen."""
    rhythms = sorted({r.rhythm for r in records})
    means: dict[tuple, list[float]] = {}
    for (clip, slot, electrode, rhythm), stats in cells.items():
        means.setdefault((electrode, slot, rhythm), []).append(stats.mean)
    texts = {}
    for electrode in sorted({rec.electrode for rec, *_ in rows}):
        lines = ["condition," + ",".join(rhythms)]
        for slot in STIMULUS_SLOTS:
            vals = [means.get((electrode, slot, rhythm)) for rhythm in rhythms]
            lines.append(",".join([slot] + [_fmt(sum(v) / len(v)) if v else "" for v in vals]))
        texts[electrode] = "\n".join(lines) + "\n"
    return texts


def emit_report(report: AnalysisReport, outdir: str | Path) -> list[Path]:
    """Write report.csv, report.json, and plotdata/<electrode>.csv."""
    if not report.records:
        raise AnalysisError("nothing to emit")
    records, rows, cells = _tables(report)
    outdir = Path(outdir)
    plotdir = outdir / "plotdata"
    texts = {
        outdir / "report.csv": _report_csv(rows),
        outdir / "report.json": _report_json(report, records, cells),
    }
    plots = _plotdata_csvs(records, rows, cells)
    texts.update((plotdir / f"{electrode}.csv", text) for electrode, text in plots.items())
    plotdir.mkdir(parents=True, exist_ok=True)
    for path, text in texts.items():
        path.write_text(text)
    return list(texts)
