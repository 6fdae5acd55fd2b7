import json

import pytest

from mfsig.errors import AnalysisError
from mfsig.report import (
    AnalysisReport,
    WidthRecord,
    baseline_delta,
    cell_mean_sd,
    emit_report,
    report_from_json_dict,
)

ELECTRODES = ("F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")
RHYTHMS = ("alpha", "gamma", "theta")
SLOTS = ("original", "band1", "band2", "band3", "band4", "band5")


def record(subject, electrode, rhythm, condition, w):
    return WidthRecord(
        subject_id=subject, electrode=electrode, rhythm=rhythm,
        condition=condition, w=w, fit_a=-2.0, fit_b=0.1, alpha0=0.8, h2_r2=0.99,
    )


def emitted_csv(report, outdir):
    emit_report(report, outdir)
    return (outdir / "report.csv").read_text()


def emitted_json(report, outdir):
    emit_report(report, outdir)
    return json.loads((outdir / "report.json").read_text())


def full_report(subjects=("S01",)):
    report = AnalysisReport()
    w = 0.31
    for subject in subjects:
        for electrode in ELECTRODES:
            for rhythm in RHYTHMS:
                report.records.append(record(subject, electrode, rhythm, "rest", 0.5))
                for clip in range(1, 5):
                    for slot in SLOTS:
                        w = 0.3 + ((hash((subject, electrode, rhythm, clip, slot)) % 97) / 970)
                        condition = f"clip{clip}_{slot}"
                        report.records.append(record(subject, electrode, rhythm, condition, w))
    return report


class TestBaselineDelta:
    @pytest.mark.parametrize("cond,rest,expected", [(0.8, 0.5, 0.3), (0.5, 0.5, 0.0), (0.4, 0.7, -0.3)])
    def test_signed_difference(self, cond, rest, expected):
        assert baseline_delta(cond, rest) == pytest.approx(expected)

    def test_antisymmetry(self):
        assert baseline_delta(0.9, 0.2) == -baseline_delta(0.2, 0.9)


class TestAverageSubjects:
    """Subject averages go through cell_mean_sd, one cell at a time."""

    def test_mean_and_population_sd(self):
        stats = cell_mean_sd([0.2, 0.4])
        assert stats.mean == pytest.approx(0.3)
        assert stats.sd == pytest.approx(0.1)
        assert stats.n == 2

    def test_single_record(self):
        stats = cell_mean_sd([0.42])
        assert stats.mean == pytest.approx(0.42)
        assert stats.sd == 0.0

    def test_order_invariance(self):
        widths = [0.1 * i for i in range(1, 6)]
        assert cell_mean_sd(widths) == cell_mean_sd(widths[::-1])

    def test_empty(self):
        with pytest.raises(AnalysisError, match="no values in cell"):
            cell_mean_sd([])


class TestEmission:
    def test_cardinality_720_rows(self, tmp_path):
        report = full_report()
        paths = emit_report(report, tmp_path)
        csv_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 10 * 3 * 4 * 6  # header + 720 cells
        assert {p.name for p in paths} >= {"report.csv", "report.json"}
        assert len(list((tmp_path / "plotdata").glob("*.csv"))) == 10

    def test_empty_report(self, tmp_path):
        with pytest.raises(AnalysisError, match="nothing to emit"):
            emit_report(AnalysisReport(), tmp_path)
        assert not (tmp_path / "report.csv").exists()

    def test_byte_identical_emission(self, tmp_path):
        a = emitted_csv(full_report(), tmp_path / "a")
        b = emitted_csv(full_report(), tmp_path / "b")
        assert a == b

    def test_json_round_trip(self, tmp_path):
        report = full_report(subjects=("S01", "S02"))
        payload = emitted_json(report, tmp_path)
        rebuilt = report_from_json_dict(payload)
        original = {(r.subject_id, r.electrode, r.rhythm, r.condition): r.w for r in report.records}
        recovered = {(r.subject_id, r.electrode, r.rhythm, r.condition): r.w for r in rebuilt.records}
        assert recovered == original

    def test_missing_baseline_flagged_not_dropped(self, tmp_path):
        report = AnalysisReport()
        report.records.append(record("S01", "F3", "alpha", "clip1_band4", 0.7))
        lines = emitted_csv(report, tmp_path).strip().split("\n")
        assert len(lines) == 2
        assert "no_baseline" in lines[1]
        fields = lines[1].split(",")
        header = lines[0].split(",")
        assert fields[header.index("delta_w")] == ""

    def test_delta_of_averages_equals_average_of_deltas(self, tmp_path):
        # shared per-subject baselines make the two orders algebraically equal
        report = AnalysisReport()
        widths = {"S01": (0.5, 0.9), "S02": (0.3, 0.4)}
        for subject, (w_rest, w_cond) in widths.items():
            report.records.append(record(subject, "F3", "alpha", "rest", w_rest))
            report.records.append(record(subject, "F3", "alpha", "clip1_band4", w_cond))
        stats = emitted_json(report, tmp_path)["deltas"]["1"]["band4"]["F3"]["alpha"]
        mean_delta = sum(c - r for r, c in widths.values()) / 2
        assert stats["mean_delta_w"] == pytest.approx(mean_delta)

    def test_rest_rows_not_in_csv_but_kept_in_json(self, tmp_path):
        report = full_report()
        lines = emitted_csv(report, tmp_path).strip().split("\n")
        conditions = {line.split(",")[4] for line in lines[1:]}
        assert "rest" not in conditions
        payload = json.loads((tmp_path / "report.json").read_text())
        assert any(r["condition"] == "rest" for r in payload["records"])

    def test_six_significant_digits(self, tmp_path):
        report = AnalysisReport()
        report.records.append(record("S01", "F3", "alpha", "rest", 0.123456789))
        report.records.append(record("S01", "F3", "alpha", "clip1_band2", 0.987654321))
        line = emitted_csv(report, tmp_path).strip().split("\n")[1]
        assert "0.987654" in line and "0.123457" in line

    def test_plotdata_averages_clip_means_of_subject_deltas(self, tmp_path):
        # dyadic widths keep every sum exact; S02 has no theta baseline, so its
        # theta widths count in no cell, and no record has band4 theta
        widths = {
            ("S01", "alpha", "rest"): 0.5, ("S01", "theta", "rest"): 0.25,
            ("S02", "alpha", "rest"): 0.75,
            ("S01", "alpha", "clip1_original"): 1.0, ("S02", "alpha", "clip1_original"): 0.5,
            ("S01", "theta", "clip1_original"): 0.5, ("S02", "theta", "clip1_original"): 0.875,
            ("S01", "alpha", "clip2_original"): 0.75, ("S02", "alpha", "clip2_original"): 1.0,
            ("S01", "theta", "clip2_original"): 0.25,
            ("S01", "alpha", "clip1_band4"): 0.625,
        }
        report = AnalysisReport()
        for (subject, rhythm, condition), w in widths.items():
            report.records.append(record(subject, "F3", rhythm, condition, w))
        emit_report(report, tmp_path)
        # original alpha: clip 1 (0.5 - 0.25) / 2 = 0.125, clip 2 (0.25 + 0.25) / 2 = 0.25
        # original theta: clip 1 0.25, clip 2 0.0 (S01 only); band4 alpha: 0.125
        assert (tmp_path / "plotdata" / "F3.csv").read_text() == (
            "condition,alpha,theta\n"
            "original,0.1875,0.125\n"
            "band3,,\n"
            "band2,,\n"
            "band5,,\n"
            "band4,0.125,\n"
            "band1,,\n"
        )

    def test_record_order_does_not_change_the_bytes(self, tmp_path):
        report = full_report(subjects=("S01", "S02"))
        # S01 loses its F3 alpha baseline, S02 all of clip 1
        kept = [
            r for r in report.records
            if (r.subject_id, r.electrode, r.rhythm, r.condition) != ("S01", "F3", "alpha", "rest")
            and not (r.subject_id == "S02" and r.condition.startswith("clip1_"))
        ]
        paths = emit_report(AnalysisReport(records=kept), tmp_path / "sorted")
        emit_report(AnalysisReport(records=kept[::-1]), tmp_path / "reversed")
        assert len(paths) == 12
        for path in paths:
            twin = tmp_path / "reversed" / path.relative_to(tmp_path / "sorted")
            assert twin.read_bytes() == path.read_bytes()
