import json

import pytest

from mfsig.errors import EmptyCellError, EmptyReportError
from mfsig.protocol import build_timeline
from mfsig.report import (
    STIMULUS_SLOTS,
    AnalysisReport,
    WidthRecord,
    baseline_delta,
    cell_mean_sd,
    emit_report,
    report_csv,
    report_from_json_dict,
    report_json_dict,
)

ELECTRODES = ("F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")
RHYTHMS = ("alpha", "gamma", "theta")
SLOTS = ("original", "band1", "band2", "band3", "band4", "band5")


def record(subject, electrode, rhythm, condition, w):
    return WidthRecord(
        subject_id=subject, electrode=electrode, rhythm=rhythm,
        condition=condition, w=w, fit_a=-2.0, fit_b=0.1, alpha0=0.8, h2_r2=0.99,
    )


def full_report(subjects=("S01",)):
    report = AnalysisReport(registry=ELECTRODES)
    w = 0.31
    for subject in subjects:
        for electrode in ELECTRODES:
            for rhythm in RHYTHMS:
                report.add(record(subject, electrode, rhythm, "rest", 0.5))
                for clip in range(1, 5):
                    for slot in SLOTS:
                        w = 0.3 + ((hash((subject, electrode, rhythm, clip, slot)) % 97) / 970)
                        report.add(record(subject, electrode, rhythm, f"clip{clip}_{slot}", w))
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
        with pytest.raises(EmptyCellError):
            cell_mean_sd([])


class TestStimulusSlots:
    def test_presentation_order(self):
        labels = [c.label for c in build_timeline(1).stimulus_conditions()]
        assert STIMULUS_SLOTS == tuple(label.partition("_")[2] for label in labels)


class TestEmission:
    def test_cardinality_720_rows(self, tmp_path):
        report = full_report()
        paths = emit_report(report, tmp_path)
        csv_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 10 * 3 * 4 * 6  # header + 720 cells
        assert {p.name for p in paths} >= {"report.csv", "report.json"}
        assert len(list((tmp_path / "plotdata").glob("*.csv"))) == 10

    def test_empty_report(self, tmp_path):
        with pytest.raises(EmptyReportError):
            emit_report(AnalysisReport(), tmp_path)
        assert not (tmp_path / "report.csv").exists()

    def test_byte_identical_emission(self):
        a = report_csv(full_report())
        b = report_csv(full_report())
        assert a == b

    def test_json_round_trip(self):
        report = full_report(subjects=("S01", "S02"))
        payload = json.loads(json.dumps(report_json_dict(report)))
        rebuilt = report_from_json_dict(payload)
        original = {(r.subject_id, r.electrode, r.rhythm, r.condition): r.w for r in report.records}
        recovered = {(r.subject_id, r.electrode, r.rhythm, r.condition): r.w for r in rebuilt.records}
        assert recovered == original

    def test_missing_baseline_flagged_not_dropped(self):
        report = AnalysisReport(registry=("F3",))
        report.add(record("S01", "F3", "alpha", "clip1_band4", 0.7))
        lines = report_csv(report).strip().split("\n")
        assert len(lines) == 2
        assert "no_baseline" in lines[1]
        fields = lines[1].split(",")
        header = lines[0].split(",")
        assert fields[header.index("delta_w")] == ""

    def test_delta_of_averages_equals_average_of_deltas(self):
        # shared per-subject baselines make the two orders algebraically equal
        report = AnalysisReport(registry=("F3",))
        widths = {"S01": (0.5, 0.9), "S02": (0.3, 0.4)}
        for subject, (w_rest, w_cond) in widths.items():
            report.add(record(subject, "F3", "alpha", "rest", w_rest))
            report.add(record(subject, "F3", "alpha", "clip1_band4", w_cond))
        stats = report.deltas()[(1, "band4", "F3", "alpha")]
        mean_delta = sum(c - r for r, c in widths.values()) / 2
        assert stats.mean == pytest.approx(mean_delta)

    def test_rest_rows_not_in_csv_but_kept_in_json(self):
        report = full_report()
        lines = report_csv(report).strip().split("\n")
        conditions = {line.split(",")[4] for line in lines[1:]}
        assert "rest" not in conditions
        payload = report_json_dict(report)
        assert any(r["condition"] == "rest" for r in payload["records"])

    def test_six_significant_digits(self):
        report = AnalysisReport(registry=("F3",))
        report.add(record("S01", "F3", "alpha", "rest", 0.123456789))
        report.add(record("S01", "F3", "alpha", "clip1_band2", 0.987654321))
        line = report_csv(report).strip().split("\n")[1]
        assert "0.987654" in line and "0.123457" in line
