import numpy as np
import pytest

from mfsig.errors import AnalysisError, DataFormatError
from mfsig.protocol import (
    PART_TO_BAND,
    ResponseSheet,
    aggregate_responses,
    build_timeline,
    parse_label,
    segment_recording,
    timeline_from_markers,
)
from mfsig.synth import white_noise


class TestTimeline:
    def test_one_clip_duration(self):
        assert build_timeline(1).total_duration_s == 235.0  # 60 + 6*20 + 5*5 + 30

    def test_four_clips_duration(self):
        timeline = build_timeline(4)
        assert timeline.total_duration_s == 760.0  # about 12.7 minutes

    def test_opens_with_long_rest(self):
        first = build_timeline(2).conditions[0]
        assert first.kind == "rest"
        assert first.duration_s == 60.0

    def test_stimulus_order_within_clip(self):
        timeline = build_timeline(1)
        labels = [c.label for c in timeline.stimulus_conditions()]
        assert labels == [
            "clip1_original",
            "clip1_band3",
            "clip1_band2",
            "clip1_band5",
            "clip1_band4",
            "clip1_band1",
        ]

    def test_contiguous_no_overlap(self):
        timeline = build_timeline(3)
        t = 0.0
        for cond in timeline.conditions:
            assert cond.start_s == pytest.approx(t)
            t = cond.end_s
        assert t == pytest.approx(60.0 + 3 * 175.0)

    def test_gaps_are_five_seconds_and_clip_rest_thirty(self):
        timeline = build_timeline(1)
        rests = [c for c in timeline.conditions if c.kind == "rest"]
        assert [r.duration_s for r in rests] == [60.0] + [5.0] * 5 + [30.0]

    def test_markers_round_trip(self):
        timeline = build_timeline(2)
        markers = [
            {"label": c.label, "start_s": c.start_s, "end_s": c.end_s}
            for c in timeline.conditions
        ]
        rebuilt = timeline_from_markers(markers)
        assert [c.label for c in rebuilt.conditions] == [c.label for c in timeline.conditions]

    def test_baseline_is_initial_rest(self):
        assert build_timeline(4).baseline().duration_s == 60.0


class TestSegmentRecording:
    def test_window_lengths_at_256hz(self):
        fs = 256.0
        timeline = build_timeline(1)
        eeg = white_noise(int(timeline.total_duration_s * fs), seed=1)
        segments = segment_recording(eeg, fs, timeline.conditions)
        by_label = {}
        for cond, window in segments:
            by_label.setdefault(cond.label, []).append(len(window))
        assert by_label["clip1_original"] == [5120]  # 20 s at 256 Hz
        assert by_label["rest"][0] == 15360  # 60 s
        assert set(by_label["rest"][1:-1]) == {1280}  # 5 s gaps

    def test_short_recording_names_condition(self):
        fs = 256.0
        timeline = build_timeline(1)
        eeg = white_noise(int((timeline.total_duration_s - 1) * fs), seed=2)
        with pytest.raises(AnalysisError, match="recording ends before condition 'rest'"):
            segment_recording(eeg, fs, timeline.conditions)


class TestPartToBand:
    @pytest.mark.parametrize("part,band", [(1, 3), (2, 2), (3, 5), (4, 4), (5, 1)])
    def test_fixed_map(self, part, band):
        assert PART_TO_BAND[part] == band

    def test_bijection(self):
        assert sorted(PART_TO_BAND.values()) == [1, 2, 3, 4, 5]


class TestParseLabel:
    def test_inverse_of_condition_label(self):
        for cond in build_timeline(4).conditions:
            assert parse_label(cond.label) == (cond.kind, cond.clip, cond.band)

    @pytest.mark.parametrize(
        "bad", ["baseline", "clip1", "clip1_band", "clipX_original", "clip1_tone"]
    )
    def test_bad_label(self, bad):
        with pytest.raises(ValueError, match="bad label"):
            parse_label(bad)

    @pytest.mark.parametrize("label", ["clip1_tone", 5])
    def test_marker_with_bad_label_names_marker(self, label):
        markers = [{"label": "rest", "start_s": 0, "end_s": 60},
                   {"label": label, "start_s": 60, "end_s": 80}]
        with pytest.raises(DataFormatError, match=f"marker 1: bad label '{label}'"):
            timeline_from_markers(markers)


def sheet(subject, marked_cells):
    marks = np.zeros((4, 5), dtype=bool)
    for clip, part in marked_cells:
        marks[clip - 1, part - 1] = True
    return ResponseSheet(subject_id=subject, marks=marks)


class TestAggregateResponses:
    def test_spec_example_78_percent(self):
        sheets = [
            sheet(f"s{i}", [(1, 4)] if i < 39 else []) for i in range(50)
        ]
        table = aggregate_responses(sheets)
        assert table.value(clip=1, band=4) == 78
        assert table.n_sheets == 50

    def test_unmarked_parts_give_zero_for_low_bands(self):
        sheets = [sheet(f"s{i}", [(1, 3), (2, 4)]) for i in range(10)]
        table = aggregate_responses(sheets)
        for clip in range(1, 5):
            assert table.value(clip, 1) == 0  # band1 = part5, unmarked
            assert table.value(clip, 2) == 0  # band2 = part2, unmarked

    def test_single_sheet_all_marked(self):
        table = aggregate_responses([sheet("s", [(c, p) for c in range(1, 5) for p in range(1, 6)])])
        assert np.all(table.percentages == 100)

    def test_order_invariance(self):
        sheets = [sheet(f"s{i}", [(1, 1)] if i % 3 else [(2, 2)]) for i in range(9)]
        fwd = aggregate_responses(sheets).percentages
        rev = aggregate_responses(sheets[::-1]).percentages
        np.testing.assert_array_equal(fwd, rev)

    def test_duplication_invariance(self):
        sheets = [sheet(f"s{i}", [(1, 4)] if i < 3 else []) for i in range(10)]
        once = aggregate_responses(sheets).percentages
        twice = aggregate_responses(sheets + sheets).percentages
        np.testing.assert_array_equal(once, twice)

    def test_no_sheets(self):
        with pytest.raises(AnalysisError, match="no response sheets to aggregate"):
            aggregate_responses([])
