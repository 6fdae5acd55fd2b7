import numpy as np
import pytest

from mfsig.errors import AnalysisError, DataFormatError
from mfsig.protocol import (
    PART_TO_BAND,
    STIMULUS_SLOTS,
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

    @pytest.mark.parametrize("recording_s,clips", [(204.9, 1), (205.0, 2), (400.0, 3)])
    def test_stops_after_the_first_clip_past_the_recording(self, recording_s, clips):
        # clip c's last stimulus ends at 205 + 175 (c - 1) s
        timeline = build_timeline(10**9, recording_s=recording_s)
        assert timeline.conditions == build_timeline(clips).conditions

    def test_recording_holding_every_clip_gets_them_all(self):
        assert build_timeline(4, recording_s=730.0).conditions == build_timeline(4).conditions

    def test_opens_with_long_rest(self):
        first = build_timeline(2).conditions[0]
        assert first.label == "rest"
        assert first.clip is None
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
        rests = [c for c in timeline.conditions if c.clip is None]
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


class TestStimulusSlots:
    def test_presentation_order(self):
        labels = [c.label for c in build_timeline(1).stimulus_conditions()]
        assert STIMULUS_SLOTS == tuple(label.partition("_")[2] for label in labels)


class TestParseLabel:
    def test_inverse_of_condition_label(self):
        for cond in build_timeline(4).conditions:
            assert parse_label(cond.label) == (cond.clip, cond.slot)

    @pytest.mark.parametrize(
        "label,parsed",
        [
            ("rest", (None, None)),
            ("clip1_original", (1, "original")),
            ("clip01_band03", (1, "band3")),
            ("clip2_band7", (2, "band7")),
        ],
        ids=["rest", "original", "zero_padded", "band_outside_protocol"],
    )
    def test_numbers_are_normalised(self, label, parsed):
        assert parse_label(label) == parsed

    def test_markers_normalise_labels(self):
        markers = [{"label": "rest", "start_s": 0, "end_s": 60},
                   {"label": "clip01_band03", "start_s": 60, "end_s": 80},
                   {"label": "clip1_original", "start_s": 85, "end_s": 105}]
        timeline = timeline_from_markers(markers)
        assert [c.label for c in timeline.conditions] == ["rest", "clip1_band3", "clip1_original"]
        assert [(c.clip, c.slot) for c in timeline.stimulus_conditions()] == [
            (1, "band3"), (1, "original"),
        ]

    def test_markers_normalising_to_one_label_are_rejected(self):
        markers = [{"label": "rest", "start_s": 0, "end_s": 60},
                   {"label": "clip1_band3", "start_s": 60, "end_s": 80},
                   {"label": "clip01_band03", "start_s": 85, "end_s": 105}]
        with pytest.raises(DataFormatError, match="markers 1 and 2 both label 'clip1_band3'"):
            timeline_from_markers(markers)

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


def sheet(marked_cells):
    marks = np.zeros((4, 5), dtype=bool)
    for clip, part in marked_cells:
        marks[clip - 1, part - 1] = True
    return marks


class TestAggregateResponses:
    def test_spec_example_78_percent(self):
        marks = np.stack([sheet([(1, 4)] if i < 39 else []) for i in range(50)])
        table = aggregate_responses(marks)
        assert table[0, 3] == 78  # clip 1, band 4
        assert table.shape == (4, 5)

    def test_unmarked_parts_give_zero_for_low_bands(self):
        table = aggregate_responses(np.stack([sheet([(1, 3), (2, 4)]) for _ in range(10)]))
        for clip in range(1, 5):
            assert table[clip - 1, 0] == 0  # band1 = part5, unmarked
            assert table[clip - 1, 1] == 0  # band2 = part2, unmarked

    def test_single_sheet_all_marked(self):
        every_cell = [(c, p) for c in range(1, 5) for p in range(1, 6)]
        table = aggregate_responses(np.stack([sheet(every_cell)]))
        assert np.all(table == 100)

    def test_order_invariance(self):
        marks = np.stack([sheet([(1, 1)] if i % 3 else [(2, 2)]) for i in range(9)])
        fwd = aggregate_responses(marks)
        rev = aggregate_responses(marks[::-1])
        np.testing.assert_array_equal(fwd, rev)

    def test_duplication_invariance(self):
        marks = np.stack([sheet([(1, 4)] if i < 3 else []) for i in range(10)])
        once = aggregate_responses(marks)
        twice = aggregate_responses(np.concatenate([marks, marks]))
        np.testing.assert_array_equal(once, twice)

    def test_no_sheets(self):
        with pytest.raises(AnalysisError, match="no response sheets to aggregate"):
            aggregate_responses(np.zeros((0, 4, 5), dtype=bool))
