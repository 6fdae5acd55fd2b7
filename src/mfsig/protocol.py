"""Experiment protocol: stimulus names, timeline, recording segmentation,
analyzed electrodes, and listening-test aggregation.

Each clip is presented as the original followed by five band-filtered
parts in a fixed jumbled order; the timeline places a 60 s rest at the
start, 5 s silent gaps between stimuli, and a 30 s rest after each clip.
A condition is a rest or a (clip, slot) stimulus. The slots, "original"
and "band1".."band5", are named here and nowhere else: ``STIMULUS_SLOTS``
lists them in presentation order, and ``Condition.label`` and
``parse_label`` are the one mapping between (clip, slot) and a label.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, DataFormatError

# Part order on the response template: part 1 plays band 3, and so on.
PART_TO_BAND = {1: 3, 2: 2, 3: 5, 4: 4, 5: 1}

# Stimulus slots in presentation order: the original, then parts 1..5.
STIMULUS_SLOTS = ("original",) + tuple(f"band{PART_TO_BAND[p]}" for p in sorted(PART_TO_BAND))

N_PARTS = len(PART_TO_BAND)
N_CLIPS_SHEET = 4

INITIAL_REST_S = 60.0
STIMULUS_S = 20.0
GAP_S = 5.0
CLIP_REST_S = 30.0

DEFAULT_ANALYZED = ("F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")


def check_electrode_name(name: str) -> None:
    """Reject a name that cannot be a file name inside the plot-data directory
    or a report.csv field."""
    if name in ("", ".", "..") or any(char in name for char in '/\\,"\r\n'):
        raise ValueError(
            f"electrode name {name!r} must not be empty, '.' or '..', "
            "or contain '/', '\\', ',', '\"', CR or LF"
        )


def json_number(value, key: str) -> float:
    """float(value) of a JSON number; float() alone also takes true, false and numeric strings."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a JSON number, got {json.dumps(value)}")
    return float(value)


@dataclass(frozen=True)
class Condition:
    """One experimental condition: a rest period (no clip) or the stimulus
    window of a clip's slot."""

    start_s: float
    end_s: float
    clip: int | None = None
    slot: str | None = None

    def __post_init__(self):
        if not np.isfinite([self.start_s, self.end_s]).all():
            times = f"{self.start_s:g}-{self.end_s:g} s"
            raise ValueError(f"condition times must be finite, got {times}")
        if self.end_s <= self.start_s:
            raise ValueError("condition must have positive duration")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def label(self) -> str:
        """Inverse of parse_label."""
        if self.clip is None:
            return "rest"
        return f"clip{self.clip}_{self.slot}"


def parse_label(label: str) -> tuple[int | None, str | None]:
    """(clip, slot) of a condition label; (None, None) for "rest".

    Labels are "rest", "clip<N>_original" and "clip<N>_band<B>"; the
    numbers are read as integers, so "clip01_band03" is (1, "band3").
    Anything else is a ValueError.
    """
    if label == "rest":
        return None, None
    clip_part, _, stim = label.partition("_")
    try:
        clip = int(clip_part.removeprefix("clip"))
        if stim == "original":
            return clip, stim
        if stim.startswith("band"):
            return clip, f"band{int(stim.removeprefix('band'))}"
    except ValueError:
        pass
    raise ValueError(f"bad label {label!r}")


@dataclass(frozen=True)
class ProtocolTimeline:
    """Ordered, non-overlapping conditions covering one recording, at least
    one of them a rest."""

    conditions: tuple

    def __post_init__(self):
        prev_end = 0.0
        for cond in self.conditions:
            if cond.start_s < -1e-9:
                raise ValueError(
                    f"condition {cond.label!r} starts at {cond.start_s:g} s, before the recording"
                )
            if cond.start_s < prev_end - 1e-9:
                raise ValueError(f"conditions overlap at {cond.start_s}s")
            prev_end = cond.end_s
        if not any(cond.clip is None for cond in self.conditions):
            raise ValueError("timeline has no rest condition")

    @property
    def total_duration_s(self) -> float:
        return self.conditions[-1].end_s

    def stimulus_conditions(self) -> list:
        return [c for c in self.conditions if c.clip is not None]

    def baseline(self) -> Condition:
        """The initial long rest used as the no-music reference."""
        return next(cond for cond in self.conditions if cond.clip is None)

    def analyzed(self) -> list:
        """The conditions whose windows are analysed: the baseline, then the stimuli."""
        return [self.baseline(), *self.stimulus_conditions()]


def build_timeline(n_clips: int, recording_s: float = math.inf) -> ProtocolTimeline:
    """Full session timeline for n_clips clips.

    60 s rest, then per clip: original and the five band parts (20 s
    each) separated by 5 s gaps, closed by a 30 s rest. Total duration is
    60 + 175 * n_clips seconds. Clips after the first one whose stimuli
    end past ``recording_s`` are left out: a recording of that length
    cannot hold them, and already fails to cover that first one.
    """
    if n_clips < 1:
        raise ValueError("need at least one clip")
    conditions = [Condition(0.0, INITIAL_REST_S)]
    t = INITIAL_REST_S
    for clip in range(1, n_clips + 1):
        for i, slot in enumerate(STIMULUS_SLOTS):
            if i > 0:
                conditions.append(Condition(t, t + GAP_S))
                t += GAP_S
            conditions.append(Condition(t, t + STIMULUS_S, clip, slot))
            t += STIMULUS_S
        conditions.append(Condition(t, t + CLIP_REST_S))
        if t > recording_s:  # this clip's last stimulus ends past the recording
            break
        t += CLIP_REST_S
    return ProtocolTimeline(conditions=tuple(conditions))


def timeline_from_markers(markers: list[dict]) -> ProtocolTimeline:
    """Timeline from explicit marker entries, overriding the nominal one.

    Each marker is {"label": ..., "start_s": ..., "end_s": ...}, the times JSON
    numbers; see parse_label for the labels. Only "rest" may label more than one marker.
    """
    if not isinstance(markers, list):
        raise DataFormatError("marker file must be a JSON list")
    conditions = []
    first_marker: dict[str, int] = {}
    for i, mk in enumerate(markers):
        try:
            label = str(mk["label"])
            start, end = json_number(mk["start_s"], "start_s"), json_number(mk["end_s"], "end_s")
            cond = Condition(start, end, *parse_label(label))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"marker {i}: {exc}") from exc
        j = first_marker.setdefault(cond.label, i)
        if cond.clip is not None and j != i:
            raise DataFormatError(f"markers {j} and {i} both label {cond.label!r}")
        conditions.append(cond)
    conditions.sort(key=lambda c: c.start_s)
    return ProtocolTimeline(conditions=tuple(conditions))


def window_span(cond: Condition, fs: float) -> tuple[int, int]:
    """The samples [lo, hi) of a recording sampled at fs Hz that cond's window
    holds: ``lo = round(start * fs)`` and ``hi = round(end * fs)``; an end
    whose index passes the float range, or a window that holds no sample, is
    an AnalysisError."""
    if not math.isfinite(cond.end_s * fs):
        raise AnalysisError(
            f"condition {cond.label!r} ({cond.start_s:g}-{cond.end_s:g} s) ends past the "
            f"largest sample index at {fs:g} Hz"
        )
    lo, hi = int(round(cond.start_s * fs)), int(round(cond.end_s * fs))
    if hi == lo:
        raise AnalysisError(
            f"condition {cond.label!r} ({cond.start_s:g}-{cond.end_s:g} s) "
            f"covers no sample at {fs:g} Hz"
        )
    return lo, hi


def segment_recording(
    samples: np.ndarray, fs: float, conditions: Iterable[Condition], start: int = 0
) -> list[tuple[Condition, np.ndarray]]:
    """Cut a recording sampled at fs Hz into one (condition, window) pair per
    condition, each window a view of the samples.

    ``samples`` holds the recording from its sample ``start`` on, along its
    first axis; a window is its ``window_span``, so none may begin before
    ``start``. The recording must cover every condition given; the first
    condition, in the order given, that it does not cover is an
    AnalysisError. Pass ``timeline.conditions`` to cut the whole timeline.
    """
    out = []
    for cond in conditions:
        lo, hi = window_span(cond, fs)
        if hi > start + len(samples):
            raise AnalysisError(
                f"recording ends before condition {cond.label!r} ({cond.start_s:g}-"
                f"{cond.end_s:g} s needs {hi} samples, have {start + len(samples)})"
            )
        out.append((cond, samples[lo - start : hi - start]))
    return out


def aggregate_responses(marks: np.ndarray) -> np.ndarray:
    """Percentage of sheets marking each (clip, band), integers 0..100.

    ``marks`` is the (sheets, 4 clips, 5 parts) array of non-recognition
    marks; the result is (4 clips, 5 bands), column j band j+1 via the
    part map, each percentage rounded half up.
    """
    if len(marks) == 0:
        raise AnalysisError("no response sheets to aggregate")
    counts = marks.sum(axis=0)
    by_band = np.zeros_like(counts)
    for part, band in PART_TO_BAND.items():
        by_band[:, band - 1] = counts[:, part - 1]
    return np.floor(100.0 * by_band / len(marks) + 0.5).astype(int)
