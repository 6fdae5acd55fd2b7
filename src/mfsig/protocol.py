"""Experiment protocol: stimulus timeline, recording segmentation,
analyzed electrodes, and listening-test aggregation.

Each clip is presented as the original followed by five band-filtered
parts in a fixed jumbled order; the timeline places a 60 s rest at the
start, 5 s silent gaps between stimuli, and a 30 s rest after each clip.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, DataFormatError

# Part order on the response template: part 1 plays band 3, and so on.
PART_TO_BAND = {1: 3, 2: 2, 3: 5, 4: 4, 5: 1}

N_PARTS = 5
N_CLIPS_SHEET = 4

INITIAL_REST_S = 60.0
STIMULUS_S = 20.0
GAP_S = 5.0
CLIP_REST_S = 30.0

DEFAULT_ANALYZED = ("F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6", "O1", "O2")


def check_electrode_name(name: str) -> None:
    """Reject a name that cannot be a file name inside the plot-data directory."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(
            f"electrode name {name!r} must not be empty, '.' or '..', or contain '/' or '\\'"
        )


@dataclass(frozen=True)
class Condition:
    """One experimental condition: a rest period or a stimulus window."""

    kind: str  # "rest" | "original" | "band"
    start_s: float
    end_s: float
    clip: int | None = None
    band: int | None = None

    def __post_init__(self):
        if self.kind not in ("rest", "original", "band"):
            raise ValueError(f"unknown condition kind {self.kind!r}")
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
        if self.kind == "rest":
            return "rest"
        if self.kind == "original":
            return f"clip{self.clip}_original"
        return f"clip{self.clip}_band{self.band}"

    @property
    def is_stimulus(self) -> bool:
        return self.kind != "rest"


def parse_label(label: str) -> tuple[str, int | None, int | None]:
    """(kind, clip, band) of a condition label.

    Labels are "rest", "clip<N>_original" and "clip<N>_band<B>"; clip and
    band are None where the label has none. Anything else is a ValueError.
    """
    if label == "rest":
        return "rest", None, None
    clip_part, _, stim = label.partition("_")
    try:
        clip = int(clip_part.removeprefix("clip"))
        if stim == "original":
            return "original", clip, None
        if stim.startswith("band"):
            return "band", clip, int(stim.removeprefix("band"))
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
            if cond.start_s < prev_end - 1e-9:
                raise ValueError(f"conditions overlap at {cond.start_s}s")
            prev_end = cond.end_s
        if not any(cond.kind == "rest" for cond in self.conditions):
            raise ValueError("timeline has no rest condition")

    @property
    def total_duration_s(self) -> float:
        return self.conditions[-1].end_s

    def stimulus_conditions(self) -> list:
        return [c for c in self.conditions if c.is_stimulus]

    def baseline(self) -> Condition:
        """The initial long rest used as the no-music reference."""
        return next(cond for cond in self.conditions if cond.kind == "rest")


def build_timeline(n_clips: int) -> ProtocolTimeline:
    """Full session timeline for n_clips clips.

    60 s rest, then per clip: original and the five band parts (20 s
    each) separated by 5 s gaps, closed by a 30 s rest. Total duration is
    60 + 175 * n_clips seconds.
    """
    if n_clips < 1:
        raise ValueError("need at least one clip")
    t = 0.0
    conditions = [Condition("rest", 0.0, INITIAL_REST_S)]
    t = INITIAL_REST_S
    for clip in range(1, n_clips + 1):
        stimuli = [("original", None)] + [("band", PART_TO_BAND[p]) for p in range(1, 6)]
        for i, (kind, band) in enumerate(stimuli):
            if i > 0:
                conditions.append(Condition("rest", t, t + GAP_S))
                t += GAP_S
            conditions.append(Condition(kind, t, t + STIMULUS_S, clip=clip, band=band))
            t += STIMULUS_S
        conditions.append(Condition("rest", t, t + CLIP_REST_S))
        t += CLIP_REST_S
    return ProtocolTimeline(conditions=tuple(conditions))


def timeline_from_markers(markers: list[dict]) -> ProtocolTimeline:
    """Timeline from explicit marker entries, overriding the nominal one.

    Each marker is {"label": ..., "start_s": ..., "end_s": ...}; see
    parse_label for the labels. Only "rest" may label more than one marker.
    """
    conditions = []
    first_marker: dict[str, int] = {}
    for i, mk in enumerate(markers):
        try:
            label = str(mk["label"])
            start, end = float(mk["start_s"]), float(mk["end_s"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"marker {i}: {exc}") from exc
        try:
            kind, clip, band = parse_label(label)
            cond = Condition(kind, start, end, clip=clip, band=band)
        except ValueError as exc:
            raise DataFormatError(f"marker {i}: {exc}") from exc
        j = first_marker.setdefault(cond.label, i)
        if cond.is_stimulus and j != i:
            raise DataFormatError(f"markers {j} and {i} both label {cond.label!r}")
        conditions.append(cond)
    conditions.sort(key=lambda c: c.start_s)
    return ProtocolTimeline(conditions=tuple(conditions))


def segment_recording(
    samples: np.ndarray, fs: float, conditions: Iterable[Condition]
) -> list[tuple[Condition, np.ndarray]]:
    """Cut a recording sampled at fs Hz into one (condition, window) pair per
    condition, each window a view of the samples.

    Windows are [round(start * fs), round(end * fs)); the recording must
    cover every condition given, and each window must hold a sample. Pass
    ``timeline.conditions`` to cut the whole timeline.
    """
    out = []
    for cond in conditions:
        lo = int(round(cond.start_s * fs))
        hi = int(round(cond.end_s * fs))
        if hi > len(samples):
            raise AnalysisError(
                f"recording ends before condition {cond.label!r} "
                f"({cond.start_s:g}-{cond.end_s:g} s needs {hi} samples, have {len(samples)})"
            )
        if hi == lo:
            raise AnalysisError(
                f"condition {cond.label!r} ({cond.start_s:g}-{cond.end_s:g} s) "
                f"covers no sample at {fs:g} Hz"
            )
        out.append((cond, samples[lo:hi]))
    return out


@dataclass(frozen=True)
class ResponseSheet:
    """One listener's non-recognition marks, 4 clips x 5 parts."""

    subject_id: str
    marks: np.ndarray  # bool, shape (4, 5); True = could not recognize

    def __post_init__(self):
        arr = np.asarray(self.marks, dtype=bool)
        if arr.shape != (N_CLIPS_SHEET, N_PARTS):
            raise ValueError(f"response sheet must be 4x5, got {arr.shape}")
        object.__setattr__(self, "marks", arr)


@dataclass(frozen=True)
class RecognitionTable:
    """Non-recognition percentages per (clip, band), integers 0..100."""

    percentages: np.ndarray  # int, shape (4, 5); column j is band j+1
    n_sheets: int

    def value(self, clip: int, band: int) -> int:
        return int(self.percentages[clip - 1, band - 1])

    def to_csv(self) -> str:
        lines = ["clip," + ",".join(f"band{b}" for b in range(1, 6))]
        for clip in range(1, N_CLIPS_SHEET + 1):
            row = ",".join(str(self.value(clip, b)) for b in range(1, 6))
            lines.append(f"{clip},{row}")
        return "\n".join(lines) + "\n"


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(int)


def aggregate_responses(sheets: list) -> RecognitionTable:
    """Percentage of sheets marking each (clip, band), via the part map."""
    if not sheets:
        raise AnalysisError("no response sheets to aggregate")
    counts = np.zeros((N_CLIPS_SHEET, N_PARTS), dtype=int)
    for sheet in sheets:
        counts += sheet.marks
    by_band = np.zeros_like(counts)
    for part, band in PART_TO_BAND.items():
        by_band[:, band - 1] = counts[:, part - 1]
    pct = _round_half_up(100.0 * by_band / len(sheets))
    return RecognitionTable(percentages=pct, n_sheets=len(sheets))
