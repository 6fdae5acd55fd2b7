"""File formats: series and multi-channel EEG CSV (one numeric reader),
WAV audio, response sheets, marker files, and input hashing for provenance."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import wave
from pathlib import Path

import numpy as np

from .errors import AnalysisError, DataFormatError
from .protocol import N_CLIPS_SHEET, N_PARTS, ProtocolTimeline, ResponseSheet
from .protocol import check_electrode_name, timeline_from_markers


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cell_problem(cell: str) -> str | None:
    """What is wrong with a cell that ``np.loadtxt`` rejects or reads as non-finite."""
    try:
        value = float(cell)
    except ValueError:
        return "is not a number"
    if "_" in cell or not cell.strip().isascii():  # float() also takes 1_000 and non-ASCII digits
        return "is not a number"
    return None if math.isfinite(value) else "is not a finite number"


def _read_numeric_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header names and the ``(rows, columns)`` array of a CSV of numbers.

    One ``np.loadtxt`` call parses the non-empty lines; only after a failure
    are they scanned to name the first bad line, and its column if several."""
    # splitlines() would also break at form feeds, which csv and editors do not
    header, *lines = Path(path).read_text().split("\n")
    names = [name.strip() for name in header.split(",")]
    rows = [line for line in lines if line]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a bad cell or a ragged row
        data = None
    if data is None or data.shape[1] != len(names) or not np.isfinite(data).all():
        for n, line in enumerate(lines, start=2):
            cells = line.split(",") if line else []
            if cells and len(cells) != len(names):
                got = len(cells)
                raise DataFormatError(f"{path}: line {n}: expected {len(names)} fields, got {got}")
            for name, cell in zip(names, cells):
                if problem := _cell_problem(cell):
                    where = f"column {name}: " if len(names) > 1 else ""
                    raise DataFormatError(f"{path}: line {n}: {where}{cell!r} {problem}")
        raise DataFormatError(f"{path}: not a CSV of numbers")
    return names, data


def read_series_csv(path: str | Path) -> np.ndarray:
    """The samples of a single-column CSV with a one-line header."""
    names, data = _read_numeric_csv(path)
    if len(names) != 1:
        raise DataFormatError(f"{path}: line 1: expected 1 column, got {len(names)}")
    return data[:, 0]


def write_series_csv(path: str | Path, samples: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("value\n")
        for v in samples:
            fh.write(repr(float(v)) + "\n")  # shortest exact round-trip form


def read_eeg_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Multi-channel recording: header ``sample,F3,F4,...`` then one row
    per sample. Returns channel name -> samples."""
    names, data = _read_numeric_csv(path)
    if names[0].lower() != "sample" or len(names) < 2:
        raise DataFormatError(f"{path}: line 1: expected header 'sample,<channel>,...'")
    channels = names[1:]
    for column, name in enumerate(channels, start=2):
        try:
            check_electrode_name(name)
        except ValueError as exc:
            raise DataFormatError(f"{path}: line 1: column {column}: {exc}") from None
    repeated = next((c for i, c in enumerate(channels) if c in channels[:i]), None)
    if repeated is not None:
        raise DataFormatError(f"{path}: line 1: column {repeated!r} appears more than once")
    return {name: data[:, i] for i, name in enumerate(channels, start=1)}


def write_eeg_csv(path: str | Path, channels: dict[str, np.ndarray]) -> None:
    names = list(channels)
    n = len(next(iter(channels.values())))
    with open(path, "w", newline="") as fh:
        fh.write("sample," + ",".join(names) + "\n")
        for i in range(n):
            fh.write(str(i) + "," + ",".join(f"{channels[c][i]:.9g}" for c in names) + "\n")


def read_fs_sidecar(path: str | Path) -> float | None:
    """Sampling rate from ``<stem>.json`` next to the data file, if present.

    The sidecar is a JSON object whose ``fs_hz`` is a finite positive number.
    """
    sidecar = Path(path).with_suffix(".json")
    if not sidecar.exists():
        return None
    try:
        payload = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{sidecar}: bad sidecar ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataFormatError(f"{sidecar}: sidecar must be a JSON object")
    if "fs_hz" not in payload:
        raise DataFormatError(f"{sidecar}: sidecar has no fs_hz key")
    fs = payload["fs_hz"]
    is_number = isinstance(fs, (int, float)) and not isinstance(fs, bool)
    if not (is_number and math.isfinite(fs) and fs > 0):
        raise DataFormatError(
            f"{sidecar}: fs_hz must be a finite positive JSON number, got {json.dumps(fs)}"
        )
    return float(fs)


def read_markers(path: str | Path) -> ProtocolTimeline:
    """The timeline of a JSON marker file (see ``timeline_from_markers``);
    every error names the file."""
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, list):
            raise DataFormatError("marker file must be a JSON list")
        return timeline_from_markers(payload)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except (AnalysisError, ValueError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def read_response_sheets(path: str | Path) -> list[ResponseSheet]:
    """Sheets from CSV rows ``subject,clip,part1..part5`` with 0/1 cells."""
    marks: dict[str, np.ndarray] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 + N_PARTS:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {2 + N_PARTS} fields, got {len(row)}"
                )
            subject = row[0].strip()
            try:
                clip = int(row[1])
                cells = [int(c) for c in row[2:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
            if not 1 <= clip <= N_CLIPS_SHEET:
                raise DataFormatError(f"{path}: line {lineno}: clip must be 1..4, got {clip}")
            if any(c not in (0, 1) for c in cells):
                raise DataFormatError(f"{path}: line {lineno}: cells must be 0 or 1")
            if subject not in marks:
                marks[subject] = np.zeros((N_CLIPS_SHEET, N_PARTS), dtype=bool)
                order.append(subject)
            marks[subject][clip - 1] = np.array(cells, dtype=bool)
    if not order:
        raise DataFormatError(f"{path}: no data rows")
    return [ResponseSheet(subject_id=s, marks=marks[s]) for s in order]


def read_wav(path: str | Path) -> tuple[np.ndarray, float]:
    """(samples, frame rate in Hz) of a 16- or 24-bit PCM file: a mono float
    signal in [-1, 1), stereo downmixed by channel averaging. A file with no
    frames, or a frame rate that is not positive, is a DataFormatError."""
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            width = wav.getsampwidth()
            fs = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DataFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    if fs <= 0:
        raise DataFormatError(f"{path}: frame rate must be positive, got {fs}")
    if not raw:
        raise DataFormatError(f"{path}: no audio frames")
    if width == 2:
        data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 3:
        as_bytes = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        ints = (
            as_bytes[:, 0].astype(np.int32)
            | (as_bytes[:, 1].astype(np.int32) << 8)
            | (as_bytes[:, 2].astype(np.int32) << 16)
        )
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        data = ints.astype(np.float64) / float(1 << 23)
    else:
        raise DataFormatError(f"{path}: only 16- or 24-bit PCM supported, got {8 * width}-bit")
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return data, float(fs)


def write_wav(path: str | Path, samples: np.ndarray, fs: float) -> None:
    """16-bit PCM at fs Hz, rounded to whole hertz; values clipped to [-1, 1]."""
    scaled = np.clip(samples, -1.0, 1.0) * 32767.0
    pcm = np.round(scaled).astype("<i2")
    try:
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(int(round(fs)))
            wav.writeframes(pcm.tobytes())
    except (wave.Error, OSError) as exc:
        raise AnalysisError(f"{path}: cannot write WAV ({exc})") from exc
