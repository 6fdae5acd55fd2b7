"""File formats: series CSV, multi-channel EEG CSV, WAV audio, response
sheets, marker files, and input hashing for provenance."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import wave
from pathlib import Path

import numpy as np

from .errors import DataFormatError, IoFailureError
from .protocol import N_CLIPS_SHEET, N_PARTS, ResponseSheet
from .series import TimeSeries


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_series_csv(path: str | Path, sample_rate_hz: float = 1.0) -> TimeSeries:
    """Single-column CSV with a one-line header."""
    values = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno == 1 or not row:
                continue  # header / blank line
            try:
                values.append(float(row[0]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {row[0]!r} is not a number") from exc
    if not values:
        raise DataFormatError(f"{path}: no data rows")
    samples = np.array(values)
    _check_finite(path, samples)
    return TimeSeries(samples, sample_rate_hz)


def _check_finite(path: str | Path, samples: np.ndarray, column: int = 0, name: str = "") -> None:
    """Raise DataFormatError naming the line of the first non-finite value.

    ``samples[k]`` came from the k-th non-blank row after the header; the
    file is read again only on failure, to find that row's line number.
    """
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size == 0:
        return
    with open(path, newline="") as fh:
        data_rows = ((n, row) for n, row in enumerate(csv.reader(fh), start=1) if n > 1 and row)
        lineno, row = next(itertools.islice(data_rows, int(bad[0]), None))
    where = f"column {name}: " if name else ""
    raise DataFormatError(f"{path}: line {lineno}: {where}{row[column]!r} is not a finite number")


def write_series_csv(path: str | Path, ts: TimeSeries, header: str = "value") -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for v in ts.samples:
            fh.write(repr(float(v)) + "\n")  # shortest exact round-trip form


def read_eeg_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Multi-channel recording: header ``sample,F3,F4,...`` then one row
    per sample. Returns channel name -> samples."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "sample":
            raise DataFormatError(f"{path}: line 1: expected header starting with 'sample'")
        channels = [h.strip() for h in header[1:]]
        if not channels:
            raise DataFormatError(f"{path}: no channel columns")
        repeated = next((c for i, c in enumerate(channels) if c in channels[:i]), None)
        if repeated is not None:
            raise DataFormatError(f"{path}: line 1: column {repeated!r} appears more than once")
        columns: list[list[float]] = [[] for _ in channels]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(channels) + 1:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(channels) + 1} fields, got {len(row)}"
                )
            for i, cell in enumerate(row[1:]):
                try:
                    columns[i].append(float(cell))
                except ValueError as exc:
                    raise DataFormatError(
                        f"{path}: line {lineno}: {cell!r} is not a number"
                    ) from exc
    arrays = [np.array(col) for col in columns]
    for i, (name, samples) in enumerate(zip(channels, arrays), start=1):
        _check_finite(path, samples, column=i, name=name)
    return dict(zip(channels, arrays))


def write_eeg_csv(path: str | Path, channels: dict[str, np.ndarray]) -> None:
    names = list(channels)
    n = len(next(iter(channels.values())))
    with open(path, "w", newline="") as fh:
        fh.write("sample," + ",".join(names) + "\n")
        for i in range(n):
            fh.write(str(i) + "," + ",".join(f"{channels[c][i]:.9g}" for c in names) + "\n")


def read_fs_sidecar(path: str | Path) -> float | None:
    """Sampling rate from ``<stem>.json`` next to the data file, if present."""
    sidecar = Path(path).with_suffix(".json")
    if not sidecar.exists():
        return None
    try:
        payload = json.loads(sidecar.read_text())
        return float(payload["fs_hz"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{sidecar}: bad sidecar ({exc})") from exc


def read_markers(path: str | Path) -> list[dict]:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(payload, list):
        raise DataFormatError(f"{path}: marker file must be a JSON list")
    return payload


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


def read_wav(path: str | Path) -> TimeSeries:
    """Mono float signal in [-1, 1) from 16- or 24-bit PCM; stereo is
    downmixed by channel averaging."""
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            width = wav.getsampwidth()
            fs = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DataFormatError(f"{path}: not a readable WAV file ({exc})") from exc
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
    return TimeSeries(data, float(fs))


def write_wav(path: str | Path, ts: TimeSeries) -> None:
    """16-bit PCM at the series' own sample rate; values clipped to [-1, 1]."""
    scaled = np.clip(ts.samples, -1.0, 1.0) * 32767.0
    pcm = np.round(scaled).astype("<i2")
    try:
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(int(round(ts.sample_rate_hz)))
            wav.writeframes(pcm.tobytes())
    except (wave.Error, OSError) as exc:
        raise IoFailureError(f"{path}: cannot write WAV ({exc})") from exc
