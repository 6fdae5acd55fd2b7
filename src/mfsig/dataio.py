"""File formats: series and multi-channel EEG CSV (one numeric reader),
WAV audio, response sheets, marker files, and input hashing for provenance.

A numeric CSV is parsed straight from disk in blocks of rows, which an EEG
recording can be analysed from as they are read; only a rejected file is
read again as text and scanned to locate the error."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import warnings
import wave
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import AnalysisError, DataFormatError
from .protocol import N_CLIPS_SHEET, N_PARTS, ProtocolTimeline
from .protocol import check_electrode_name, timeline_from_markers


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, newlines read as ``Path.read_text`` reads them;
    a byte that is not UTF-8 is a DataFormatError naming the file and line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise DataFormatError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


def _cell_problem(cell: str) -> str | None:
    """What is wrong with a cell that ``np.loadtxt`` rejects or reads as non-finite."""
    try:
        value = float(cell)
    except ValueError:
        return "is not a number"
    if "_" in cell or not cell.strip().isascii():  # float() also takes 1_000 and non-ASCII digits
        return "is not a number"
    return None if math.isfinite(value) else "is not a finite number"


# Rows parsed by one np.loadtxt call of a numeric CSV.
_BLOCK_ROWS = 8192


def _csv_blocks(path: str | Path) -> Iterator:
    """The header names of a CSV of numbers, then its rows as ``(rows, columns)``
    arrays of up to ``_BLOCK_ROWS`` rows, each checked, every column of it.

    Each block is parsed from the one open file by its own ``np.loadtxt``
    call when the iterator reaches it, so the file's text is never held
    whole. Only a rejected file is read again and scanned to name the first
    bad line, and its column if several: every row before it has passed."""
    try:
        with open(path, encoding="utf-8") as fh:
            names = [name.strip() for name in fh.readline().split(",")]
            yield names
            rows = 0
            while True:
                with warnings.catch_warnings():
                    # past the last row: an empty block, which ends the file
                    warnings.simplefilter("ignore", UserWarning)
                    block = np.loadtxt(
                        fh, delimiter=",", comments=None, ndmin=2, max_rows=_BLOCK_ROWS
                    )
                if not len(block):
                    break
                if block.shape[1] != len(names) or not np.isfinite(block).all():
                    raise _csv_error(path)
                rows += len(block)
                yield block
    except ValueError:  # not UTF-8, a bad cell or a ragged row
        raise _csv_error(path) from None
    if not rows:
        raise _csv_error(path)


def _csv_error(path: str | Path) -> DataFormatError:
    """The error naming the first bad line of a CSV that ``_csv_blocks``
    rejects (``read_text`` raises its own for a file that is not UTF-8)."""
    # splitlines() would also break at form feeds, which csv and editors do not
    header, *lines = read_text(path).split("\n")
    names = [name.strip() for name in header.split(",")]
    if not any(lines):
        return DataFormatError(f"{path}: no data rows")
    for n, line in enumerate(lines, start=2):
        cells = line.split(",") if line else []
        if cells and len(cells) != len(names):
            got = len(cells)
            return DataFormatError(f"{path}: line {n}: expected {len(names)} fields, got {got}")
        for name, cell in zip(names, cells):
            if problem := _cell_problem(cell):
                where = f"column {name}: " if len(names) > 1 else ""
                return DataFormatError(f"{path}: line {n}: {where}{cell!r} {problem}")
    return DataFormatError(f"{path}: not a CSV of numbers")


def read_series_csv(path: str | Path) -> np.ndarray:
    """The samples of a single-column CSV with a one-line header, checked
    before its rows are parsed."""
    blocks = _csv_blocks(path)
    names = next(blocks)
    if len(names) != 1:
        raise DataFormatError(f"{path}: line 1: expected 1 column, got {len(names)}")
    return np.concatenate(list(blocks))[:, 0]


def write_series_csv(path: str | Path, samples: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("value\n")
        for v in samples:
            fh.write(repr(float(v)) + "\n")  # shortest exact round-trip form


def read_eeg_blocks(path: str | Path) -> tuple[list[str], Iterator[np.ndarray]]:
    """The channel names of an EEG CSV, header ``sample,F3,F4,...`` then one
    row per sample, and an iterator over its samples in blocks of rows, one
    column per channel.

    The header is read and checked here; each block is parsed and checked,
    every column of it, when the iterator reaches it (see ``_csv_blocks``).
    """
    blocks = _csv_blocks(path)
    names = next(blocks)
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
    return channels, (block[:, 1:] for block in blocks)


def read_eeg_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Multi-channel recording: channel name -> samples, the concatenation of
    the blocks of ``read_eeg_blocks``."""
    channels, blocks = read_eeg_blocks(path)
    data = np.concatenate(list(blocks))
    return {name: data[:, i] for i, name in enumerate(channels)}


def write_eeg_csv(path: str | Path, channels: dict[str, np.ndarray]) -> None:
    names = list(channels)
    n = len(next(iter(channels.values())))
    with open(path, "w", newline="") as fh:
        fh.write("sample," + ",".join(names) + "\n")
        for i in range(n):
            fh.write(str(i) + "," + ",".join(f"{channels[c][i]:.9g}" for c in names) + "\n")


def read_json(path: str | Path, parse):
    """``parse`` of the JSON value a UTF-8 file holds; a malformed file, or an
    AnalysisError or ValueError from ``parse``, is a DataFormatError naming the file."""
    text = read_text(path)
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except RecursionError:
        raise DataFormatError(f"{path}: JSON nested too deeply") from None
    except (AnalysisError, ValueError) as exc:  # also an integer too long for int()
        raise DataFormatError(f"{path}: {exc}") from None


def read_fs_sidecar(path: str | Path) -> float:
    """Sampling rate from ``<stem>.json`` next to the data file.

    The sidecar is a JSON object whose ``fs_hz`` is a finite positive number;
    a missing one is a DataFormatError naming the data file and the sidecar.
    """
    sidecar = Path(path).with_suffix(".json")
    if not sidecar.exists():
        raise DataFormatError(
            f"{path}: sampling rate not given (--fs) and no sidecar {sidecar} found"
        )
    return read_json(sidecar, _fs_hz)


def _fs_hz(payload) -> float:
    if not isinstance(payload, dict):
        raise DataFormatError("sidecar must be a JSON object")
    if "fs_hz" not in payload:
        raise DataFormatError("sidecar has no fs_hz key")
    fs = payload["fs_hz"]
    is_number = isinstance(fs, (int, float)) and not isinstance(fs, bool)
    # compared exactly, so an integer too large for a float fails here too
    if not (is_number and 0 < fs <= sys.float_info.max):
        raise DataFormatError(f"fs_hz must be a finite positive JSON number, got {json.dumps(fs)}")
    return float(fs)


def read_markers(path: str | Path) -> ProtocolTimeline:
    """The timeline of a JSON marker file (see ``timeline_from_markers``);
    every error names the file."""
    return read_json(path, timeline_from_markers)


def read_response_sheets(path: str | Path) -> np.ndarray:
    """Non-recognition marks from CSV rows ``subject,clip,part1..part5`` with
    0/1 cells: a bool array (subjects, 4 clips, 5 parts), True where the
    listener could not recognize the part, subjects in first-seen order.

    A clip with no row is unmarked; two rows for one subject and clip are
    an error naming both lines.
    """
    marks: dict[str, np.ndarray] = {}
    first_line: dict[tuple[str, int], int] = {}
    reader = csv.reader(io.StringIO(read_text(path)))
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
            raise DataFormatError(
                f"{path}: line {lineno}: clip must be 1..{N_CLIPS_SHEET}, got {clip}"
            )
        if any(c not in (0, 1) for c in cells):
            raise DataFormatError(f"{path}: line {lineno}: cells must be 0 or 1")
        first = first_line.setdefault((subject, clip), lineno)
        if first != lineno:
            raise DataFormatError(
                f"{path}: lines {first} and {lineno} both give subject {subject!r} clip {clip}"
            )
        if subject not in marks:
            marks[subject] = np.zeros((N_CLIPS_SHEET, N_PARTS), dtype=bool)
        marks[subject][clip - 1] = cells
    if not marks:
        raise DataFormatError(f"{path}: no data rows")
    return np.stack(list(marks.values()))


def read_wav(path: str | Path) -> tuple[np.ndarray, float]:
    """(samples, frame rate in Hz) of a 16- or 24-bit PCM file: a mono float
    signal in [-1, 1), stereo downmixed by channel averaging. A partial last
    frame, as in a file cut short, is dropped. A file with no whole frame, or
    a frame rate that is not positive, is a DataFormatError."""
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            width = wav.getsampwidth()
            fs = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DataFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    except RuntimeError:  # wave raises it bare when a chunk it skips runs past the RIFF chunk
        raise DataFormatError(
            f"{path}: not a readable WAV file (a chunk runs past the end of the file)"
        ) from None
    if fs <= 0:
        raise DataFormatError(f"{path}: frame rate must be positive, got {fs}")
    raw = raw[: len(raw) - len(raw) % (n_channels * width)]
    if not raw:
        raise DataFormatError(f"{path}: no audio frames")
    if width == 2:
        data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 3:
        # each sample as the top three bytes of a little-endian int32: >> 8 sign-extends it
        words = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
        words[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        data = (words.view("<i4")[:, 0] >> 8) / float(1 << 23)
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
        with open(path, "wb") as fh, wave.open(fh, "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(int(round(fs)))
            wav.writeframes(pcm.tobytes())
    except (wave.Error, OSError) as exc:
        raise AnalysisError(f"{path}: cannot write WAV ({exc})") from exc
