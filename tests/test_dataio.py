import re
import warnings
import wave

import numpy as np
import pytest

from mfsig import dataio
from mfsig.dataio import (
    read_eeg_blocks,
    read_eeg_csv,
    read_response_sheets,
    read_series_csv,
    read_wav,
    sha256_file,
    write_eeg_csv,
    write_series_csv,
    write_wav,
)
from mfsig.errors import DataFormatError
from mfsig.synth import tone, white_noise

from conftest import write_wav_at_rate


class TestSeriesCsv:
    def test_round_trip_exact(self, tmp_path):
        x = white_noise(256, seed=1)
        path = tmp_path / "s.csv"
        write_series_csv(path, x)
        np.testing.assert_array_equal(read_series_csv(path), x)

    def test_round_trip_exact_over_600_decades(self, tmp_path):
        exponents = np.random.default_rng(2).uniform(-300, 300, 256)
        x = white_noise(256, seed=1) * 10.0**exponents
        path = tmp_path / "s.csv"
        write_series_csv(path, x)
        np.testing.assert_array_equal(read_series_csv(path), x)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.5\n2.5\noops\n")
        with pytest.raises(DataFormatError, match="line 4"):
            read_series_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("value\n")
        with pytest.raises(DataFormatError):
            read_series_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, cell):
        path = tmp_path / "s.csv"
        path.write_text(f"value\n1.5\n\n2.5\n{cell}\n")  # blank line 3 is skipped
        with pytest.raises(DataFormatError, match=f"s.csv: line 5: '{cell}' is not a finite"):
            read_series_csv(path)


class TestEegCsv:
    def test_round_trip(self, tmp_path):
        channels = {"F3": np.arange(5.0), "O2": np.linspace(0, 1, 5)}
        path = tmp_path / "eeg.csv"
        write_eeg_csv(path, channels)
        back = read_eeg_csv(path)
        assert set(back) == {"F3", "O2"}
        np.testing.assert_allclose(back["F3"], channels["F3"])

    def test_requires_sample_header(self, tmp_path):
        path = tmp_path / "eeg.csv"
        path.write_text("time,F3\n0,1.0\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_eeg_csv(path)

    @pytest.mark.parametrize("header", ["sample,F3,F3", "sample,F3,O2, F3"])
    def test_repeated_column_names_path_line_and_column(self, tmp_path, header):
        path = tmp_path / "eeg.csv"
        n_fields = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["0"] + ["1.0"] * (n_fields - 1)) + "\n")
        with pytest.raises(
            DataFormatError, match="eeg.csv: line 1: column 'F3' appears more than once"
        ):
            read_eeg_csv(path)

    def test_field_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "eeg.csv"
        path.write_text("sample,F3,F4\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_eeg_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "eeg.csv"
        path.write_text(f"sample,F3,F4\n0,1.0,2.0\n\n1,3.0,4.0\n2,5.0,{cell}\n")
        with pytest.raises(
            DataFormatError, match=f"eeg.csv: line 5: column F4: '{cell}' is not a finite"
        ):
            read_eeg_csv(path)


class TestEegBlocks:
    def test_blocks_are_parsed_as_they_are_reached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", 4)
        path = tmp_path / "eeg.csv"
        x = white_noise(10, seed=7)
        write_eeg_csv(path, {"F3": x, "O2": -x})
        channels, blocks = read_eeg_blocks(path)
        assert channels == ["F3", "O2"]
        assert [len(block) for block in blocks] == [4, 4, 2]

    @pytest.mark.parametrize("block_rows", [1, 7, 1000])
    def test_read_eeg_csv_does_not_depend_on_the_block_size(
        self, tmp_path, monkeypatch, block_rows
    ):
        # blank lines between the rows: they count toward no block
        path = tmp_path / "eeg.csv"
        x = white_noise(300, seed=8)
        rows = "".join(f"{i},{v!r},{-v!r}\n\n" for i, v in enumerate(x.tolist()))
        path.write_text("sample,F3,O2\n\n" + rows)
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", block_rows)
        back = read_eeg_csv(path)
        np.testing.assert_array_equal(back["F3"], x)
        np.testing.assert_array_equal(back["O2"], -x)

    def test_bad_cell_in_a_later_block_names_its_line_and_column(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", 4)
        path = tmp_path / "eeg.csv"
        rows = [f"{i},{i}.5,-{i}.5" for i in range(20)]
        rows[14] = "14,14.5,oops"  # line 16, in the fourth block
        path.write_text("sample,F3,F4\n" + "\n".join(rows) + "\n")
        _, blocks = read_eeg_blocks(path)
        assert [len(next(blocks)) for _ in range(3)] == [4, 4, 4]
        with pytest.raises(
            DataFormatError, match=re.escape(f"{path}: line 16: column F4: 'oops' is not a number")
        ):
            next(blocks)

    def test_header_is_checked_before_the_cells(self, tmp_path):
        path = tmp_path / "eeg.csv"
        path.write_text("sample,F3,F3\n0,1.0,oops\n")
        with pytest.raises(DataFormatError, match="line 1: column 'F3' appears more than once"):
            read_eeg_blocks(path)


class TestNumericCsvFromDisk:
    def test_valid_files_are_never_held_as_text(self, tmp_path, monkeypatch):
        # only a rejected file is read again as text, to locate its error
        series, eeg = tmp_path / "s.csv", tmp_path / "eeg.csv"
        x = white_noise(300, seed=4)
        write_series_csv(series, x)
        write_eeg_csv(eeg, {"F3": x, "O2": -x})

        def no_text(path):
            raise AssertionError(f"{path} read as text")

        monkeypatch.setattr(dataio, "read_text", no_text)
        np.testing.assert_array_equal(read_series_csv(series), x)
        np.testing.assert_allclose(read_eeg_csv(eeg)["O2"], -x, rtol=1e-8)

    @pytest.mark.parametrize(
        "text",
        [
            "sample,F3\r\n0,1.5\r\n1,-2e3\r\n",
            "sample,F3\n0,1.5\n\n\n1,-2e3\n\n",
            "sample,F3\n0,1.5\n1,-2e3",
            "sample,F3\n0,1.5\n",
            "sample,F3\r\n0,1.5",
        ],
        ids=["crlf", "blank_lines", "no_final_newline", "single_row", "single_row_crlf"],
    )
    def test_equals_the_line_scan(self, tmp_path, text):
        path = tmp_path / "eeg.csv"
        path.write_bytes(text.encode())
        header, *lines = text.replace("\r\n", "\n").split("\n")
        rows = [[float(cell) for cell in line.split(",")] for line in lines if line]
        back = read_eeg_csv(path)
        assert list(back) == header.split(",")[1:]
        np.testing.assert_array_equal(back["F3"], np.array(rows)[:, 1])

    @pytest.mark.parametrize("text", ["value\n", "value", "value\n\n\n", ""])
    def test_no_data_rows_warns_nothing(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=re.escape(f"{path}: no data rows")):
                read_series_csv(path)


@pytest.mark.parametrize(
    "reader,text,expected",
    [
        (read_eeg_csv, "sample,F3,F4\n0,1.0,2.0\n1,,4.0\n", "line 3: column F3: '' is not a number"),
        (read_series_csv, "value\n1.5\n1_000\n", "line 3: '1_000' is not a number"),
        (read_series_csv, "value\n1.5\n  \n2.5\n", "line 3: '  ' is not a number"),
        (read_eeg_csv, 'sample,F3\n0,1.0\n1,"2.0"\n', "line 3: column F3: '\"2.0\"' is not a number"),
        (read_series_csv, "value\r\n1.5\r\n\r\noops\r\n", "line 4: 'oops' is not a number"),
        (read_series_csv, "value\n1\x0c2\n", "line 2: '1\\x0c2' is not a number"),
        (read_series_csv, "value,other\n1.5,2.5\n", "line 1: expected 1 column, got 2"),
        (read_series_csv, "value,other\n1.5,oops\n", "line 1: expected 1 column, got 2"),
        (read_eeg_csv, "sample,F3\n0,1.0\nt1,2.0\n", "line 3: column sample: 't1' is not a number"),
        (read_eeg_csv, "sample,F3,../x\n0,1.0,2.0\n", "line 1: column 3: electrode name '../x'"),
        (read_eeg_csv, "sample,F3,\n0,1.0,2.0\n", "line 1: column 3: electrode name ''"),
        (read_eeg_csv, "sample,..\n0,1.0\n", "line 1: column 2: electrode name '..'"),
        (read_eeg_csv, "sample,a\\b\n0,1.0\n", "line 1: column 2: electrode name 'a\\\\b'"),
        (read_eeg_csv, 'sample,"F3"\n0,1.0\n', "line 1: column 2: electrode name '\"F3\"'"),
    ],
    ids=[
        "empty_cell", "digit_separator", "whitespace_line", "quoted_cell", "crlf", "form_feed",
        "two_column_series", "two_column_series_bad_cell", "non_numeric_sample", "electrode_path", "electrode_empty",
        "electrode_dotdot", "electrode_backslash", "electrode_quoted",
    ],
)
def test_bad_input_names_path_and_line(tmp_path, reader, text, expected):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: {expected}")):
        reader(path)


class TestWav:
    def test_16bit_round_trip(self, tmp_path):
        x = tone(440, 44100, 0.05, amplitude=0.5)
        path = tmp_path / "t.wav"
        write_wav(path, x, 44100)
        back, fs = read_wav(path)
        assert fs == 44100
        assert len(back) == len(x)
        assert np.abs(back - x).max() <= 1.0 / 32767

    def test_24bit_read(self, tmp_path):
        fs = 44100
        x = 0.25 * np.sin(2 * np.pi * 440 * np.arange(512) / fs)
        ints = np.round(x * (1 << 23)).astype(np.int32)
        raw = bytearray()
        for v in ints:
            raw += int(v).to_bytes(3, "little", signed=True)
        path = tmp_path / "t24.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(3)
            fh.setframerate(fs)
            fh.writeframes(bytes(raw))
        back, _ = read_wav(path)
        assert np.abs(back - x).max() <= 1.0 / (1 << 23)

    def test_stereo_downmix(self, tmp_path):
        fs = 22050
        left = np.full(64, 0.5)
        right = np.full(64, -0.25)
        inter = np.empty(128)
        inter[0::2], inter[1::2] = left, right
        pcm = np.round(inter * 32767).astype("<i2")
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(fs)
            fh.writeframes(pcm.tobytes())
        back, fs = read_wav(path)
        assert fs == 22050
        assert len(back) == 64
        np.testing.assert_allclose(back, 0.125, atol=1e-4)

    def test_rejects_other_depths(self, tmp_path):
        path = tmp_path / "w32.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(4)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 64)
        with pytest.raises(DataFormatError, match="32-bit"):
            read_wav(path)

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_text("not audio")
        with pytest.raises(DataFormatError):
            read_wav(path)

    @pytest.mark.parametrize(
        "samples, rate, expected",
        [
            (np.zeros(0), 44100, "no audio frames"),
            (np.zeros(64), 0, "frame rate must be positive, got 0"),
        ],
        ids=["no_frames", "rate_0"],
    )
    def test_no_frames_or_rate_names_path(self, tmp_path, samples, rate, expected):
        path = tmp_path / "bad.wav"
        write_wav_at_rate(path, samples, rate)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {expected}")):
            read_wav(path)


    def test_chunk_running_past_the_file_names_path(self, tmp_path):
        # the data chunk's id damaged and its size past the end of the file:
        # wave skips it as an unknown chunk and fails with a bare RuntimeError
        path = tmp_path / "damaged.wav"
        write_wav(path, np.zeros(100), 8000)
        data = bytearray(path.read_bytes())
        at = data.index(b"data")
        data[at : at + 8] = b"dXta" + (10**6).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(
            DataFormatError,
            match=re.escape(f"{path}: not a readable WAV file (a chunk runs past the end of"),
        ):
            read_wav(path)


class TestListeningSheets:
    def test_rejects_bad_cell(self, tmp_path):
        path = tmp_path / "sheets.csv"
        path.write_text("subject,clip,part1,part2,part3,part4,part5\nA,1,0,1,2,0,0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_response_sheets(path)

    def test_rejects_bad_clip(self, tmp_path):
        path = tmp_path / "sheets.csv"
        path.write_text("subject,clip,part1,part2,part3,part4,part5\nA,7,0,1,0,0,0\n")
        with pytest.raises(DataFormatError, match="clip"):
            read_response_sheets(path)

    def test_partial_subject_rows_default_to_unmarked(self, tmp_path):
        path = tmp_path / "sheets.csv"
        path.write_text("subject,clip,part1,part2,part3,part4,part5\nA,2,1,0,0,0,0\n")
        marks = read_response_sheets(path)
        assert marks.shape == (1, 4, 5)
        assert marks.sum() == 1

    def test_subjects_in_first_seen_order(self, tmp_path):
        path = tmp_path / "sheets.csv"
        path.write_text(
            "subject,clip,part1,part2,part3,part4,part5\n"
            "B,1,1,0,0,0,0\nA,3,0,0,0,0,1\nB,2,0,1,0,0,0\n"
        )
        marks = read_response_sheets(path)
        assert marks.dtype == bool
        assert marks.shape == (2, 4, 5)
        assert marks[0, 0, 0] and marks[0, 1, 1] and marks[1, 2, 4]
        assert marks.sum() == 3

    def test_repeated_subject_clip_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "subject,clip,part1,part2,part3,part4,part5\nA,1,1,1,1,1,1\nA,1,0,0,0,0,0\n"
        )
        expected = f"{path}: lines 2 and 3 both give subject 'A' clip 1"
        with pytest.raises(DataFormatError, match=re.escape(expected)):
            read_response_sheets(path)


class TestHash:
    def test_sha256_stable(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc")
        assert sha256_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
