"""Tests for repro.recoverylog.io: round trips and error reporting."""

import json
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_log, make_process
from repro.errors import ConfigurationError, LogFormatError
from repro.recoverylog.entry import SUCCESS_DESCRIPTION, EntryKind, LogEntry
from repro.records import LOG_LINE
from repro.recoverylog.io import (
    iter_log_chunks,
    iter_log_jsonl,
    iter_log_text,
    read_log,
    read_log_jsonl,
    read_log_text,
    resolve_log_format,
    sniff_log_format,
    write_log_jsonl,
    write_log_text,
)


@pytest.fixture
def sample_log():
    return make_log(
        [
            make_process(
                ["TRYNOP", "REBOOT"],
                machine="m-a",
                extra_symptoms=["warn:Mem"],
            ),
            make_process(["RMA"], machine="m-b", start=50_000.0),
        ]
    )


class TestTextFormat:
    def test_round_trip(self, tmp_path, sample_log):
        path = tmp_path / "log.tsv"
        count = write_log_text(sample_log, path)
        assert count == len(sample_log)
        loaded = read_log_text(path)
        assert loaded == sample_log

    def test_kind_inference(self, tmp_path, sample_log):
        path = tmp_path / "log.tsv"
        write_log_text(sample_log, path)
        loaded = read_log_text(path)
        kinds = {e.description: e.kind for e in loaded}
        assert kinds["TRYNOP"] is EntryKind.ACTION
        assert kinds["warn:Mem"] is EntryKind.SYMPTOM
        assert kinds["Success"] is EntryKind.SUCCESS

    def test_custom_action_names(self, tmp_path):
        path = tmp_path / "log.tsv"
        entries = [
            LogEntry.symptom(0.0, "m", "error:X"),
            LogEntry.action(1.0, "m", "FSCK"),
            LogEntry.success(2.0, "m"),
        ]
        write_log_text(entries, path)
        loaded = read_log_text(path, action_names={"FSCK"})
        assert loaded[1].is_action

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\tm-only-two\n")
        with pytest.raises(LogFormatError, match="3 tab-separated"):
            read_log_text(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("notatime\tm\terror:X\n")
        with pytest.raises(LogFormatError, match="bad timestamp"):
            read_log_text(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("\n1.000\tm\terror:X\n\n")
        assert len(read_log_text(path)) == 1


class TestJsonlFormat:
    def test_round_trip(self, tmp_path, sample_log):
        path = tmp_path / "log.jsonl"
        count = write_log_jsonl(sample_log, path)
        assert count == len(sample_log)
        assert read_log_jsonl(path) == sample_log

    def test_explicit_kinds_survive(self, tmp_path):
        # A symptom whose text collides with an action name still parses
        # as a symptom in JSONL (unlike the ambiguous text format).
        weird = [
            LogEntry.symptom(0.0, "m", "REBOOT"),
            LogEntry.success(1.0, "m"),
        ]
        path = tmp_path / "log.jsonl"
        write_log_jsonl(weird, path)
        loaded = read_log_jsonl(path)
        assert loaded[0].is_symptom

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1.0\n')
        with pytest.raises(LogFormatError, match="bad JSON"):
            read_log_jsonl(path)

    def test_missing_field_reports_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1.0, "machine": "m"}\n')
        with pytest.raises(LogFormatError, match="bad record"):
            read_log_jsonl(path)


class TestStreamingReaders:
    """Iterator readers: same entries, same path:line diagnostics."""

    def test_iterators_match_eager(self, tmp_path, sample_log):
        text_path = tmp_path / "log.tsv"
        jsonl_path = tmp_path / "log.jsonl"
        write_log_text(sample_log, text_path)
        write_log_jsonl(sample_log, jsonl_path)
        assert list(iter_log_text(text_path)) == list(sample_log)
        assert list(iter_log_jsonl(jsonl_path)) == list(sample_log)

    @pytest.mark.parametrize("reader", [read_log_text, iter_log_text])
    def test_text_bad_timestamp_reports_path_and_line(
        self, tmp_path, reader
    ):
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\tm\terror:X\n\nnotatime\tm\terror:Y\n")
        with pytest.raises(LogFormatError, match="bad timestamp") as info:
            list(reader(path))
        assert f"{path}:3:" in str(info.value)

    @pytest.mark.parametrize("reader", [read_log_text, iter_log_text])
    def test_text_bad_field_count_reports_path_and_line(
        self, tmp_path, reader
    ):
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\tm\terror:X\n2.0\tm-only-two\n")
        with pytest.raises(
            LogFormatError, match="3 tab-separated"
        ) as info:
            list(reader(path))
        assert f"{path}:2:" in str(info.value)

    @pytest.mark.parametrize("reader", [read_log_jsonl, iter_log_jsonl])
    def test_jsonl_bad_json_reports_path_and_line(self, tmp_path, reader):
        path = tmp_path / "bad.jsonl"
        good = '{"time":1.0,"machine":"m","kind":"symptom",'
        good += '"description":"error:X"}\n'
        path.write_text(good + '{"time": 1.0\n')
        with pytest.raises(LogFormatError, match="bad JSON") as info:
            list(reader(path))
        assert f"{path}:2:" in str(info.value)

    @pytest.mark.parametrize("reader", [read_log_jsonl, iter_log_jsonl])
    def test_jsonl_missing_key_reports_path_and_line(
        self, tmp_path, reader
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1.0, "machine": "m"}\n')
        with pytest.raises(LogFormatError, match="bad record") as info:
            list(reader(path))
        assert f"{path}:1:" in str(info.value)

    def test_iterator_is_lazy_until_bad_line(self, tmp_path):
        # Entries before the defect are yielded; the error surfaces only
        # when the stream reaches the bad line.
        path = tmp_path / "bad.tsv"
        path.write_text("1.0\tm\terror:X\nnotatime\tm\terror:Y\n")
        iterator = iter_log_text(path)
        first = next(iterator)
        assert first.description == "error:X"
        with pytest.raises(LogFormatError, match="bad timestamp"):
            next(iterator)


class TestSniffing:
    def test_jsonl_content_with_log_suffix(self, tmp_path, sample_log):
        # Regression: operations logs carry .log whatever their syntax;
        # format detection must follow content, not suffix.
        path = tmp_path / "cluster.log"
        write_log_jsonl(sample_log, path)
        assert sniff_log_format(path) == "jsonl"
        assert read_log(path) == sample_log

    def test_text_content_with_json_suffix(self, tmp_path, sample_log):
        path = tmp_path / "cluster.json"
        write_log_text(sample_log, path)
        assert sniff_log_format(path) == "text"
        assert read_log(path) == sample_log

    def test_leading_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "padded.log"
        path.write_text('\n\n{"time":1.0,"machine":"m",'
                        '"kind":"success","description":"Success"}\n')
        assert sniff_log_format(path) == "jsonl"

    def test_empty_file_defaults_to_text(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("")
        assert sniff_log_format(path) == "text"
        assert len(read_log(path)) == 0

    def test_explicit_format_skips_sniffing(self, tmp_path, sample_log):
        path = tmp_path / "cluster.log"
        write_log_jsonl(sample_log, path)
        assert resolve_log_format(path, "jsonl") == "jsonl"
        with pytest.raises(LogFormatError):
            read_log(path, log_format="text")

    def test_invalid_format_rejected(self, tmp_path):
        path = tmp_path / "x.log"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="log format"):
            resolve_log_format(path, "xml")


class TestChunkedReads:
    def test_chunks_concatenate_to_full_log(self, tmp_path, sample_log):
        path = tmp_path / "log.jsonl"
        write_log_jsonl(sample_log, path)
        chunks = list(iter_log_chunks(path, chunk_size=3))
        assert all(len(chunk) <= 3 for chunk in chunks)
        flattened = [entry for chunk in chunks for entry in chunk]
        assert flattened == list(sample_log)

    def test_single_chunk_when_size_exceeds_log(self, tmp_path, sample_log):
        path = tmp_path / "log.jsonl"
        write_log_jsonl(sample_log, path)
        chunks = list(iter_log_chunks(path, chunk_size=10_000))
        assert len(chunks) == 1

    def test_bad_chunk_size_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="chunk_size"):
            list(iter_log_chunks(path, chunk_size=0))


# ----------------------------------------------------------------------
# Malformed logs: every defect is a LogFormatError at its path:line
# ----------------------------------------------------------------------
GOOD_JSONL = (
    '{"time":1.0,"machine":"m","kind":"symptom","description":"error:X"}\n'
)
GOOD_TEXT = "1.0\tm\terror:X\n"

JSONL_READERS = [read_log_jsonl, iter_log_jsonl]
TEXT_READERS = [read_log_text, iter_log_text]


def _raises_at(reader, path, line_no, match):
    with pytest.raises(LogFormatError, match=match) as info:
        list(reader(path))
    assert str(info.value).startswith(f"{path}:{line_no}: ")


class TestMalformedLogs:
    @pytest.mark.parametrize("reader", JSONL_READERS)
    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            '"hello"',
            "7",
            "null",
            '{"time":null,"machine":"m","kind":"symptom","description":"x"}',
            '{"time":[1],"machine":"m","kind":"symptom","description":"x"}',
        ],
        ids=["list", "string", "number", "null", "null-time", "list-time"],
    )
    def test_jsonl_value_that_is_not_a_record(self, tmp_path, reader, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD_JSONL + line + "\n")
        _raises_at(reader, path, 2, "bad record")

    @pytest.mark.parametrize(
        "reader,good",
        [
            pytest.param(reader, good, id=f"{reader.__name__}-{form}")
            for form, good, readers in (
                ("jsonl", GOOD_JSONL, JSONL_READERS),
                ("text", GOOD_TEXT, TEXT_READERS),
            )
            for reader in readers + [read_log]
        ],
    )
    def test_byte_that_is_not_utf8(self, tmp_path, reader, good):
        path = tmp_path / "bad.log"
        path.write_bytes(good.encode() + good.encode()[:-2] + b"\xff\n")
        _raises_at(reader, path, 2, "not valid UTF-8")

    @pytest.mark.parametrize("reader", JSONL_READERS)
    @pytest.mark.parametrize(
        "record,match",
        [
            ({"time": -1.0, "machine": "m", "kind": "symptom",
              "description": "error:X"}, "finite and >= 0"),
            ({"time": 1.0, "machine": "", "kind": "symptom",
              "description": "error:X"}, "machine must be non-empty"),
            ({"time": 1.0, "machine": "m", "kind": "success",
              "description": "done"}, "success entries"),
        ],
        ids=["negative-time", "empty-machine", "success-description"],
    )
    def test_jsonl_entry_check(self, tmp_path, reader, record, match):
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD_JSONL + json.dumps(record) + "\n")
        _raises_at(reader, path, 2, match)

    @pytest.mark.parametrize("reader", TEXT_READERS)
    @pytest.mark.parametrize(
        "line,match",
        [
            ("-1.0\tm\terror:X", "finite and >= 0"),
            ("1.0\t\terror:X", "machine must be non-empty"),
            ("1.0\tm\t", "description must be non-empty"),
        ],
        ids=["negative-time", "empty-machine", "empty-description"],
    )
    def test_text_entry_check(self, tmp_path, reader, line, match):
        path = tmp_path / "bad.tsv"
        path.write_text(GOOD_TEXT + line + "\n")
        _raises_at(reader, path, 2, match)

    @pytest.mark.parametrize("reader", JSONL_READERS)
    def test_numeric_machine_refused(self, tmp_path, reader):
        path = tmp_path / "log.jsonl"
        path.write_text(
            GOOD_JSONL
            + '{"time":1.0,"machine":7,"kind":"symptom","description":"e"}\n'
        )
        _raises_at(reader, path, 2, "machine must be a string, got 7")

    def test_jsonl_iterator_is_lazy_until_bad_line(self, tmp_path):
        # The JSONL twin of TestStreamingReaders' text test.
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD_JSONL + GOOD_JSONL.replace("}", "}x"))
        iterator = iter_log_jsonl(path)
        assert next(iterator).description == "error:X"
        with pytest.raises(LogFormatError, match="bad JSON: Extra data"):
            next(iterator)


class TestNonFiniteTimes:
    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_constructor_rejects(self, time):
        with pytest.raises(LogFormatError, match="finite"):
            LogEntry.symptom(float(time), "m", "error:X")

    @pytest.mark.parametrize("reader", TEXT_READERS)
    @pytest.mark.parametrize("time", ["nan", "inf", "Infinity", "1e999"])
    def test_text_readers_reject(self, tmp_path, reader, time):
        path = tmp_path / "bad.tsv"
        path.write_text(GOOD_TEXT + GOOD_TEXT.replace("1.0", time))
        _raises_at(reader, path, 2, "finite")

    @pytest.mark.parametrize("reader", JSONL_READERS)
    @pytest.mark.parametrize("time", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_jsonl_readers_reject(self, tmp_path, reader, time):
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD_JSONL + GOOD_JSONL.replace("1.0", time))
        _raises_at(reader, path, 2, "finite")


# ----------------------------------------------------------------------
# Differentials: the direct JSONL writer and the scanner reader
# ----------------------------------------------------------------------
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode

_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029\ufeff\U0001f600'),
        st.characters(),
    ),
    min_size=1,
    max_size=12,
)
_TIMES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 0.1, 1e16, 1e22, 1.7976931348623157e308]),
    st.integers(min_value=0, max_value=2**70),
    st.floats(min_value=0.0, max_value=1e9).map(np.float64),
)


@st.composite
def log_entries(draw):
    kind = draw(st.sampled_from(list(EntryKind)))
    if kind is EntryKind.SUCCESS:
        description = SUCCESS_DESCRIPTION
    else:
        description = draw(_TEXT)
    return LogEntry(draw(_TIMES), draw(_TEXT), kind, description)


def _record(entry):
    return {
        "time": entry.time,
        "machine": entry.machine,
        "kind": entry.kind.value,
        "description": entry.description,
    }


def reference_iter_log_jsonl(path):
    """``json.loads`` per line, then the ``LOG_LINE`` declaration: what
    the scanner reader and its inline type tests must reproduce."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogFormatError(
                    f"{path}:{line_no}: bad JSON: {exc}"
                ) from None
            try:
                fields = LOG_LINE.read(record)
                try:
                    entry = LogEntry(
                        time=fields["time"],
                        machine=fields["machine"],
                        kind=EntryKind(fields["kind"]),
                        description=fields["description"],
                    )
                except LogFormatError as exc:
                    raise LOG_LINE.error(record, exc) from None
            except LogFormatError as exc:
                raise LogFormatError(f"{path}:{line_no}: {exc}") from None
            yield entry


def _drain(entries):
    """The entries an iterator yields, and how it failed (or ``None``)."""
    out = []
    try:
        for entry in entries:
            out.append(entry)
    except Exception as exc:
        return out, (type(exc), str(exc))
    return out, None


_RECORD_LINES = log_entries().map(lambda entry: _COMPACT(_record(entry)))

#: One field of a written record made wrong; ``MISSING`` drops it.
MISSING = object()
BAD_FIELDS = [
    ("time", None), ("time", "abc"), ("time", "1.5"), ("time", [1]),
    ("time", True), ("time", -1.0), ("machine", 7), ("machine", ""),
    ("kind", "bogus"), ("kind", 1), ("kind", ["symptom"]), ("kind", {}),
    ("kind", None), ("description", ""), ("description", 3),
] + [(field, MISSING) for field in ("time", "machine", "kind", "description")]


def _bad_record(entry, field, value):
    record = _record(entry)
    if value is MISSING:
        del record[field]
    else:
        record[field] = value
    return _COMPACT(record)


_JSONL_LINES = st.one_of(
    _RECORD_LINES,
    st.sampled_from(BAD_FIELDS).flatmap(
        lambda bad: log_entries().map(lambda e: _bad_record(e, *bad))
    ),
    st.sampled_from([
        "", " ", "\t \t", "\x0b\x0c", "[1]", '"hello"', "7", "null",
        "true", "{}", "[]", '{"time": 1.0', "{", "}", "\ufeff{}", "NaN",
        '{"time":1.0,"machine":"m\u00e9","kind":"symptom","description":"e"}',
    ]),
    st.tuples(
        st.sampled_from([" ", "\t", "  "]),
        _RECORD_LINES,
        st.sampled_from(["", " ", "\t"]),
    ).map("".join),
    st.tuples(_RECORD_LINES, st.sampled_from(["x", "}", ",", "]"])).map(
        "".join
    ),
    st.tuples(_RECORD_LINES, _RECORD_LINES).map("".join),
)


class TestJsonlDifferentials:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(log_entries(), max_size=8))
    def test_writer_bytes_equal_the_compact_encoder(self, entries):
        expected = "".join(_COMPACT(_record(e)) + "\n" for e in entries)
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.jsonl"
            assert write_log_jsonl(entries, path) == len(entries)
            assert path.read_bytes() == expected.encode("utf-8")
            assert list(iter_log_jsonl(path)) == [
                replace(e, time=float(e.time)) for e in entries
            ]

    @pytest.mark.parametrize(
        "field,value",
        BAD_FIELDS,
        ids=[
            f"{field}-{'missing' if value is MISSING else repr(value)}"
            for field, value in BAD_FIELDS
        ],
    )
    def test_reader_equals_json_loads_on_bad_field(
        self, tmp_path, field, value
    ):
        line = _bad_record(LogEntry.symptom(1.0, "m", "error:X"), field, value)
        path = tmp_path / "log.jsonl"
        path.write_text(GOOD_JSONL + line + "\n")
        assert _drain(iter_log_jsonl(path)) == _drain(
            reference_iter_log_jsonl(path)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_JSONL_LINES, max_size=8),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_reader_equals_json_loads_per_line(self, lines, newline, final):
        content = newline.join(lines) + (newline if final else "")
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.jsonl"
            path.write_bytes(content.encode("utf-8"))
            assert _drain(iter_log_jsonl(path)) == _drain(
                reference_iter_log_jsonl(path)
            )


# ----------------------------------------------------------------------
# Malformed-log fuzz: truncate or flip one byte, then read
# ----------------------------------------------------------------------
FUZZ_LOG = [
    LogEntry.symptom(10.0, "m-a", "error:Disk"),
    LogEntry.symptom(11.5, "m-a", "warn:M\u00e9m \u2028\U0001f600"),
    LogEntry.action(70.25, "m-a", "REBOOT"),
    LogEntry.success(670.125, "m-a"),
    LogEntry.symptom(50_000.0, "m-b", 'error:"quoted"\\'),
    LogEntry.action(50_060.0, "m-b", "RMA"),
    LogEntry.success(51_000.0, "m-b"),
]


class TestMalformedLogFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        writer=st.sampled_from([write_log_text, write_log_jsonl]),
        flip=st.booleans(),
        data=st.data(),
    )
    def test_parses_or_raises_log_format_error(self, writer, flip, data):
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.log"
            writer(FUZZ_LOG, path)
            raw = bytearray(path.read_bytes())
            offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
            if flip:
                raw[offset] ^= data.draw(st.integers(1, 255), label="xor")
            else:
                del raw[offset:]
            path.write_bytes(bytes(raw))
            chunk_size = data.draw(st.integers(1, 4), label="chunk_size")
            for read in (
                read_log,
                lambda p: list(iter_log_chunks(p, chunk_size=chunk_size)),
            ):
                try:
                    read(path)
                except LogFormatError as exc:
                    assert str(exc).startswith(f"{path}:")
