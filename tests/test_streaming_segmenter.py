"""Tests for repro.recoverylog.stream: emit-on-close segmentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_process
from repro.errors import ConfigurationError, SegmentationError
from repro.recoverylog.entry import EntryKind, LogEntry
from repro.recoverylog.stream import StreamingSegmenter


def _entries(*processes):
    merged = [entry for process in processes for entry in process.entries]
    return sorted(merged)


class TestStateMachine:
    def test_emits_process_on_success(self):
        process = make_process(["TRYNOP", "REBOOT"], machine="m-a")
        segmenter = StreamingSegmenter()
        emitted = list(segmenter.feed_many(process.entries))
        assert emitted == [process]
        assert segmenter.emitted_count == 1
        assert segmenter.open_machine_count == 0

    def test_interleaved_machines_separate(self):
        a = make_process(["TRYNOP"], machine="m-a", start=0.0)
        b = make_process(["REBOOT", "RMA"], machine="m-b", start=10.0)
        segmenter = StreamingSegmenter()
        emitted = list(segmenter.feed_many(_entries(a, b)))
        assert sorted(emitted, key=lambda p: p.machine) == [a, b]

    def test_feed_returns_completed_process_or_none(self):
        process = make_process(["TRYNOP"], machine="m-a")
        segmenter = StreamingSegmenter()
        results = [segmenter.feed(entry) for entry in process.entries]
        assert results[:-1] == [None] * (len(process.entries) - 1)
        assert results[-1] == process

    def test_back_to_back_processes_same_machine(self):
        first = make_process(["TRYNOP"], machine="m-a", start=0.0)
        second = make_process(["REBOOT"], machine="m-a", start=10_000.0)
        segmenter = StreamingSegmenter()
        emitted = list(
            segmenter.feed_many(list(first.entries) + list(second.entries))
        )
        assert emitted == [first, second]

    def test_entry_count_tracks_consumed(self):
        process = make_process(["TRYNOP"], machine="m-a")
        segmenter = StreamingSegmenter()
        list(segmenter.feed_many(process.entries))
        assert segmenter.entry_count == len(process.entries)


class TestOrphans:
    def test_action_without_symptom_is_orphan(self):
        segmenter = StreamingSegmenter()
        assert segmenter.feed(LogEntry.action(1.0, "m", "REBOOT")) is None
        assert segmenter.orphan_count == 1
        assert segmenter.orphans[0].description == "REBOOT"

    def test_success_without_symptom_is_orphan(self):
        segmenter = StreamingSegmenter()
        segmenter.feed(LogEntry.success(1.0, "m"))
        assert segmenter.orphan_count == 1

    def test_orphan_retention_is_capped_but_counting_is_not(self):
        segmenter = StreamingSegmenter(max_orphans_kept=3)
        for index in range(10):
            segmenter.feed(LogEntry.action(float(index), "m", "REBOOT"))
        assert segmenter.orphan_count == 10
        assert len(segmenter.orphans) == 3


class TestOrdering:
    def test_out_of_order_time_raises(self):
        segmenter = StreamingSegmenter()
        segmenter.feed(LogEntry.symptom(10.0, "m", "error:X"))
        with pytest.raises(SegmentationError, match="out of stream order"):
            segmenter.feed(LogEntry.symptom(5.0, "m", "error:Y"))

    def test_equal_time_wrong_kind_order_raises(self):
        # The fast path admits strictly increasing times; ties must
        # still respect the LogEntry total order (symptom < action).
        segmenter = StreamingSegmenter()
        segmenter.feed(LogEntry.symptom(1.0, "m", "error:X"))
        segmenter.feed(LogEntry.action(1.0, "m", "REBOOT"))
        with pytest.raises(SegmentationError, match="out of stream order"):
            segmenter.feed(LogEntry.symptom(1.0, "m", "error:Y"))

    def test_equal_time_machine_ascending_accepted(self):
        segmenter = StreamingSegmenter()
        segmenter.feed(LogEntry.symptom(1.0, "m-a", "error:X"))
        segmenter.feed(LogEntry.symptom(1.0, "m-b", "error:X"))
        assert segmenter.open_machine_count == 2


class TestBounds:
    def test_open_buffer_overflow_raises(self):
        segmenter = StreamingSegmenter(max_open_entries=3)
        segmenter.feed(LogEntry.symptom(0.0, "m", "error:X"))
        segmenter.feed(LogEntry.symptom(1.0, "m", "warn:A"))
        segmenter.feed(LogEntry.symptom(2.0, "m", "warn:B"))
        with pytest.raises(SegmentationError, match="exceeding 3 entries"):
            segmenter.feed(LogEntry.symptom(3.0, "m", "warn:C"))

    def test_bad_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingSegmenter(max_open_entries=1)
        with pytest.raises(ConfigurationError):
            StreamingSegmenter(max_orphans_kept=-1)

    def test_open_entry_count(self):
        segmenter = StreamingSegmenter()
        segmenter.feed(LogEntry.symptom(0.0, "m-a", "error:X"))
        segmenter.feed(LogEntry.symptom(1.0, "m-b", "error:Y"))
        segmenter.feed(LogEntry.action(2.0, "m-b", "REBOOT"))
        assert segmenter.open_entry_count == 3


class TestPending:
    def test_pending_machine_sorted(self):
        segmenter = StreamingSegmenter()
        segmenter.feed(LogEntry.symptom(0.0, "m-b", "error:Y"))
        segmenter.feed(LogEntry.symptom(1.0, "m-a", "error:X"))
        segmenter.feed(LogEntry.action(2.0, "m-b", "REBOOT"))
        pending = segmenter.pending()
        assert [buffer[0].machine for buffer in pending] == ["m-a", "m-b"]
        assert len(pending[1]) == 2

    def test_pending_empty_after_close(self):
        process = make_process(["TRYNOP"], machine="m-a")
        segmenter = StreamingSegmenter()
        list(segmenter.feed_many(process.entries))
        assert segmenter.pending() == ()


_KINDS = (EntryKind.SYMPTOM, EntryKind.ACTION, EntryKind.SUCCESS)
_DESCRIPTIONS = {
    EntryKind.SYMPTOM: ("error:X", "warn:Y"),
    EntryKind.ACTION: ("REBOOT", "RMA"),
    EntryKind.SUCCESS: ("Success",),
}


@st.composite
def _streams(draw):
    """A mostly time-ordered stream with ties and the odd step back."""
    entries, time = [], 0.0
    for _ in range(draw(st.integers(0, 40))):
        time = max(0.0, time + draw(st.sampled_from([0.0, 1.0, 1.0, -1.0])))
        kind = draw(st.sampled_from(_KINDS))
        entries.append(LogEntry(
            time,
            draw(st.sampled_from(["m-a", "m-b", "m-c"])),
            kind,
            draw(st.sampled_from(_DESCRIPTIONS[kind])),
        ))
    return entries


def _run(segmenter, feeding):
    """Drive ``feeding``; return what it emitted, raised and left."""
    emitted, error = [], None
    try:
        for process in feeding:
            emitted.append(process)
    except SegmentationError as exc:
        error = (type(exc), str(exc))
    return (
        emitted,
        error,
        segmenter.entry_count,
        segmenter.emitted_count,
        segmenter.orphan_count,
        segmenter.orphans,
        segmenter.open_entry_count,
        segmenter.pending(),
    )


class TestFeedManyMatchesFeed:
    @given(
        entries=_streams(),
        max_open=st.integers(2, 4),
        max_orphans=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_ends_the_same_way(
        self, entries, max_open, max_orphans, data
    ):
        def segmenter():
            return StreamingSegmenter(
                max_open_entries=max_open, max_orphans_kept=max_orphans
            )

        one = segmenter()
        singly = (
            process
            for entry in entries
            for process in [one.feed(entry)]
            if process is not None
        )
        expected = _run(one, singly)

        cuts = data.draw(
            st.lists(st.integers(0, len(entries)), max_size=4).map(sorted)
        )
        bounds = [0, *cuts, len(entries)]
        many = segmenter()
        chunked = (
            process
            for start, stop in zip(bounds, bounds[1:])
            for process in many.feed_many(entries[start:stop])
        )
        assert _run(many, chunked) == expected

    def test_suspended_feed_many_sees_interleaved_feed(self):
        first = make_process(["TRYNOP"], machine="m-a", start=0.0)
        segmenter = StreamingSegmenter()
        feeding = segmenter.feed_many(
            list(first.entries) + [LogEntry.symptom(5_000.0, "m-b", "error:X")]
        )
        assert next(feeding) == first
        segmenter.feed(LogEntry.symptom(10_000.0, "m-c", "error:X"))
        with pytest.raises(SegmentationError, match="out of stream order"):
            next(feeding)
        assert segmenter.entry_count == len(first.entries) + 1
