"""Tests for repro.recoverylog.entry."""

import copy
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.recoverylog.entry import SUCCESS_DESCRIPTION, EntryKind, LogEntry


class TestConstruction:
    def test_symptom_factory(self):
        entry = LogEntry.symptom(1.0, "m-1", "error:Disk")
        assert entry.kind is EntryKind.SYMPTOM
        assert entry.is_symptom and not entry.is_action

    def test_action_factory(self):
        entry = LogEntry.action(2.0, "m-1", "REBOOT")
        assert entry.is_action

    def test_success_factory(self):
        entry = LogEntry.success(3.0, "m-1")
        assert entry.is_success
        assert entry.description == "Success"

    def test_negative_time_rejected(self):
        with pytest.raises(LogFormatError):
            LogEntry.symptom(-1.0, "m", "error:X")

    def test_empty_machine_rejected(self):
        with pytest.raises(LogFormatError):
            LogEntry.symptom(0.0, "", "error:X")

    def test_empty_description_rejected(self):
        with pytest.raises(LogFormatError):
            LogEntry(0.0, "m", EntryKind.SYMPTOM, "")

    def test_success_with_wrong_description_rejected(self):
        with pytest.raises(LogFormatError):
            LogEntry(0.0, "m", EntryKind.SUCCESS, "done")


class TestFieldTypes:
    """Each mistyped field is refused by name, before any writer sees it."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1.0, "m", "symptom", "e"), "kind must be an EntryKind, got str"),
            ((1.0, "m", None, "e"), "kind must be an EntryKind, got NoneType"),
            ((1.0, 5, EntryKind.SYMPTOM, "e"), "machine must be a string, got int"),
            ((1.0, b"m", EntryKind.SYMPTOM, "e"), "machine must be a string, got bytes"),
            ((True, "m", EntryKind.SYMPTOM, "e"), "time must be a number, got bool"),
            (("1.0", "m", EntryKind.SYMPTOM, "e"), "time must be a number, got str"),
            ((None, "m", EntryKind.SYMPTOM, "e"), "time must be a number, got NoneType"),
            ((1.0, "m", EntryKind.ACTION, None), "description must be a string, got NoneType"),
        ],
    )
    def test_mistyped_field_refused(self, fields, message):
        with pytest.raises(LogFormatError, match=message):
            LogEntry(*fields)

    @pytest.mark.parametrize("time", [5, 2**70, np.float64(2.5), -0.0])
    def test_int_and_numpy_times_accepted(self, time):
        entry = LogEntry.symptom(time, "m", "e")
        assert entry.time == time and type(entry.time) is type(time)


class TestOrdering:
    def test_time_order(self):
        early = LogEntry.symptom(1.0, "m", "error:X")
        late = LogEntry.symptom(2.0, "m", "error:X")
        assert early < late

    def test_tie_break_by_machine(self):
        a = LogEntry.symptom(1.0, "m-a", "error:X")
        b = LogEntry.symptom(1.0, "m-b", "error:X")
        assert a < b

    def test_sorting_is_stable_global_order(self):
        entries = [
            LogEntry.success(5.0, "m"),
            LogEntry.symptom(1.0, "m", "error:X"),
            LogEntry.action(3.0, "m", "REBOOT"),
        ]
        times = [e.time for e in sorted(entries)]
        assert times == [1.0, 3.0, 5.0]

    def test_kinds_order_by_rank(self):
        assert EntryKind.SYMPTOM < EntryKind.ACTION < EntryKind.SUCCESS
        assert EntryKind.SUCCESS >= EntryKind.ACTION >= EntryKind.ACTION
        with pytest.raises(TypeError):
            EntryKind.SYMPTOM < "action"


class TestRender:
    def test_render_wallclock_format(self):
        entry = LogEntry.action(3 * 3600 + 7 * 60 + 12, "m-1", "TRYNOP")
        assert entry.render() == "3:07:12 am\tTRYNOP"


#: Few values per field, so same-instant ties are common: one time and
#: machine with different kinds, one kind with different descriptions,
#: and -0.0 beside 0.0.
_TIE_TIMES = st.sampled_from([0.0, -0.0, 1.0, 2.5])
_TIE_MACHINES = st.sampled_from(["m1", "m10", "m2"])
_TIE_TEXTS = st.sampled_from(["REBOOT", "TRYNOP", "error:A", "error:B"])


@st.composite
def tied_entries(draw):
    kind = draw(st.sampled_from(list(EntryKind)))
    if kind is EntryKind.SUCCESS:
        description = SUCCESS_DESCRIPTION
    else:
        description = draw(_TIE_TEXTS)
    return LogEntry(draw(_TIE_TIMES), draw(_TIE_MACHINES), kind, description)


def _old_order_key(entry):
    """The former explicit key: (time, machine, kind rank, description)."""
    rank = {EntryKind.SYMPTOM: 0, EntryKind.ACTION: 1, EntryKind.SUCCESS: 2}
    return (entry.time, entry.machine, rank[entry.kind], entry.description)


class TestRowProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(tied_entries(), max_size=30))
    def test_row_keeps_order_hash_repr_and_copies(self, entries):
        # repr tells -0.0 from 0.0, so both stable sorts must also agree
        # on where equal rows land.
        assert [repr(e) for e in sorted(entries)] == [
            repr(e) for e in sorted(entries, key=_old_order_key)
        ]
        for entry in entries:
            fields = (entry.time, entry.machine, entry.kind, entry.description)
            assert hash(entry) == hash(fields)
            assert repr(entry) == (
                f"LogEntry(time={entry.time!r}, machine={entry.machine!r}, "
                f"kind={entry.kind!r}, description={entry.description!r})"
            )
            for twin in (
                pickle.loads(pickle.dumps(entry)),
                copy.deepcopy(entry),
                entry._replace(),
                entry._replace(description=entry.description),
            ):
                assert type(twin) is LogEntry
                assert repr(twin) == repr(entry)
            with pytest.raises(LogFormatError, match="finite"):
                entry._replace(time=-1.0)
            with pytest.raises(LogFormatError, match="non-empty"):
                entry._replace(machine="")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_checks_the_row(self, protocol):
        entry = LogEntry.symptom(5.5, "m", "error:X")
        payload = pickle.dumps(entry, protocol=protocol)
        if protocol == 0:
            forged = payload.replace(b"F5.5\n", b"F-5.5\n")
        else:
            forged = payload.replace(struct.pack(">d", 5.5), struct.pack(">d", -5.5))
        assert forged != payload
        with pytest.raises(LogFormatError, match="got -5.5"):
            pickle.loads(forged)

    def test_row_equals_plain_tuple(self):
        entry = LogEntry.action(2.0, "m", "REBOOT")
        assert entry == (2.0, "m", EntryKind.ACTION, "REBOOT")


class TestFromColumns:
    NAMES = ("m0", "m1")
    TEXTS = ("error:X", "REBOOT", SUCCESS_DESCRIPTION)

    def columns(self, **changes):
        columns = {
            "times": np.array([1.0, 2.0, 3.0]),
            "machines": np.array([1, 1, 0]),
            "kinds": np.array([0, 1, 2], dtype=np.int8),
            "descriptions": np.array([0, 1, 2]),
        }
        columns.update(changes)
        return columns

    def build(self, **changes):
        return LogEntry.from_columns(
            **self.columns(**changes),
            machine_names=self.NAMES,
            description_names=self.TEXTS,
        )

    def test_rows_equal_single_row_construction(self):
        rows = self.build()
        assert rows == [
            LogEntry.symptom(1.0, "m1", "error:X"),
            LogEntry.action(2.0, "m1", "REBOOT"),
            LogEntry.success(3.0, "m0"),
        ]
        assert all(type(row) is LogEntry for row in rows)
        assert rows[0].machine is self.NAMES[1]

    def test_empty_columns(self):
        empty = np.array([], dtype=np.int64)
        assert self.build(
            times=np.array([]), machines=empty, kinds=empty, descriptions=empty
        ) == []

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"times": np.array([1.0, 2.0, 3.0])[:2]}, "equal lengths"),
            ({"times": np.array([True, True, True])}, "times must be numbers"),
            ({"machines": np.array([0, 2, 0])}, r"machine ids must lie in \[0, 2\)"),
            ({"machines": np.array([0.0, 1.0, 0.0])}, "machine ids must be integers"),
            ({"kinds": np.array([0, 3, 2])}, r"kind ids must lie in \[0, 3\)"),
            ({"descriptions": np.array([-1, 1, 2])}, "description ids must lie"),
        ],
    )
    def test_malformed_columns_refused(self, changes, message):
        with pytest.raises(LogFormatError, match=message):
            self.build(**changes)

    @pytest.mark.parametrize(
        "field, bad", [("machine", ""), ("machine", 5), ("description", None)]
    )
    def test_vocabulary_checked_like_single_rows(self, field, bad):
        names, texts = self.NAMES, self.TEXTS
        with pytest.raises(LogFormatError) as single:
            if field == "machine":
                names += (bad,)
                LogEntry.symptom(1.0, bad, "error:X")
            else:
                texts += (bad,)
                LogEntry.symptom(1.0, "m", bad)
        with pytest.raises(LogFormatError) as batch:
            LogEntry.from_columns(
                **self.columns(), machine_names=names, description_names=texts
            )
        assert str(batch.value) == str(single.value)

    def test_success_row_checked_like_single_rows(self):
        with pytest.raises(LogFormatError) as single:
            LogEntry(3.0, "m0", EntryKind.SUCCESS, "REBOOT")
        with pytest.raises(LogFormatError) as batch:
            self.build(descriptions=np.array([0, 1, 1]))
        assert str(batch.value) == str(single.value)
