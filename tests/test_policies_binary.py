"""Tests for the versioned binary policy container (zero-copy serving).

The load-bearing property: the packed :class:`TrainedPolicy` — built in
memory, loaded from JSON or memory-mapped from a binary container — must
be *decision equivalent* to the dict-keyed reference table
(``reference_policy.py``): same action, bit-identical expected cost, and
the same ``UnhandledStateError`` on every state the table does not
cover.  Hypothesis properties drive that over arbitrary rule tables;
the unit tests cover the container plumbing (magic, version, header
checks, corruption, alignment, mmap).
"""

import json
import re
import zlib
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_policy import ReferenceTrainedPolicy
from repro.actions import default_catalog
from repro.errors import ConfigurationError, LogFormatError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch
from repro.policies.binary import load_policy_binary, save_policy_binary
from repro.policies.hybrid import HybridPolicy
from repro.policies.serialization import load_policy, save_policy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.serving import DecisionServer

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)
ACTIONS = ["TRYNOP", "REBOOT", "REIMAGE", "RMA"]
RULES = {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)}


@pytest.fixture
def policy():
    return TrainedPolicy(RULES, label="night-shift")


class TestBinaryRoundTrip:
    def test_round_trip_preserves_rules(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        count = save_policy_binary(policy, path)
        assert count == 2
        loaded = load_policy_binary(path)
        assert isinstance(loaded, TrainedPolicy)
        assert len(loaded) == 2
        assert loaded.rules == policy.rules == RULES
        assert loaded.name == "night-shift"

    def test_decisions_match_original(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        for state in (S0, S1):
            ours = loaded.decide(state)
            reference = policy.decide(state)
            assert ours.action == reference.action
            assert ours.expected_cost == reference.expected_cost

    def test_unknown_state_raises_like_trained(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        stranger = RecoveryState.initial("error:Y")
        with pytest.raises(UnhandledStateError, match="no trained rule"):
            loaded.decide(stranger)

    def test_terminal_state_rejected(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        with pytest.raises(ConfigurationError, match="terminal"):
            loaded.decide(S0.after("REIMAGE", True))

    def test_mmap_and_eager_agree(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        mapped = load_policy_binary(path, mmap=True)
        eager = load_policy_binary(path, mmap=False)
        assert mapped.rules == eager.rules == RULES

    def test_verify_checksum_accepts_good_file(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path, verify=True)
        assert len(loaded) == 2

    def test_empty_policy_round_trips(self, tmp_path):
        path = tmp_path / "empty.rpb"
        save_policy_binary(TrainedPolicy({}), path)
        loaded = load_policy_binary(path)
        assert len(loaded) == 0
        with pytest.raises(UnhandledStateError):
            loaded.decide(S0)


class TestContainerFormat:
    def test_magic_leads_the_file(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        assert path.read_bytes()[:8] == b"RPROPOLB"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rpb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(LogFormatError, match="magic"):
            load_policy_binary(path)

    def test_truncated_file_rejected(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        truncated = tmp_path / "trunc.rpb"
        truncated.write_bytes(path.read_bytes()[:40])
        with pytest.raises(LogFormatError):
            load_policy_binary(truncated)

    @settings(max_examples=200, deadline=None)
    @given(flip=st.booleans(), data=st.data())
    def test_corrupt_prefix_or_truncation_is_a_format_error(self, flip, data):
        # No corrupt length may reach ``read``: 2**63 bytes is a MemoryError.
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.rpb"
            save_policy_binary(TrainedPolicy(RULES), path)
            blob = bytearray(path.read_bytes())
            if flip:
                bit = data.draw(st.integers(0, 20 * 8 - 1), label="bit")
                blob[bit // 8] ^= 1 << (bit % 8)
            else:
                end = data.draw(st.integers(0, len(blob) - 1), label="end")
                del blob[end:]
            path.write_bytes(bytes(blob))
            for mmap in (True, False):
                with pytest.raises(LogFormatError) as info:
                    load_policy_binary(path, mmap=mmap)
                assert str(info.value).startswith(f"{path}: ")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corrupt_payload_fails_verification(self, data):
        """One bit flipped past the header JSON, or inside ``data_crc32``.

        ``verify=True`` refuses the container with a path-prefixed
        ``LogFormatError``, or loads the original rules.  Only a flip in
        the alignment padding between the header and the data section
        may load: no reader reads it and no checksum covers it.  Flips
        elsewhere in the header JSON need a header checksum, which
        container version 1 does not have.
        """
        policy = TrainedPolicy(
            data.draw(_rule_tables(), label="rules"), label="night-shift"
        )
        with TemporaryDirectory() as tmp:
            path = Path(tmp) / "policy.rpb"
            save_policy_binary(policy, path)
            blob = bytearray(path.read_bytes())
            header_end = 20 + int.from_bytes(blob[12:20], "little")
            data_origin = -(-header_end // 64) * 64
            crc = str(json.loads(bytes(blob[20:header_end]))["data_crc32"])
            key = b'"data_crc32": '
            field = blob.index(key) + len(key)
            offsets = st.integers(field, field + len(crc) - 1)
            if header_end < len(blob):  # an empty table may end there
                offsets = st.integers(header_end, len(blob) - 1) | offsets
            offset = data.draw(offsets, label="offset")
            blob[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            path.write_bytes(bytes(blob))
            for mmap in (True, False):
                try:
                    loaded = load_policy_binary(path, mmap=mmap, verify=True)
                except LogFormatError as exc:
                    assert str(exc).startswith(f"{path}: ")
                else:
                    assert header_end <= offset < data_origin
                    assert loaded.rules == policy.rules

    def test_arrays_are_aligned(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        header = json.loads(
            path.read_bytes()[20 : 20 + int.from_bytes(
                path.read_bytes()[12:20], "little"
            )].decode("utf-8")
        )
        for spec in header["arrays"].values():
            assert spec["offset"] % 64 == 0
        assert len(loaded) == 2

    def test_source_path_recorded(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        assert loaded.source_path == path


def _rewrite(path, header_edit=None, data_edit=None):
    """Rewrite a container's header or data section in place.

    ``header_edit(header)`` returns the new header value;
    ``data_edit(header, data)`` edits the data section's bytearray, and
    the stored CRC-32 is then recomputed, so only the edit is wrong.
    """
    blob = path.read_bytes()
    size = int.from_bytes(blob[12:20], "little")
    header = json.loads(blob[20 : 20 + size])
    data = bytearray(blob[-(-(20 + size) // 64) * 64 :])
    if data_edit is not None:
        data_edit(header, data)
        header["data_crc32"] = zlib.crc32(bytes(data))
    if header_edit is not None:
        header = header_edit(header)
    raw = json.dumps(header).encode("utf-8")
    prefix = blob[:12] + len(raw).to_bytes(8, "little") + raw
    path.write_bytes(prefix + b"\x00" * (-len(prefix) % 64) + bytes(data))


class TestHeaderChecks:
    """Every load checks the header; ``verify=True`` also checks rows."""

    @pytest.fixture
    def path(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        return path

    def _rejects(self, path, match, verify=False):
        pattern = f"^{re.escape(str(path))}: .*{match}"
        with pytest.raises(LogFormatError, match=pattern):
            load_policy_binary(path, verify=verify)

    def test_rewritten_container_still_loads(self, path):
        _rewrite(path, header_edit=lambda header: header)
        assert load_policy_binary(path, verify=True).rules == RULES

    def test_non_object_header_rejected(self, path):
        _rewrite(path, header_edit=lambda header: [header])
        self._rejects(path, "header must be an object, got list")

    @pytest.mark.parametrize(
        "column, field, value",
        [
            ("costs", "shape", [1]),
            ("keys", "dtype", "<i8"),
            ("actions", "dtype", ">u4"),
            ("costs", "dtype", "<f4"),
        ],
        ids=["short-costs", "signed-keys", "big-endian-actions", "float32-costs"],
    )
    def test_column_spec_mismatch_rejected(self, path, column, field, value):
        def edit(header):
            header["arrays"][column][field] = value
            return header

        _rewrite(path, header_edit=edit)
        spec = {"keys": "<u8", "actions": "<u4", "costs": "<f8"}[column]
        self._rejects(path, f"'{column}' must be {spec} of shape \\[2\\]")

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
    def test_rule_count_past_the_end_rejected(self, path, mmap):
        def edit(header):
            header["rule_count"] = 2**62
            for spec in header["arrays"].values():
                spec["shape"] = [2**62]
            return header

        _rewrite(path, header_edit=edit)
        with pytest.raises(LogFormatError, match="runs past the end"):
            load_policy_binary(path, mmap=mmap)

    def test_negative_max_history_rejected(self, path):
        _rewrite(path, header_edit=lambda h: {**h, "max_history": -1})
        self._rejects(path, "max_history must be >= 0")

    @pytest.mark.parametrize(
        "history_actions, max_history",
        [([f"ACTION-{i}" for i in range(30)], 30), (["REIMAGE"], 10**6)],
        ids=["wide", "deep"],
    )
    def test_key_space_wider_than_64_bits_rejected(
        self, path, history_actions, max_history
    ):
        _rewrite(
            path,
            header_edit=lambda h: {
                **h,
                "history_actions": history_actions,
                "max_history": max_history,
            },
        )
        self._rejects(path, "overflows uint64")

    def test_keys_out_of_order_rejected_on_verify(self, path):
        def swap_keys(header, data):
            start = header["arrays"]["keys"]["offset"]
            first, second = data[start : start + 8], data[start + 8 : start + 16]
            data[start : start + 16] = second + first

        _rewrite(path, data_edit=swap_keys)
        # A plain load reads no data page, so only verify can see it.
        assert len(load_policy_binary(path)) == 2
        self._rejects(path, "do not strictly increase", verify=True)

    def test_short_action_vocabulary_rejected_on_verify(self, path):
        # Without the check the REIMAGE rule would answer RMA.
        _rewrite(path, header_edit=lambda h: {**h, "decided_actions": ["RMA"]})
        self._rejects(path, "action id 1 outside the 1 decided", verify=True)

    def test_key_outside_error_types_rejected_on_verify(self, tmp_path):
        path = tmp_path / "two-types.rpb"
        rules = {S0: ("REBOOT", 1.0), RecoveryState.initial("error:Y"): ("RMA", 2.0)}
        save_policy_binary(TrainedPolicy(rules), path)
        _rewrite(path, header_edit=lambda h: {**h, "error_types": ["error:X"]})
        self._rejects(path, "outside the key space of 1 error types", verify=True)


# ---------------------------------------------------------------------------
# Hypothesis: binary and JSON serve identical decisions, state for state
# ---------------------------------------------------------------------------

_ERROR_TYPES = st.sampled_from(
    ["error:A", "error:B", "error:Watchdog", "error:Disk-Full"]
)
_HISTORIES = st.lists(st.sampled_from(ACTIONS), min_size=0, max_size=5)
_COSTS = st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
)


def _state(error_type, history):
    state = RecoveryState.initial(error_type)
    for action in history:
        state = state.after(action, False)
    return state


@st.composite
def _rule_tables(draw):
    """A rule dict ``{state: (action, expected cost)}``."""
    entries = draw(
        st.lists(
            st.tuples(
                _ERROR_TYPES,
                _HISTORIES,
                st.sampled_from(ACTIONS),
                _COSTS,
            ),
            min_size=0,
            max_size=30,
        )
    )
    rules = {}
    for error_type, history, action, cost in entries:
        rules[_state(error_type, history)] = (action, cost)
    return rules


@st.composite
def _probe_states(draw):
    error_type = draw(
        st.one_of(_ERROR_TYPES, st.just("error:never-trained"))
    )
    history = draw(st.lists(st.sampled_from(ACTIONS), max_size=7))
    return _state(error_type, history)


@st.composite
def _columnar_probes(draw):
    """Probe states: unknown types, unknown actions, over-long histories."""
    error_type = draw(
        st.one_of(_ERROR_TYPES, st.just("error:never-trained"))
    )
    history = draw(
        st.lists(st.sampled_from(ACTIONS + ["COFFEE"]), max_size=9)
    )
    return _state(error_type, history)


def _same_cost(got, want):
    """Equal expected costs: both absent, or bit-identical floats."""
    assert (got is None) == (want is None)
    if want is not None:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _same_outcome(got, want):
    """Row ``got`` of a batch equals what per-state ``decide`` gave."""
    if isinstance(want, UnhandledStateError):
        assert isinstance(got, UnhandledStateError)
        assert str(got) == str(want)
        assert got.state == want.state
        return
    assert got == want
    # Bit-identical costs, and "no estimate" never turned into a float.
    _same_cost(got.expected_cost, want.expected_cost)


def _decide_each(policy, states):
    outcomes = []
    for state in states:
        try:
            outcomes.append(policy.decide(state))
        except UnhandledStateError as exc:
            outcomes.append(exc)
    return outcomes


def _packed_copies(rules, tmp):
    """The packed table built in memory, loaded from JSON, and mapped."""
    table = TrainedPolicy(rules, label="prop")
    save_policy(table, tmp / "p.json")
    save_policy_binary(table, tmp / "p.rpb")
    return [table, load_policy(tmp / "p.json"), load_policy_binary(tmp / "p.rpb")]


class TestBinaryJsonEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        rules=_rule_tables(),
        probes=st.lists(_columnar_probes(), max_size=12),
        picks=st.lists(st.integers(min_value=0), max_size=24),
    )
    def test_columnar_answer_equals_per_state_decide(
        self, tmp_path_factory, rules, probes, picks
    ):
        tmp = tmp_path_factory.mktemp("columnar")
        reference = ReferenceTrainedPolicy(rules, label="prop")
        pool = list(rules) + probes
        # Batches repeat and reorder states; an empty pool gives [].
        states = [pool[i % len(pool)] for i in picks] if pool else []
        want = _decide_each(reference, states)
        catalog = default_catalog()

        for primary in _packed_copies(rules, tmp):
            batch = primary.decide_batch(states)
            assert isinstance(batch, DecisionBatch)
            assert len(batch) == len(states)
            for row, outcome in enumerate(batch):
                _same_outcome(outcome, want[row])
                _same_outcome(batch[row], want[row])
            for outcome, expected in zip(_decide_each(primary, states), want):
                _same_outcome(outcome, expected)
            assert len(primary.decide_batch([])) == 0

            batched = HybridPolicy(primary, UserDefinedPolicy(catalog))
            scalar = HybridPolicy(reference, UserDefinedPolicy(catalog))
            batch = batched.decide_batch(states)
            for outcome, expected in zip(batch, _decide_each(scalar, states)):
                _same_outcome(outcome, expected)
            assert batched.fallback_rate == scalar.fallback_rate
            assert len(batched.decide_batch([])) == 0

            batched = DecisionServer(primary, UserDefinedPolicy(catalog))
            scalar = DecisionServer(reference, UserDefinedPolicy(catalog))
            served = batched.decide_batch(states)
            assert len(served) == len(states)
            expected = [scalar.decide(state) for state in states]
            assert list(served) == expected
            assert [served[row] for row in range(len(states))] == expected
            assert len(batched.decide_batch([])) == 0
            assert batched.decision_count == scalar.decision_count
            assert batched.fallback_count == scalar.fallback_count
            assert (
                batched.decisions_by_version() == scalar.decisions_by_version()
            )
            assert batched.error_type_stats() == scalar.error_type_stats()

    @settings(max_examples=60, deadline=None)
    @given(
        rules=_rule_tables(),
        probes=st.lists(_probe_states(), max_size=20),
    )
    def test_same_decision_on_every_state(self, tmp_path_factory, rules, probes):
        tmp = tmp_path_factory.mktemp("binprop")
        reference = ReferenceTrainedPolicy(rules, label="prop")
        # Every trained rule, plus arbitrary probes (known and unknown).
        states = list(rules) + probes
        want = _decide_each(reference, states)
        for copy in _packed_copies(rules, tmp):
            assert len(copy) == len(reference)
            assert copy.error_types() == reference.error_types()
            for outcome, expected in zip(_decide_each(copy, states), want):
                _same_outcome(outcome, expected)
            for state in states:
                assert copy.handles(state) == reference.handles(state)
                _same_cost(
                    copy.expected_cost(state), reference.expected_cost(state)
                )

    @settings(max_examples=30, deadline=None)
    @given(rules=_rule_tables(), probes=st.lists(_probe_states(), max_size=16))
    def test_batch_agrees_with_scalar(self, tmp_path_factory, rules, probes):
        tmp = tmp_path_factory.mktemp("binbatch")
        bin_path = tmp / "p.rpb"
        save_policy_binary(TrainedPolicy(rules), bin_path)
        binary = load_policy_binary(bin_path)
        states = list(rules) + probes
        batched = binary.decide_batch(states)
        assert len(batched) == len(states)
        for state, outcome in zip(states, batched):
            try:
                scalar = binary.decide(state)
            except UnhandledStateError:
                assert isinstance(outcome, UnhandledStateError)
                continue
            assert not isinstance(outcome, UnhandledStateError)
            assert outcome.action == scalar.action
            assert outcome.expected_cost == scalar.expected_cost

    @settings(max_examples=30, deadline=None)
    @given(rules=_rule_tables())
    def test_round_trip_rules_exact(self, tmp_path_factory, rules):
        tmp = tmp_path_factory.mktemp("binrt")
        for copy in _packed_copies(rules, tmp):
            decoded = copy.rules
            assert decoded == rules
            # Decoded in key order, the order storms sample rows in.
            assert list(decoded) == [copy.state_at(i) for i in range(len(copy))]
            for state, (_action, cost) in rules.items():
                _same_cost(decoded[state][1], cost)


class TestArrayPolicyExtras:
    def test_state_at_decodes_every_row(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        decoded = {loaded.state_at(i) for i in range(len(loaded))}
        assert decoded == set(policy.rules)

    def test_error_types_sorted(self, tmp_path):
        rules = {
            RecoveryState.initial("error:Z"): ("REBOOT", 1.0),
            RecoveryState.initial("error:A"): ("TRYNOP", 2.0),
        }
        path = tmp_path / "p.rpb"
        save_policy_binary(TrainedPolicy(rules), path)
        loaded = load_policy_binary(path)
        assert loaded.error_types() == ("error:A", "error:Z")

    def test_handles_and_expected_cost(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        loaded = load_policy_binary(path)
        assert loaded.handles(S0)
        assert not loaded.handles(RecoveryState.initial("error:Y"))
        assert loaded.expected_cost(S0) == pytest.approx(7200.0)
        assert loaded.expected_cost(RecoveryState.initial("error:Y")) is None

    def test_costs_preserved_bit_exact(self, tmp_path):
        # float64 payloads must survive exactly, not via repr rounding.
        cost = 0.1 + 0.2  # famously not 0.3
        rules = {S0: ("REBOOT", cost)}
        path = tmp_path / "p.rpb"
        save_policy_binary(TrainedPolicy(rules), path)
        loaded = load_policy_binary(path)
        assert loaded.expected_cost(S0) == cost
        assert np.float64(loaded.expected_cost(S0)) == np.float64(cost)
