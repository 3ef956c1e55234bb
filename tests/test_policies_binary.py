"""Tests for the versioned binary policy container (zero-copy serving).

The load-bearing property: a binary round trip must be *decision
equivalent* to the JSON reference — same action, same expected cost,
and the same ``UnhandledStateError`` on every state the trained table
does not cover.  A hypothesis property drives that over arbitrary rule
tables; the unit tests cover the container plumbing (magic, version,
corruption, alignment, mmap).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.actions import default_catalog
from repro.errors import ConfigurationError, LogFormatError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch
from repro.policies.binary import (
    ArrayTrainedPolicy,
    load_policy_binary,
    save_policy_binary,
)
from repro.policies.hybrid import HybridPolicy
from repro.policies.serialization import load_policy, save_policy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.serving import DecisionServer

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)
ACTIONS = ["TRYNOP", "REBOOT", "REIMAGE", "RMA"]


@pytest.fixture
def policy():
    return TrainedPolicy(
        {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)},
        label="night-shift",
    )


class TestBinaryRoundTrip:
    def test_round_trip_preserves_rules(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        count = save_policy_binary(policy, path)
        assert count == 2
        loaded = load_policy_binary(path)
        assert isinstance(loaded, ArrayTrainedPolicy)
        assert len(loaded) == 2
        assert loaded.to_trained().rules == policy.rules
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
        assert mapped.to_trained().rules == eager.to_trained().rules

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

    def test_corrupt_payload_fails_verification(self, tmp_path, policy):
        path = tmp_path / "policy.rpb"
        save_policy_binary(policy, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a bit inside the cost array
        path.write_bytes(bytes(blob))
        with pytest.raises(LogFormatError, match="checksum"):
            load_policy_binary(path, verify=True)

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
    return TrainedPolicy(rules, label="prop")


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


def _same_outcome(got, want):
    """Row ``got`` of a batch equals what per-state ``decide`` gave."""
    if isinstance(want, UnhandledStateError):
        assert isinstance(got, UnhandledStateError)
        assert str(got) == str(want)
        assert got.state == want.state
        return
    assert got == want
    # Bit-identical costs, and "no estimate" never turned into a float.
    assert (got.expected_cost is None) == (want.expected_cost is None)
    if want.expected_cost is not None:
        assert (
            np.float64(got.expected_cost).tobytes()
            == np.float64(want.expected_cost).tobytes()
        )


def _decide_each(policy, states):
    outcomes = []
    for state in states:
        try:
            outcomes.append(policy.decide(state))
        except UnhandledStateError as exc:
            outcomes.append(exc)
    return outcomes


class TestBinaryJsonEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        table=_rule_tables(),
        probes=st.lists(_columnar_probes(), max_size=12),
        picks=st.lists(st.integers(min_value=0), max_size=24),
    )
    def test_columnar_answer_equals_per_state_decide(
        self, tmp_path_factory, table, probes, picks
    ):
        tmp = tmp_path_factory.mktemp("columnar")
        bin_path = tmp / "p.rpb"
        save_policy_binary(table, bin_path)
        pool = list(table.rules) + probes
        # Batches repeat and reorder states; an empty pool gives [].
        states = [pool[i % len(pool)] for i in picks] if pool else []
        catalog = default_catalog()

        def primaries():
            return [table, load_policy_binary(bin_path)]

        for primary in primaries():
            batch = primary.decide_batch(states)
            assert isinstance(batch, DecisionBatch)
            assert len(batch) == len(states)
            want = _decide_each(primary, states)
            for row, outcome in enumerate(batch):
                _same_outcome(outcome, want[row])
                _same_outcome(batch[row], want[row])
            assert len(primary.decide_batch([])) == 0

        for batched_primary, scalar_primary in zip(primaries(), primaries()):
            batched = HybridPolicy(batched_primary, UserDefinedPolicy(catalog))
            scalar = HybridPolicy(scalar_primary, UserDefinedPolicy(catalog))
            batch = batched.decide_batch(states)
            for outcome, want in zip(batch, _decide_each(scalar, states)):
                _same_outcome(outcome, want)
            assert batched.fallback_rate == scalar.fallback_rate
            assert len(batched.decide_batch([])) == 0

        for batched_primary, scalar_primary in zip(primaries(), primaries()):
            batched = DecisionServer(batched_primary, UserDefinedPolicy(catalog))
            scalar = DecisionServer(scalar_primary, UserDefinedPolicy(catalog))
            served = batched.decide_batch(states)
            assert len(served) == len(states)
            want = [scalar.decide(state) for state in states]
            assert list(served) == want
            assert [served[row] for row in range(len(states))] == want
            assert len(batched.decide_batch([])) == 0
            assert batched.decision_count == scalar.decision_count
            assert batched.fallback_count == scalar.fallback_count
            assert (
                batched.decisions_by_version() == scalar.decisions_by_version()
            )
            assert batched.error_type_stats() == scalar.error_type_stats()

    @settings(max_examples=60, deadline=None)
    @given(
        table=_rule_tables(),
        probes=st.lists(_probe_states(), max_size=20),
    )
    def test_same_decision_on_every_state(self, tmp_path_factory, table, probes):
        tmp = tmp_path_factory.mktemp("binprop")
        json_path = tmp / "p.json"
        bin_path = tmp / "p.rpb"
        save_policy(table, json_path)
        save_policy_binary(table, bin_path)
        reference = load_policy(json_path)
        binary = load_policy_binary(bin_path)

        # Every trained rule, plus arbitrary probes (known and unknown).
        for state in list(table.rules) + probes:
            try:
                expected = reference.decide(state)
            except UnhandledStateError:
                with pytest.raises(UnhandledStateError):
                    binary.decide(state)
                continue
            got = binary.decide(state)
            assert got.action == expected.action
            assert got.expected_cost == expected.expected_cost

    @settings(max_examples=30, deadline=None)
    @given(table=_rule_tables(), probes=st.lists(_probe_states(), max_size=16))
    def test_batch_agrees_with_scalar(self, tmp_path_factory, table, probes):
        tmp = tmp_path_factory.mktemp("binbatch")
        bin_path = tmp / "p.rpb"
        save_policy_binary(table, bin_path)
        binary = load_policy_binary(bin_path)
        states = list(table.rules) + probes
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
    @given(table=_rule_tables())
    def test_round_trip_rules_exact(self, tmp_path_factory, table):
        tmp = tmp_path_factory.mktemp("binrt")
        bin_path = tmp / "p.rpb"
        save_policy_binary(table, bin_path)
        loaded = load_policy_binary(bin_path)
        assert loaded.to_trained().rules == table.rules


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
