"""Tests for the decision server: lookups, fallback routing, hot reload.

The race test at the bottom is the one the design stands on: concurrent
readers hammering ``decide_batch`` while a writer publishes new policy
generations must never observe a torn table — every batch is answered
entirely by one generation.
"""

import threading

import pytest

from repro.actions import default_catalog
from repro.core.online import RollingRetrainer
from repro.errors import ConfigurationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import DecisionBatch, Policy
from repro.policies.binary import load_policy_binary, save_policy_binary
from repro.policies.static import AlwaysStrongestPolicy
from repro.policies.trained import TrainedPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.serving import (
    DecisionServer,
    PolicyVersion,
    ServedBatch,
    ServedDecision,
)

S0 = RecoveryState.initial("error:X")
S1 = S0.after("REIMAGE", False)
UNKNOWN = RecoveryState.initial("error:never-seen")


@pytest.fixture
def trained():
    return TrainedPolicy(
        {S0: ("REIMAGE", 7200.0), S1: ("RMA", 172800.0)},
        label="t1",
    )


@pytest.fixture
def server(trained):
    return DecisionServer(trained, UserDefinedPolicy(default_catalog()))


class TestDecide:
    def test_hit_uses_primary(self, server):
        decision = server.decide(S0)
        assert decision.action == "REIMAGE"
        assert decision.source == "serving:t1"
        assert decision.expected_cost == pytest.approx(7200.0)
        assert decision.version == 1
        assert not decision.fell_back

    def test_unknown_state_falls_back(self, server):
        decision = server.decide(UNKNOWN)
        assert decision.fell_back
        assert decision.source.startswith("serving:")
        # The user-defined ladder starts from the weakest action.
        assert decision.action == "TRYNOP"

    def test_terminal_state_rejected(self, server):
        with pytest.raises(ConfigurationError, match="terminal"):
            server.decide(S0.after("REIMAGE", True))

    def test_stats_accumulate(self, server):
        server.decide(S0)
        server.decide(UNKNOWN)
        server.decide(UNKNOWN)
        assert server.decision_count == 3
        assert server.fallback_count == 2
        assert server.fallback_rate == pytest.approx(2 / 3)
        assert server.decisions_by_version() == {1: 3}

    def test_default_fallback_is_user_defined(self, trained):
        plain = DecisionServer(trained)
        assert plain.decide(UNKNOWN).action == "TRYNOP"


class TestDecideBatch:
    def test_batch_mixes_hits_and_fallbacks(self, server):
        decisions = server.decide_batch([S0, UNKNOWN, S1])
        assert [d.action for d in decisions] == ["REIMAGE", "TRYNOP", "RMA"]
        assert [d.fell_back for d in decisions] == [False, True, False]
        assert {d.version for d in decisions} == {1}

    def test_batch_matches_scalar(self, server):
        states = [S0, S1, UNKNOWN, S0]
        batched = server.decide_batch(states)
        for state, from_batch in zip(states, batched):
            scalar = server.decide(state)
            assert from_batch.action == scalar.action
            assert from_batch.expected_cost == scalar.expected_cost
            assert from_batch.fell_back == scalar.fell_back

    def test_empty_batch(self, server):
        assert server.decide_batch([]) == []
        assert server.decision_count == 0
        # An empty batch is a no-op on every counter: no phantom
        # generation, no batch, no per-type entry.
        assert server.decisions_by_version() == {}
        assert server.batch_count == 0
        assert server.fallback_count == 0
        assert server.error_type_stats() == {}
        server.decide_batch([S0])
        assert server.batch_count == 1
        assert server.decisions_by_version() == {1: 1}

    def test_answer_is_columnar(self, server):
        answer = server.decide_batch([S0, UNKNOWN, S1])
        assert isinstance(answer, ServedBatch)
        assert answer.version == 1
        assert answer.fell_back.tolist() == [False, True, False]
        assert isinstance(answer.decisions, DecisionBatch)
        assert answer.decisions.hit.all()
        rows = list(answer)
        assert answer[-1] == rows[2]
        assert answer[1:] == rows[1:]
        assert answer[::-1] == rows[::-1]
        assert answer == rows
        assert answer.decisions[-3:] == list(answer.decisions)
        for batch in (answer, answer.decisions):
            with pytest.raises(IndexError):
                batch[3]
            with pytest.raises(IndexError):
                batch[-4]
            with pytest.raises(TypeError):
                hash(batch)

    def test_works_with_array_policy(self, tmp_path, trained):
        path = tmp_path / "p.rpb"
        save_policy_binary(trained, path)
        array_server = DecisionServer(
            load_policy_binary(path), UserDefinedPolicy(default_catalog())
        )
        decisions = array_server.decide_batch([S0, UNKNOWN, S1])
        assert [d.action for d in decisions] == ["REIMAGE", "TRYNOP", "RMA"]


#: A hit, a known-type miss, an unknown type, a second hit, a known-type
#: miss with a longer history and the unknown type again.
MIXED = [
    S0,
    S0.after("REBOOT", False),
    UNKNOWN,
    S1,
    S1.after("REBOOT", False),
    UNKNOWN.after("TRYNOP", False),
]


class TestServedRows:
    """Iterated, indexed and per-state answers are the same rows."""

    def _check(self, served, twin, states):
        answer = served.decide_batch(states)
        rows = list(answer)
        assert rows == [answer[row] for row in range(len(states))]
        assert rows == [twin.decide(state) for state in states]
        assert {row.version for row in rows} == {served.version}
        assert [row.fell_back for row in rows] == answer.fell_back.tolist()
        for row in rows:
            assert row.fell_back == (row.expected_cost is None)
        return rows

    def test_mixed_batch(self, trained):
        served = DecisionServer(trained, UserDefinedPolicy(default_catalog()))
        twin = DecisionServer(trained, UserDefinedPolicy(default_catalog()))
        rows = self._check(served, twin, MIXED)
        assert [row.fell_back for row in rows] == [
            False, True, True, False, True, True,
        ]

    def test_mixed_batch_after_publish(self, trained):
        served = DecisionServer(trained, UserDefinedPolicy(default_catalog()))
        twin = DecisionServer(trained, UserDefinedPolicy(default_catalog()))
        replacement = TrainedPolicy(
            {S0: ("REBOOT", 60.0), UNKNOWN: ("TRYNOP", 5.0)}, label="t2"
        )
        for server in (served, twin):
            server.publish(replacement)
        rows = self._check(served, twin, MIXED)
        assert {row.version for row in rows} == {2}
        assert [row.source for row in rows[:3]] == [
            "serving:t2", "serving:user-defined", "serving:t2",
        ]


class _CountingFallback(UserDefinedPolicy):
    """The ladder, recording the states of every ``decide_batch`` call."""

    def __init__(self):
        super().__init__(default_catalog())
        self.batches = []

    def decide_batch(self, states):
        self.batches.append(list(states))
        return super().decide_batch(states)


class TestWithFallback:
    def test_one_fallback_call_per_batch_with_misses(self, trained):
        fallback = _CountingFallback()
        server = DecisionServer(trained, fallback)
        server.decide_batch(MIXED)
        server.decide_batch([S0, S1, S0])
        server.decide_batch([UNKNOWN, S0])
        assert fallback.batches == [
            [MIXED[1], MIXED[2], MIXED[4], MIXED[5]],
            [UNKNOWN],
        ]

    def test_hybrid_sends_its_misses_in_one_call(self, trained):
        fallback = _CountingFallback()
        answer = trained.decide_batch(MIXED).with_fallback(MIXED, fallback)
        assert fallback.batches == [[MIXED[1], MIXED[2], MIXED[4], MIXED[5]]]
        assert answer.hit.all()
        assert list(answer) == [
            trained.decide(state) if hit else fallback.decide(state)
            for state, hit in zip(MIXED, [1, 0, 0, 1, 0, 0])
        ]

    def test_fallback_miss_raises_first_missed_row(self, trained):
        class Partial(Policy):
            """Answers only error:X, so the first unknown row misses."""

            name = "partial"

            def decide(self, state):
                if state.error_type != "error:X":
                    raise UnhandledStateError(f"no rule: {state}", state=state)
                return UserDefinedPolicy(default_catalog()).decide(state)

        server = DecisionServer(trained, Partial())
        with pytest.raises(UnhandledStateError) as caught:
            server.decide_batch(MIXED)
        assert caught.value.state == UNKNOWN
        assert server.decision_count == 0


class TestPublish:
    def test_publish_bumps_version(self, server):
        replacement = TrainedPolicy({S0: ("REBOOT", 60.0)}, label="t2")
        deployed = server.publish(replacement)
        assert isinstance(deployed, PolicyVersion)
        assert deployed.version == 2
        assert server.version == 2
        decision = server.decide(S0)
        assert decision.action == "REBOOT"
        assert decision.version == 2

    def test_old_rules_gone_after_publish(self, server):
        server.publish(TrainedPolicy({S0: ("REBOOT", 60.0)}, label="t2"))
        assert server.decide(S1).fell_back

    def test_fallback_kept_unless_replaced(self, server, trained):
        server.publish(trained)
        assert server.decide(UNKNOWN).action == "TRYNOP"

    def test_decisions_tracked_per_version(self, server, trained):
        server.decide(S0)
        server.publish(trained)
        server.decide(S0)
        server.decide(S0)
        assert server.decisions_by_version() == {1: 1, 2: 2}


class TestRetrainerHook:
    def test_retrain_publishes_to_server(self, server, small_processes):
        retrainer = RollingRetrainer(
            window=500, retrain_every=50, min_history=10
        )
        server.attach_retrainer(retrainer)
        before = server.version
        for process in small_processes:
            retrainer.observe(process)
        assert retrainer.retrain_count > 0
        assert server.version == before + retrainer.retrain_count

    def test_hybrid_publication_unbundled(self, server, small_processes):
        retrainer = RollingRetrainer(
            window=500, retrain_every=50, min_history=10
        )
        server.attach_retrainer(retrainer)
        for process in small_processes:
            retrainer.observe(process)
        # The served primary is the trained policy, not the hybrid —
        # fallback routing (and its stats) stay with the server.
        snapshot = server.snapshot()
        assert snapshot.primary.name != "hybrid"
        assert server.decide(UNKNOWN).fell_back

    def test_attach_after_retrains_serves_deployed_policy(
        self, server, small_processes
    ):
        """A server attached late serves what the retrainer deployed.

        It does not wait for the next retrain, and every later retrain
        bumps its version by one.
        """
        retrainer = RollingRetrainer(
            window=500, retrain_every=50, min_history=10
        )
        for process in small_processes[:100]:
            retrainer.observe(process)
        assert retrainer.retrain_count == 2
        server.attach_retrainer(retrainer)
        deployed = retrainer.current_policy()
        snapshot = server.snapshot()
        assert snapshot.version == 2
        assert snapshot.primary is deployed.trained
        assert snapshot.fallback is deployed.fallback
        for process in small_processes[100:]:
            before = server.version
            retrained = retrainer.observe(process)
            assert server.version == before + int(retrained)
        assert retrainer.retrain_count > 2
        assert server.version == retrainer.retrain_count
        assert server.snapshot().primary is retrainer.current_policy().trained

    def test_attach_before_first_retrain_changes_nothing(
        self, server, trained, small_processes
    ):
        retrainer = RollingRetrainer(
            window=500, retrain_every=50, min_history=10
        )
        for process in small_processes[:49]:
            retrainer.observe(process)
        assert retrainer.retrain_count == 0
        server.attach_retrainer(retrainer)
        assert server.version == 1
        assert server.snapshot().primary is trained
        retrainer.observe(small_processes[49])
        assert retrainer.retrain_count == 1
        assert server.version == 2


class TestGenerationLifetime:
    def test_publishes_keep_no_per_generation_state(self, trained):
        """The known-type set lives on its PolicyVersion, nowhere else.

        A server that published 1,000 generations without deciding
        holds no container that grew with them.
        """
        server = DecisionServer(trained, UserDefinedPolicy(default_catalog()))
        replacement = TrainedPolicy({UNKNOWN: ("REBOOT", 60.0)}, label="t2")
        for _ in range(1_000):
            server.publish(replacement)
        assert server.version == 1_001
        assert server.snapshot().known_types == frozenset(
            replacement.error_types()
        )
        sizes = {
            name: len(value)
            for name, value in vars(server).items()
            if isinstance(value, (dict, list, set, frozenset))
        }
        assert all(size <= 1 for size in sizes.values()), sizes

    def test_torn_batch_answered_by_old_generation(self, trained):
        """A publish inside the primary's batch call changes nothing.

        Deterministic: the primary itself publishes a new primary *and*
        fallback mid-call; every row must still come from generation 1,
        misses from generation 1's fallback.
        """
        old_fallback = UserDefinedPolicy(default_catalog())

        class PublishingPrimary(Policy):
            name = "t1"

            def decide(self, state):
                return trained.decide(state)

            def decide_batch(self, states):
                server.publish(
                    TrainedPolicy({UNKNOWN: ("REBOOT", 1.0)}, label="t2"),
                    fallback=AlwaysStrongestPolicy(default_catalog()),
                )
                return trained.decide_batch(states)

            def error_types(self):
                return trained.error_types()

        server = DecisionServer(PublishingPrimary(), old_fallback)
        answer = server.decide_batch([S0, UNKNOWN, S1, UNKNOWN])
        assert server.version == 2
        assert answer.version == 1
        assert {decision.version for decision in answer} == {1}
        assert [d.action for d in answer] == ["REIMAGE", "TRYNOP", "RMA", "TRYNOP"]
        assert [d.source for d in answer] == [
            "serving:t1", "serving:user-defined", "serving:t1",
            "serving:user-defined",
        ]
        assert server.decisions_by_version() == {1: 4}
        assert server.error_type_stats()["error:never-seen"] == {
            "hits": 0, "fallbacks": 0, "unknown": 2,
        }


class TestForwardingWrapper:
    def test_one_primary_call_per_batch(self, trained):
        """A wrapper forwarding ``decide_batch`` keeps the columnar path."""
        calls = []

        class Forwarding(Policy):
            name = "t1"

            def decide(self, state):
                return trained.decide(state)

            def decide_batch(self, states):
                answer = trained.decide_batch(states)
                calls.append((len(states), type(answer)))
                return answer

        server = DecisionServer(Forwarding(), UserDefinedPolicy(default_catalog()))
        reference = DecisionServer(trained, UserDefinedPolicy(default_catalog()))
        for batch in ([S0, UNKNOWN], [S1] * 5, [UNKNOWN]):
            assert server.decide_batch(batch) == reference.decide_batch(batch)
        server.decide_batch([])
        assert calls == [(2, DecisionBatch), (5, DecisionBatch), (1, DecisionBatch)]
        assert server.batch_count == 3


class _InFlightPolicy(TrainedPolicy):
    """A primary whose every batch stays open until the next publish."""

    def __init__(self, rules, label, handshake):
        super().__init__(rules, label=label)
        self._handshake = handshake

    def decide_batch(self, states):
        self._handshake.hold()
        return super().decide_batch(states)


class _PublishHandshake:
    """Lands every publish while some reader's batch is in flight.

    A batch on an alternate primary registers as waiting and blocks
    until the next publish; the writer publishes only once a batch is
    waiting for that publish.  The interleaving is fixed by the
    handshake, not by timing: ``TIMEOUT`` only turns a hang into a
    failure.
    """

    TIMEOUT = 30.0

    def __init__(self):
        self._cond = threading.Condition()
        self._publishes = 0
        self._waiting = 0  # batches blocked until the next publish
        self._done = False

    def hold(self):
        """Reader side: wait, mid-batch, for the next publish."""
        with self._cond:
            seen = self._publishes
            self._waiting += 1
            self._cond.notify_all()
            assert self._cond.wait_for(
                lambda: self._done or self._publishes > seen, self.TIMEOUT
            ), "no publish arrived for an in-flight batch"

    def await_batch(self):
        """Writer side: wait until a batch is held open."""
        with self._cond:
            assert self._cond.wait_for(
                lambda: self._waiting > 0, self.TIMEOUT
            ), "no batch went in flight"

    def published(self):
        """Writer side: release every batch held before this publish."""
        with self._cond:
            self._publishes += 1
            self._waiting = 0
            self._cond.notify_all()

    def finish(self):
        with self._cond:
            self._done = True
            self._cond.notify_all()


class TestHotReloadRace:
    def test_no_torn_batches_under_concurrent_publish(self, trained):
        """Readers must never see two generations inside one batch."""
        server = DecisionServer(
            trained, UserDefinedPolicy(default_catalog())
        )
        handshake = _PublishHandshake()
        alternates = [
            _InFlightPolicy({S0: ("REIMAGE", 7200.0)}, "a", handshake),
            _InFlightPolicy({S0: ("REBOOT", 60.0)}, "b", handshake),
        ]
        states = [S0, UNKNOWN, S1] * 20
        stop = threading.Event()
        torn = []
        versions_seen = set()

        def reader():
            while not stop.is_set():
                decisions = server.decide_batch(states)
                batch_versions = {d.version for d in decisions}
                versions_seen.update(batch_versions)
                if len(batch_versions) != 1:
                    torn.append(batch_versions)
                    return

        def writer():
            # The first publish replaces the fixture's primary; every
            # later one waits until a reader holds a batch of an
            # alternate generation open, so it lands mid-batch.
            try:
                for i in range(300):
                    if i > 0:
                        handshake.await_batch()
                    server.publish(alternates[i % 2])
                    handshake.published()
            finally:
                handshake.finish()

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        publisher = threading.Thread(target=writer)
        publisher.start()
        publisher.join(handshake.TIMEOUT)
        stop.set()
        for thread in readers:
            thread.join(handshake.TIMEOUT)
        assert not any(t.is_alive() for t in readers + [publisher])

        assert torn == []
        assert len(versions_seen) > 1, (
            "the race test never overlapped a publish with a batch; "
            "widen the publish loop"
        )
        assert server.version == 301

    def test_batch_consistent_with_its_version(self, trained):
        """A batch's answers must all come from the generation it reports."""
        server = DecisionServer(
            trained, UserDefinedPolicy(default_catalog())
        )
        by_label = {
            "a": TrainedPolicy({S0: ("REIMAGE", 1.0)}, label="a"),
            "b": TrainedPolicy({S0: ("REBOOT", 2.0)}, label="b"),
        }
        expected_action = {"a": "REIMAGE", "b": "REBOOT"}
        version_label = {1: "a"}
        server.publish(by_label["a"])
        version_label[2] = "a"
        stop = threading.Event()
        errors = []

        def writer():
            labels = ["a", "b"]
            for i in range(200):
                label = labels[i % 2]
                deployed = server.publish(by_label[label])
                version_label[deployed.version] = label

        def reader():
            while not stop.is_set():
                decisions = server.decide_batch([S0] * 32)
                version = decisions[0].version
                label = version_label.get(version)
                if label is None:
                    continue  # mapping not yet recorded by the writer
                want = expected_action[label]
                if any(d.action != want for d in decisions):
                    errors.append((version, label))
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        publisher = threading.Thread(target=writer)
        publisher.start()
        publisher.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []


class TestServedDecision:
    def test_immutable(self, server):
        decision = server.decide(S0)
        assert isinstance(decision, ServedDecision)
        with pytest.raises(AttributeError):
            decision.action = "RMA"

    def test_fields_repr_and_hash(self, server):
        decision = server.decide(S0)
        assert decision == ServedDecision(
            "REIMAGE", "serving:t1", 7200.0, 1, False
        )
        assert repr(decision) == (
            "ServedDecision(action='REIMAGE', source='serving:t1', "
            "expected_cost=7200.0, version=1, fell_back=False)"
        )
        assert hash(decision) == hash(
            ("REIMAGE", "serving:t1", 7200.0, 1, False)
        )


class TestErrorTypeStats:
    def test_hits_fallbacks_and_unknown_classified(self, server):
        server.decide(S0)
        server.decide(S1)
        server.decide(UNKNOWN)
        # Known error type, but a state outside the trained table.
        server.decide(S0.after("REBOOT", False))
        stats = server.error_type_stats()
        assert stats["error:X"] == {
            "hits": 2, "fallbacks": 1, "unknown": 0,
        }
        assert stats["error:never-seen"] == {
            "hits": 0, "fallbacks": 0, "unknown": 1,
        }

    def test_batch_and_scalar_count_identically(self, trained):
        scalar = DecisionServer(trained)
        batch = DecisionServer(trained)
        states = [S0, UNKNOWN, S1, S0.after("REBOOT", False)]
        for state in states:
            scalar.decide(state)
        batch.decide_batch(states)
        assert scalar.error_type_stats() == batch.error_type_stats()

    def test_stats_sorted_by_error_type(self, server):
        server.decide(UNKNOWN)
        server.decide(S0)
        assert list(server.error_type_stats()) == [
            "error:X", "error:never-seen",
        ]

    def test_empty_before_any_decision(self, server):
        assert server.error_type_stats() == {}

    def test_unknown_tracked_across_publish(self, server, trained):
        server.decide(UNKNOWN)
        server.publish(
            TrainedPolicy(
                {UNKNOWN: ("REBOOT", 100.0)}, label="t2",
            )
        )
        decision = server.decide(UNKNOWN)
        assert not decision.fell_back
        stats = server.error_type_stats()
        assert stats["error:never-seen"] == {
            "hits": 1, "fallbacks": 0, "unknown": 1,
        }

    def test_primary_without_error_types_counts_fallbacks(self):
        # A primary that does not expose error_types() cannot separate
        # unknown types from unanswered states: everything that misses
        # is a plain fallback.
        class Opaque:
            name = "opaque"

            def decide(self, state):
                from repro.errors import UnhandledStateError
                raise UnhandledStateError(state)

            def decide_batch(self, states):
                from repro.errors import UnhandledStateError
                return [UnhandledStateError(s) for s in states]

        server = DecisionServer(
            Opaque(), UserDefinedPolicy(default_catalog())
        )
        server.decide(S0)
        assert server.error_type_stats()["error:X"] == {
            "hits": 0, "fallbacks": 1, "unknown": 0,
        }
