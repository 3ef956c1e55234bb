"""Tests for the rolling retrainer (online adaptation)."""

import pytest

from helpers import ladder_processes, make_process
from repro.actions import default_catalog
from repro.core.config import PipelineConfig
from repro.core.online import RollingRetrainer
from repro.errors import ConfigurationError, TrainingError
from repro.learning.qlearning import QLearningConfig
from repro.learning.selection_tree import SelectionTreeConfig
from repro.mdp.state import RecoveryState
from repro.mining.dependence import SymptomCooccurrence
from repro.mining.streaming import StreamingMiner

CATALOG = default_catalog()


def fast_config():
    return PipelineConfig(
        top_k_types=2,
        qlearning=QLearningConfig(max_sweeps=100, episodes_per_sweep=16),
        tree=SelectionTreeConfig(min_sweeps=30, check_interval=15),
    )


def era(reboot_curable: bool, count: int = 60, start_index: int = 0):
    """Processes of one drifting type plus a steady companion type."""
    if reboot_curable:
        drifting = [(["TRYNOP", "REBOOT"], count * 2 // 3),
                    (["TRYNOP"], count // 3)]
    else:
        drifting = [
            (["TRYNOP", "REBOOT", "REBOOT", "REIMAGE"], count),
        ]
    return ladder_processes(
        "error:Drift", drifting,
        machine_prefix=f"d{start_index}", realistic_durations=True,
    ) + ladder_processes(
        "error:Steady", [(["TRYNOP"], count)],
        machine_prefix=f"s{start_index}", realistic_durations=True,
    )


class TestConfiguration:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"retrain_every": 0},
            {"min_history": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RollingRetrainer(CATALOG, **kwargs)

    def test_retrain_without_history_rejected(self):
        retrainer = RollingRetrainer(CATALOG, fast_config())
        with pytest.raises(TrainingError):
            retrainer.retrain()


class TestLifecycle:
    def test_fallback_deployed_before_first_fit(self):
        retrainer = RollingRetrainer(CATALOG, fast_config())
        assert retrainer.current_policy().name == "user-defined"
        assert retrainer.retrain_count == 0

    def test_observe_triggers_retrain_at_threshold(self):
        retrainer = RollingRetrainer(
            CATALOG, fast_config(), min_history=50, retrain_every=100
        )
        triggered = []
        for process in era(reboot_curable=True, count=60):
            triggered.append(retrainer.observe(process))
        assert sum(triggered) == 1
        assert retrainer.retrain_count == 1
        assert retrainer.current_policy().name == "hybrid"

    def test_window_ages_out_old_history(self):
        retrainer = RollingRetrainer(
            CATALOG, fast_config(), window=30, min_history=10,
            retrain_every=10**9,
        )
        for process in era(reboot_curable=True, count=60):
            retrainer.observe(process)
        assert retrainer.history_size == 30

    def test_adaptation_to_drift(self):
        retrainer = RollingRetrainer(
            CATALOG,
            fast_config(),
            window=120,
            min_history=60,
            retrain_every=10**9,  # manual retraining in this test
        )
        for process in era(reboot_curable=True, count=60):
            retrainer.observe(process)
        retrainer.retrain()
        s0 = RecoveryState.initial("error:Drift")
        first = retrainer.learner.rules_[s0][0]
        assert first == "TRYNOP"  # ladder is fine while reboots work

        # The environment drifts: reboots stop curing the fault.
        for process in era(
            reboot_curable=False, count=60, start_index=1
        ):
            retrainer.observe(process)
        retrainer.retrain()
        second = retrainer.learner.rules_[s0][0]
        assert second == "REIMAGE"
        assert retrainer.retrain_count == 2

    def test_failed_retrain_keeps_previous_policy(self):
        retrainer = RollingRetrainer(
            CATALOG,
            # min_processes_per_type impossible -> fit always fails
            PipelineConfig(min_processes_per_type=10**9),
            min_history=1,
            retrain_every=10**9,
        )
        retrainer.observe(era(True, count=3)[0])
        with pytest.raises(TrainingError):
            retrainer.retrain()
        # Deployment unchanged: the fallback still serves.
        assert retrainer.current_policy().name == "user-defined"
        assert retrainer.retrain_count == 0


class TestEdgeCases:
    def test_failed_refit_keeps_trained_policy_atomically(self):
        """A refit failure after a successful deploy must change nothing:
        the deployed hybrid, the fitted learner and the counters all
        stay exactly as the last good fit left them."""
        retrainer = RollingRetrainer(
            CATALOG,
            fast_config(),
            window=40,
            min_history=1,
            retrain_every=10**9,
        )
        for process in era(reboot_curable=True, count=60):
            retrainer.observe(process)
        deployed = retrainer.retrain()
        learner = retrainer.learner
        assert retrainer.retrain_count == 1
        # Age the entire window out with unusable history: 40 singleton
        # error types, each far below min_processes_per_type.
        for index in range(40):
            retrainer.observe(
                make_process(
                    ["TRYNOP", "RMA"],
                    machine=f"junk-{index:03d}",
                    error_type=f"error:Rare{index}",
                    start=index * 10_000.0,
                )
            )
        with pytest.raises(TrainingError):
            retrainer.retrain()
        assert retrainer.current_policy() is deployed
        assert retrainer.learner is learner
        assert retrainer.retrain_count == 1

    def test_window_smaller_than_retrain_every(self):
        """A window shorter than the retrain period still retrains on
        schedule — the cadence counts observations, not window size."""
        retrainer = RollingRetrainer(
            CATALOG,
            fast_config(),
            window=20,
            min_history=10,
            retrain_every=50,
        )
        triggered = [
            retrainer.observe(p)
            for p in era(reboot_curable=True, count=60)  # 120 processes
        ]
        assert retrainer.history_size == 20
        assert retrainer.retrain_count == 2
        assert [i for i, t in enumerate(triggered) if t] == [49, 99]

    def test_min_history_boundary_is_exact(self):
        """No retrain at min_history - 1 observations; retrain at
        exactly min_history."""
        retrainer = RollingRetrainer(
            CATALOG,
            fast_config(),
            window=100,
            min_history=30,
            retrain_every=1,
        )
        processes = era(reboot_curable=True, count=30)[:30]
        for process in processes[:29]:
            assert retrainer.observe(process) is False
        assert retrainer.retrain_count == 0
        assert retrainer.observe(processes[29]) is True
        assert retrainer.retrain_count == 1

    def test_window_below_min_history_never_triggers(self):
        """The window caps observable history, so min_history above it
        can never be reached — observe must not retrain (or error)."""
        retrainer = RollingRetrainer(
            CATALOG,
            fast_config(),
            window=10,
            min_history=20,
            retrain_every=1,
        )
        for process in era(reboot_curable=True, count=30):
            assert retrainer.observe(process) is False
        assert retrainer.retrain_count == 0


class TestSubscribers:
    def test_subscribers_called_on_every_retrain(self):
        published = []
        retrainer = RollingRetrainer(
            CATALOG, fast_config(),
            window=200, retrain_every=60, min_history=60,
        )
        retrainer.subscribe(published.append)
        for process in era(True, count=60):
            retrainer.observe(process)
        assert len(published) == retrainer.retrain_count > 0
        # Subscribers receive exactly what was deployed, post-swap.
        assert published[-1] is retrainer.current_policy()

    def test_subscribers_in_registration_order(self):
        order = []
        retrainer = RollingRetrainer(
            CATALOG, fast_config(),
            window=200, retrain_every=60, min_history=60,
        )
        retrainer.subscribe(lambda _p: order.append("first"))
        retrainer.subscribe(lambda _p: order.append("second"))
        for process in era(True, count=60):
            if retrainer.observe(process):
                break
        assert order == ["first", "second"]

    def test_failed_retrain_publishes_nothing(self):
        published = []
        retrainer = RollingRetrainer(CATALOG, fast_config())
        retrainer.subscribe(published.append)
        with pytest.raises(TrainingError):
            retrainer.retrain()
        assert published == []


class TestMinerHook:
    def test_observed_processes_flow_into_miner(self, small_processes):
        miner = StreamingMiner()
        retrainer = RollingRetrainer(min_history=10**9, miner=miner)
        for process in small_processes[:40]:
            retrainer.observe(process)
        assert retrainer.miner is miner
        assert miner.process_count == 40
        reference = SymptomCooccurrence.from_transactions(
            p.symptom_set for p in small_processes[:40]
        )
        assert miner.cooccurrence.items == reference.items
        assert (
            miner.cooccurrence.transaction_count
            == reference.transaction_count
        )

    def test_no_miner_by_default(self):
        assert RollingRetrainer().miner is None
