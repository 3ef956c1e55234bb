"""Tests for composite repair actions."""

import numpy as np
import pytest

from repro.actions import REBOOT, RMA, TRYNOP
from repro.actions.action import ActionCatalog, RepairAction
from repro.actions.composite import SumCost, compose_actions
from repro.actions.costs import DeterministicCost, LognormalCost
from repro.errors import ConfigurationError


class TestSumCost:
    def test_mean_is_sum(self):
        cost = SumCost((DeterministicCost(10.0), DeterministicCost(5.0)))
        assert cost.mean == 15.0

    def test_sample_is_sum(self):
        cost = SumCost((DeterministicCost(10.0), DeterministicCost(5.0)))
        uniforms = np.random.default_rng(0).random((cost.uniform_count, 1))
        assert cost.from_uniforms(uniforms)[0] == 15.0

    def test_components_read_their_own_uniform_rows(self):
        first, second = LognormalCost(100.0), LognormalCost(50.0, cv=1.0)
        cost = SumCost((first, DeterministicCost(5.0), second))
        assert cost.uniform_count == 4
        uniforms = np.random.default_rng(1).random((4, 6))
        expected = (
            first.from_uniforms(uniforms[:2])
            + 5.0
            + second.from_uniforms(uniforms[2:])
        )
        assert np.array_equal(cost.from_uniforms(uniforms), expected)

    def test_nested_sum_counts_every_component(self):
        inner = SumCost((LognormalCost(10.0), DeterministicCost(1.0)))
        outer = SumCost((inner, LognormalCost(20.0)))
        assert outer.uniform_count == 4
        assert outer.from_uniforms(np.full((4, 3), 0.5)).shape == (3,)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            SumCost(())


class TestComposeActions:
    def test_composite_sums_costs(self):
        composite = compose_actions(
            "WATCH+REBOOT", [TRYNOP, REBOOT], strength=1
        )
        assert composite.cost_model.mean == pytest.approx(
            TRYNOP.cost_model.mean + REBOOT.cost_model.mean
        )

    def test_strength_must_dominate_components(self):
        with pytest.raises(ConfigurationError, match="replace"):
            compose_actions("BAD", [TRYNOP, REBOOT], strength=0)

    def test_manual_components_rejected(self):
        with pytest.raises(ConfigurationError, match="manual"):
            compose_actions("BAD", [RMA], strength=5)

    def test_empty_components_rejected(self):
        with pytest.raises(ConfigurationError):
            compose_actions("BAD", [], strength=0)

    def test_composite_is_catalog_compatible(self):
        composite = compose_actions(
            "REBOOT+FSCK", [TRYNOP, REBOOT], strength=2
        )
        catalog = ActionCatalog(
            [
                TRYNOP,
                REBOOT,
                composite,
                RepairAction(
                    "RMA", 3, DeterministicCost(1000.0), manual=True
                ),
            ]
        )
        assert catalog["REBOOT+FSCK"].can_replace(REBOOT)
        assert catalog.names() == [
            "TRYNOP",
            "REBOOT",
            "REBOOT+FSCK",
            "RMA",
        ]

    def test_composite_usable_in_recovery_pipeline(self):
        """A catalog with a composite flows through simulation + replay."""
        from repro.cluster import ClusterConfig, ClusterSimulator
        from repro.cluster.faults import FaultCatalog, FaultType
        from repro.policies import UserDefinedPolicy
        from repro.simplatform import SimulationPlatform
        from repro.util.rng import RngStreams

        composite = compose_actions(
            "REBOOT+FSCK", [TRYNOP, REBOOT], strength=2
        )
        catalog = ActionCatalog(
            [
                TRYNOP,
                REBOOT,
                composite,
                RepairAction(
                    "RMA", 3, DeterministicCost(100_000.0), manual=True
                ),
            ]
        )
        faults = FaultCatalog(
            [
                FaultType(
                    name="fsck-needing",
                    primary_symptom="error:Fs",
                    cure_probabilities={"REBOOT+FSCK": 0.95},
                )
            ]
        )
        simulator = ClusterSimulator(
            ClusterConfig(
                machine_count=10,
                duration=20 * 86_400.0,
                mean_time_between_failures=2 * 86_400.0,
                noise_probability=0.0,
            ),
            faults,
            UserDefinedPolicy(
                catalog,
                retry_budgets={"TRYNOP": 1, "REBOOT": 1, "REBOOT+FSCK": 1},
            ),
            catalog,
            RngStreams(2),
        )
        log = simulator.run()
        processes = log.to_processes()
        assert processes
        platform = SimulationPlatform(processes, catalog)
        policy = UserDefinedPolicy(
            catalog,
            retry_budgets={"TRYNOP": 1, "REBOOT": 1, "REBOOT+FSCK": 1},
        )
        for process in processes[:50]:
            result = platform.replay(process, policy)
            assert result.handled
            assert result.cost == pytest.approx(result.real_cost)
