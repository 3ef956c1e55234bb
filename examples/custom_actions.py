#!/usr/bin/env python3
"""Use a custom repair-action catalog and deploy the learned policy online.

The paper notes its framework sets no limits on the repair-action set
(microreboot-style fine-grained actions compose naturally).  This
example:

* defines a five-action catalog with a cheap SVC_RESTART between
  watching and rebooting,
* generates history under a cheapest-first ladder over that catalog,
* learns a policy offline, then **deploys the hybrid policy online**:
  the cluster simulator runs with the learned policy making live
  decisions, and we compare realized downtime against the ladder.

Run:  python examples/custom_actions.py
"""

from repro import RecoveryPolicyLearner
from repro.actions import ActionCatalog, LognormalCost, RepairAction
from repro.cluster import ClusterConfig, FaultCatalog, FaultType, simulate_cluster
from repro.core import PipelineConfig
from repro.learning.qlearning import QLearningConfig
from repro.learning.selection_tree import SelectionTreeConfig
from repro.policies import UserDefinedPolicy
from repro.recoverylog.stats import compute_statistics
from repro.util.rng import RngStreams

DAY = 86_400.0


def build_catalog() -> ActionCatalog:
    return ActionCatalog(
        [
            RepairAction("WATCH", 0, LognormalCost(240.0, cv=0.3)),
            RepairAction("SVC_RESTART", 1, LognormalCost(600.0, cv=0.3)),
            RepairAction("REBOOT", 2, LognormalCost(2_400.0, cv=0.3)),
            RepairAction("REIMAGE", 3, LognormalCost(7_200.0, cv=0.3)),
            RepairAction(
                "RMA", 4, LognormalCost(150_000.0, cv=0.1), manual=True
            ),
        ]
    )


def build_faults() -> FaultCatalog:
    return FaultCatalog(
        [
            FaultType(
                name="svc-leak",
                primary_symptom="error:Svc-Leak",
                cure_probabilities={
                    "WATCH": 0.05,
                    "SVC_RESTART": 0.9,
                    "REBOOT": 0.95,
                },
                weight=3.0,
            ),
            FaultType(
                name="kernel-hang",
                primary_symptom="error:Kernel-Hang",
                cure_probabilities={"REBOOT": 0.92, "REIMAGE": 0.97},
                weight=2.0,
            ),
            FaultType(
                name="fs-corrupt",
                primary_symptom="error:Fs-Corrupt",
                cure_probabilities={"REIMAGE": 0.95},
                weight=1.0,
            ),
        ]
    )


def run_cluster(policy, catalog, seed):
    log = simulate_cluster(
        ClusterConfig(
            machine_count=150,
            duration=120 * DAY,
            mean_time_between_failures=5 * DAY,
            noise_probability=0.0,
        ),
        build_faults(),
        policy,
        catalog,
        RngStreams(seed),
    )
    return log.to_processes()


def main() -> None:
    catalog = build_catalog()
    ladder = UserDefinedPolicy(
        catalog,
        retry_budgets={"WATCH": 1, "SVC_RESTART": 1, "REBOOT": 2, "REIMAGE": 1},
    )

    print("Collecting history under the cheapest-first ladder "
          "(5-action catalog) ...")
    history = run_cluster(ladder, catalog, seed=31)
    baseline_stats = compute_statistics(history)
    print(f"  {len(history):,} recovery processes, "
          f"MTTR {baseline_stats.mean_downtime / 60:.0f} min")

    print("\nLearning offline from the history ...")
    learner = RecoveryPolicyLearner(
        catalog,
        PipelineConfig(
            top_k_types=3,
            qlearning=QLearningConfig(max_sweeps=150, episodes_per_sweep=24),
            tree=SelectionTreeConfig(min_sweeps=40, check_interval=20),
        ),
        baseline=ladder,
    ).fit(history)
    from repro.mdp.state import RecoveryState

    for error_type in learner.registry_.names:
        rule = learner.rules_.get(RecoveryState.initial(error_type))
        print(f"  {error_type:24s} first action -> "
              f"{rule[0] if rule else '(ladder)'}")

    print("\nDeploying the hybrid policy ONLINE on a fresh 120 days ...")
    online = run_cluster(
        learner.hybrid_policy(fallback=ladder), catalog, seed=32
    )
    online_stats = compute_statistics(online)
    control = run_cluster(ladder, catalog, seed=32)
    control_stats = compute_statistics(control)

    print(f"  ladder MTTR : {control_stats.mean_downtime / 60:8.0f} min "
          f"({control_stats.process_count} recoveries)")
    print(f"  hybrid MTTR : {online_stats.mean_downtime / 60:8.0f} min "
          f"({online_stats.process_count} recoveries)")
    saved = 1 - online_stats.mean_downtime / control_stats.mean_downtime
    print(f"\nLive downtime saved by the learned policy: {saved:.1%} "
          "(same seed, same fault stream).")


if __name__ == "__main__":
    main()
