#!/usr/bin/env python3
"""Cascading faults: one onset raises the hazard of its neighbours.

Independent-arrival fault models miss a signature failure mode of real
clusters: correlated breakage.  A switch hiccup or a bad rollout makes
one machine's fault *induce* faults on machines near it.  The scenario
model expresses this as a subcritical branching process — each primary
onset triggers, with per-(fault, fault) probability, delayed secondary
onsets on ring-neighbour machines (strength < 1 keeps the cascade from
running away).

This example simulates the same cluster with and without coupling and
shows what cascades change — and what they don't:

* the *number* of recovery processes roughly doubles (induced onsets),
* their *temporal clustering* jumps (onsets arrive in bursts),
* but each individual process still looks the same, so the mining and
  training pipeline runs unchanged and the trained policy holds up.

Cascades run on the sequential event engine; the vectorized fleet
engine refuses them by design (wave-based resolution cannot honor
onset-to-onset coupling), and ``simulate_cluster`` transparently falls
back.

Run:  python examples/scenario_cascade.py
"""

import numpy as np

from repro.actions import default_catalog
from repro.cluster.cluster import ClusterConfig, ClusterSimulator
from repro.experiments.families import run_family
from repro.policies.user_defined import UserDefinedPolicy
from repro.scenario.presets import build_scenario_model, cascade_spec
from repro.tracegen.catalog_gen import generate_fault_catalog
from repro.tracegen.workload import small_config
from repro.util.rng import RngStreams

DAY = 86_400.0


def burstiness(onsets) -> float:
    """Coefficient of variation of inter-onset gaps (1.0 = Poisson)."""
    gaps = np.diff(np.sort(np.asarray(onsets)))
    if gaps.size < 2 or gaps.mean() == 0:
        return float("nan")
    return float(gaps.std() / gaps.mean())


def run(coupled: bool):
    catalog = generate_fault_catalog(seed=7)
    spec = cascade_spec()
    faults = (
        build_scenario_model(
            catalog, spec, duration=40 * DAY, seed=7
        )
        if coupled
        else catalog
    )
    actions = default_catalog()
    simulator = ClusterSimulator(
        ClusterConfig(
            machine_count=60,
            duration=40 * DAY,
            mean_time_between_failures=4 * DAY,
            noise_probability=0.0,
        ),
        faults,
        UserDefinedPolicy(actions),
        actions,
        RngStreams(7),
    )
    processes = simulator.run().to_processes()
    return processes, [p.entries[0].time for p in processes]


def main() -> None:
    spec = cascade_spec()
    print(
        f"Cascade scenario: strength {spec.cascade_strength:g} induced "
        f"onsets per onset, ring radius {spec.cascade_radius}, delays "
        f"{spec.cascade_delay[0]:g}–{spec.cascade_delay[1]:g}s\n"
    )

    independent, t_ind = run(coupled=False)
    cascaded, t_cas = run(coupled=True)
    print(f"{'model':14} {'processes':>9} {'burstiness':>11}")
    print("-" * 36)
    print(f"{'independent':14} {len(independent):>9} "
          f"{burstiness(t_ind):>11.2f}")
    print(f"{'cascading':14} {len(cascaded):>9} "
          f"{burstiness(t_cas):>11.2f}")
    print(
        "\nCoupling multiplies onsets and bunches them in time, but each "
        "process's internal structure (symptoms → actions → success) is "
        "unchanged — so the learning pipeline needs no modification:"
    )

    result = run_family("cascade", small_config(seed=7))
    print(
        f"\nFull pipeline on the cascade family: "
        f"{result.process_count:,} processes, trained relative downtime "
        f"{result.trained_cost:.4f} (user-defined = "
        f"{result.user_cost:.4f})."
    )
    print(
        "Note: simulate_cluster runs a cascading scenario on the "
        "event engine automatically."
    )


if __name__ == "__main__":
    main()
