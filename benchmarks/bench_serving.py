"""Decision-service throughput and latency under a simulated query storm.

Five measurements, mirroring ``bench_fleet_scale``'s shape:

* **load** — wall-clock to make a policy servable: parsing the JSON
  rule table vs memory-mapping the binary container (zero-copy, pages
  fault in lazily).
* **storm** — a seeded synthetic query storm (table-sampled states plus
  a controlled unknown fraction) fired at the server in micro-batches.
  The same storm is first answered by a JSON-loaded reference server
  and the two answer streams must match decision-for-decision — a
  throughput number against diverging answers would be meaningless.
* **single** — the unbatched ``decide`` path, for per-lookup latency.
* **hot-reload** — the storm re-run while a writer thread publishes new
  policy generations as fast as it can; every batch must be answered by
  exactly one generation (no torn tables).
* **fleet** — the vectorized fleet engine with every decide wave routed
  through the server: the full-profile million-machine query storm.

Standalone by design (CI runs it outside pytest)::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --profile smoke --out BENCH_serving.json
    PYTHONPATH=src python benchmarks/bench_serving.py \
        --check BENCH_serving.json

The committed ``BENCH_serving.json`` at the repo root holds the
``full`` profile's numbers.  Schema::

    {"bench": "serving", "commit": "<sha>", "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, List, Optional, Sequence

from provenance import commit

from repro.actions import default_catalog
from repro.cluster.cluster import ClusterConfig
from repro.cluster.fleet import FleetEngine
from repro.core.config import PipelineConfig
from repro.core.pipeline import RecoveryPolicyLearner
from repro.policies import (
    UserDefinedPolicy,
    load_policy,
    load_policy_binary,
    save_policy,
    save_policy_binary,
)
from repro.serving import (
    DecisionServer,
    default_storm_faults,
    fleet_storm,
    run_storm,
    storm_states,
)
from repro.serving.telemetry import LatencyRecorder
from repro.util.rng import RngStreams
from repro.util.tables import render_table

BENCH_NAME = "serving"
DAY = 86_400.0
SEED = 11

#: Profile -> workload sizes and the decisions/sec floor the batched
#: storm must clear.  The smoke profile keeps CI fast and conservative
#: about shared-runner noise; the full profile is the committed
#: baseline: >= 10^5 batched decisions/sec and a million-machine fleet
#: storm.
PROFILES = {
    "smoke": {
        "train_machines": 400,
        "train_days": 30.0,
        "synthetic_rules": 5_000,
        "storm_queries": 200_000,
        "storm_batch": 1_024,
        "single_queries": 20_000,
        "reload_publishes": 50,
        "fleet_machines": 20_000,
        "fleet_days": 2.0,
        "min_decisions_per_s": 20_000.0,
    },
    "full": {
        "train_machines": 1_000,
        "train_days": 60.0,
        "synthetic_rules": 50_000,
        "storm_queries": 2_000_000,
        "storm_batch": 4_096,
        "single_queries": 100_000,
        "reload_publishes": 200,
        "fleet_machines": 1_000_000,
        "fleet_days": 0.5,
        "min_decisions_per_s": 100_000.0,
    },
}

UNKNOWN_FRACTION = 0.1


def _train_policy(machines: int, days: float):
    """A trained policy over the storm fault catalog's error types."""
    catalog = default_catalog()
    engine = FleetEngine(
        ClusterConfig(
            backend="fleet",
            machine_count=machines,
            duration=days * DAY,
            mean_time_between_failures=7.5 * DAY,
            noise_probability=0.042,
        ),
        default_storm_faults(),
        UserDefinedPolicy(catalog),
        catalog,
        RngStreams(SEED),
    )
    processes = engine.run().to_log().to_processes()
    learner = RecoveryPolicyLearner(
        catalog, PipelineConfig(top_k_types=10)
    ).fit(processes)
    return learner.trained_policy()


def _augment_policy(policy, synthetic_rules: int):
    """Pad the trained table to a fleet-realistic size.

    The storm catalog is deliberately small, so the genuinely trained
    table has only a handful of rules; a production fleet serves tens
    of thousands (many error types x attempt histories).  Synthetic
    rules over disjoint error types make table size honest without
    touching the trained rules the fleet storm actually hits.
    """
    from repro.mdp.state import RecoveryState
    from repro.policies.trained import TrainedPolicy

    actions = ["TRYNOP", "REBOOT", "REIMAGE", "RMA"]
    rules = dict(policy.rules)
    i = 0
    while len(rules) < synthetic_rules + len(policy.rules):
        state = RecoveryState.initial(f"error:synth-{i % 12_800}")
        for depth in range(i // 12_800):
            state = state.after(actions[(i + depth) % 4], False)
        rules.setdefault(
            state, (actions[i % 4], 60.0 * (1 + i % 2880))
        )
        i += 1
    return TrainedPolicy(rules, label=policy.name)


def _bench_load(policy, workdir: Path) -> Dict[str, object]:
    json_path = workdir / "policy.json"
    bin_path = workdir / "policy.rpb"
    save_policy(policy, json_path)
    rule_count = save_policy_binary(policy, bin_path)

    started = time.perf_counter()
    json_policy = load_policy(json_path)
    json_s = time.perf_counter() - started

    started = time.perf_counter()
    bin_policy = load_policy_binary(bin_path)
    bin_s = time.perf_counter() - started

    return {
        "rules": rule_count,
        "json_bytes": json_path.stat().st_size,
        "binary_bytes": bin_path.stat().st_size,
        "json_load_s": round(json_s, 6),
        "binary_load_s": round(bin_s, 6),
        "load_speedup": round(json_s / bin_s, 2) if bin_s > 0 else 0.0,
        "_json_policy": json_policy,
        "_bin_policy": bin_policy,
    }


def _bench_storm(
    bin_policy, json_policy, queries: int, batch: int
) -> Dict[str, object]:
    catalog = default_catalog()
    states = storm_states(
        bin_policy, queries, unknown_fraction=UNKNOWN_FRACTION, seed=SEED
    )
    server = DecisionServer(bin_policy, UserDefinedPolicy(catalog))
    # The query stream itself is millions of live objects; without a
    # freeze, periodic full collections scan all of it and show up as
    # multi-hundred-ms latency spikes — the standard serving-process
    # fix (freeze after warmup) applies verbatim.
    gc.collect()
    gc.freeze()
    try:
        report = run_storm(server, states, batch_size=batch)
    finally:
        gc.unfreeze()

    # Differential check against a JSON-loaded reference server, chunk
    # by chunk so millions of decision objects are never live at once
    # (holding them would also distort the timed storm above via GC
    # pressure, which is why the comparison runs after it).
    reference = DecisionServer(json_policy, UserDefinedPolicy(catalog))
    identical = True
    for start in range(0, len(states), batch):
        chunk = states[start : start + batch]
        for a, e in zip(
            server.decide_batch(chunk), reference.decide_batch(chunk)
        ):
            if (
                a.action != e.action
                or a.expected_cost != e.expected_cost
                or a.fell_back != e.fell_back
            ):
                identical = False
                break
        if not identical:
            break
    return {
        "queries": queries,
        "batch_size": batch,
        "unknown_fraction": UNKNOWN_FRACTION,
        "decisions_per_s": round(report.decisions_per_second, 1),
        "p50_latency_us": round(report.p50_latency_s * 1e6, 1),
        "p99_latency_us": round(report.p99_latency_s * 1e6, 1),
        "fallback_rate": round(report.fallback_rate, 4),
        "bit_identical": identical,
    }


def _bench_single(bin_policy, queries: int) -> Dict[str, object]:
    catalog = default_catalog()
    server = DecisionServer(bin_policy, UserDefinedPolicy(catalog))
    states = storm_states(
        bin_policy, queries, unknown_fraction=UNKNOWN_FRACTION, seed=SEED + 1
    )
    recorder = LatencyRecorder()
    started = time.perf_counter()
    for state in states:
        with recorder.observe():
            server.decide(state)
    elapsed = time.perf_counter() - started
    return {
        "queries": queries,
        "decisions_per_s": round(queries / elapsed, 1),
        "p50_latency_us": round(recorder.percentile(0.50) * 1e6, 2),
        "p99_latency_us": round(recorder.percentile(0.99) * 1e6, 2),
    }


def _bench_hot_reload(
    bin_policy, json_policy, queries: int, batch: int, publishes: int
) -> Dict[str, object]:
    catalog = default_catalog()
    server = DecisionServer(bin_policy, UserDefinedPolicy(catalog))
    states = storm_states(
        bin_policy, queries, unknown_fraction=UNKNOWN_FRACTION, seed=SEED + 2
    )
    stop = threading.Event()
    published = 0

    def _publisher() -> None:
        nonlocal published
        alternates = (json_policy, bin_policy)
        while not stop.is_set() and published < publishes:
            server.publish(alternates[published % 2])
            published += 1
            # Pace publishes so generations interleave with reader
            # batches instead of all landing before the first read.
            time.sleep(0.0002)

    torn = 0
    versions_seen = set()
    writer = threading.Thread(target=_publisher)
    writer.start()
    try:
        for start in range(0, len(states), batch):
            decisions = server.decide_batch(states[start : start + batch])
            batch_versions = {d.version for d in decisions}
            versions_seen.update(batch_versions)
            if len(batch_versions) > 1:
                torn += 1
    finally:
        stop.set()
        writer.join()
    return {
        "queries": queries,
        "publishes": published,
        "generations_observed": len(versions_seen),
        "torn_batches": torn,
    }


def _bench_fleet(
    bin_policy, machines: int, days: float
) -> Dict[str, object]:
    catalog = default_catalog()
    server = DecisionServer(bin_policy, UserDefinedPolicy(catalog))
    started = time.perf_counter()
    result = fleet_storm(
        server,
        machines=machines,
        days=days,
        seed=SEED,
        catalog=catalog,
        faults=default_storm_faults(),
    )
    elapsed = time.perf_counter() - started
    return {
        "machines": machines,
        "days": days,
        "wall_clock_s": round(elapsed, 4),
        "machines_per_s": round(machines / elapsed, 1),
        "decisions": result.decisions,
        "decisions_per_s": round(result.decisions / elapsed, 1),
        "processes": result.processes,
        "fallback_rate": (
            round(result.fallbacks / result.decisions, 4)
            if result.decisions
            else 0.0
        ),
    }


def run(profile: str) -> Dict[str, object]:
    spec = PROFILES[profile]
    policy = _augment_policy(
        _train_policy(spec["train_machines"], spec["train_days"]),
        spec["synthetic_rules"],
    )
    with TemporaryDirectory() as tmp:
        load = _bench_load(policy, Path(tmp))
        json_policy = load.pop("_json_policy")
        bin_policy = load.pop("_bin_policy")
        storm = _bench_storm(
            bin_policy,
            json_policy,
            spec["storm_queries"],
            spec["storm_batch"],
        )
        single = _bench_single(bin_policy, spec["single_queries"])
        reload_ = _bench_hot_reload(
            bin_policy,
            json_policy,
            min(spec["storm_queries"], 200_000),
            spec["storm_batch"],
            spec["reload_publishes"],
        )
        fleet = _bench_fleet(
            bin_policy, spec["fleet_machines"], spec["fleet_days"]
        )
    return {
        "profile": profile,
        "seed": SEED,
        "load": load,
        "storm": storm,
        "single": single,
        "hot_reload": reload_,
        "fleet": fleet,
        "min_decisions_per_s": spec["min_decisions_per_s"],
    }


def check_payload(payload: Dict[str, object]) -> List[str]:
    """Schema violations of a benchmark artifact (empty = valid)."""
    problems = []
    if payload.get("bench") != BENCH_NAME:
        problems.append(f"bench must be {BENCH_NAME!r}")
    if not isinstance(payload.get("commit"), str) or not payload["commit"]:
        problems.append("commit must be a non-empty string")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    load = metrics.get("load")
    if not isinstance(load, dict):
        problems.append("metrics.load must be an object")
    else:
        for key in ("rules", "binary_bytes", "json_load_s", "binary_load_s"):
            if not isinstance(load.get(key), (int, float)):
                problems.append(f"load.{key} must be numeric")
    storm = metrics.get("storm")
    if not isinstance(storm, dict):
        problems.append("metrics.storm must be an object")
    else:
        if storm.get("bit_identical") is not True:
            problems.append("storm.bit_identical must be true")
        for key in (
            "queries",
            "decisions_per_s",
            "p99_latency_us",
            "fallback_rate",
        ):
            if not isinstance(storm.get(key), (int, float)):
                problems.append(f"storm.{key} must be numeric")
        floor = metrics.get("min_decisions_per_s", 0.0)
        rate = storm.get("decisions_per_s")
        if isinstance(rate, (int, float)) and isinstance(
            floor, (int, float)
        ) and rate < floor:
            problems.append(
                f"storm.decisions_per_s {rate} is below the {floor} floor"
            )
    single = metrics.get("single")
    if not isinstance(single, dict):
        problems.append("metrics.single must be an object")
    else:
        for key in ("decisions_per_s", "p99_latency_us"):
            if not isinstance(single.get(key), (int, float)):
                problems.append(f"single.{key} must be numeric")
    reload_ = metrics.get("hot_reload")
    if not isinstance(reload_, dict):
        problems.append("metrics.hot_reload must be an object")
    else:
        if reload_.get("torn_batches") != 0:
            problems.append("hot_reload.torn_batches must be 0")
        if not isinstance(reload_.get("publishes"), int):
            problems.append("hot_reload.publishes must be an int")
    fleet = metrics.get("fleet")
    if not isinstance(fleet, dict):
        problems.append("metrics.fleet must be an object")
    else:
        for key in ("machines", "decisions", "decisions_per_s"):
            if not isinstance(fleet.get(key), (int, float)):
                problems.append(f"fleet.{key} must be numeric")
        if metrics.get("profile") == "full" and (
            not isinstance(fleet.get("machines"), int)
            or fleet["machines"] < 1_000_000
        ):
            problems.append(
                "full-profile fleet.machines must be >= 1000000"
            )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="smoke"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON artifact here (default: print to stdout)",
    )
    parser.add_argument(
        "--min-decisions-per-s",
        type=float,
        default=None,
        help="fail unless the batched storm reaches this throughput "
        "(default: the profile's own floor)",
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        default=None,
        help="validate an existing artifact's schema and exit",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        with open(args.check, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        problems = check_payload(payload)
        for problem in problems:
            print(f"{args.check}: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.check}: schema OK")
        return 1 if problems else 0

    metrics = run(args.profile)
    payload = {
        "bench": BENCH_NAME,
        "commit": commit(),
        "metrics": metrics,
    }
    rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)

    storm = metrics["storm"]
    single = metrics["single"]
    rows = [
        (
            "storm (batched)",
            f"{storm['decisions_per_s']:,.0f}",
            f"{storm['p99_latency_us']:,.0f}",
        ),
        (
            "single decide",
            f"{single['decisions_per_s']:,.0f}",
            f"{single['p99_latency_us']:,.1f}",
        ),
        (
            "fleet storm",
            f"{metrics['fleet']['decisions_per_s']:,.0f}",
            "-",
        ),
    ]
    print()
    print(render_table(
        ["path", "decisions/s", "p99 (us)"],
        rows,
        title=f"Decision serving ({args.profile} profile, "
              f"{metrics['load']['rules']:,} rules, "
              f"{storm['queries']:,} storm queries)",
    ))
    reload_ = metrics["hot_reload"]
    print(
        f"hot reload: {reload_['publishes']} publishes under load, "
        f"{reload_['generations_observed']} generations observed, "
        f"{reload_['torn_batches']} torn batches"
    )
    fleet = metrics["fleet"]
    print(
        f"fleet storm: {fleet['machines']:,} machines / "
        f"{fleet['days']:g} days -> {fleet['decisions']:,} decisions "
        f"in {fleet['wall_clock_s']}s"
    )

    if not storm["bit_identical"]:
        print(
            "FAIL: binary-served answers diverge from the JSON reference",
            file=sys.stderr,
        )
        return 1
    if reload_["torn_batches"]:
        print(
            f"FAIL: {reload_['torn_batches']} batches observed a torn "
            "policy table",
            file=sys.stderr,
        )
        return 1
    floor = (
        args.min_decisions_per_s
        if args.min_decisions_per_s is not None
        else PROFILES[args.profile]["min_decisions_per_s"]
    )
    if storm["decisions_per_s"] < floor:
        print(
            f"FAIL: {storm['decisions_per_s']:,.0f} decisions/s below "
            f"the {floor:,.0f} floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
