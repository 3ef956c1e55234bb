"""Fleet-scale throughput: vectorized wave engine vs the event reference.

Two measurements, mirroring ``bench_training_throughput``'s shape:

* **comparison** — the same cluster scenario on both backends, which
  draw from the same per-machine streams.  They are bit-identical by
  contract (the differential fuzz suite pins it), so the benchmark first
  asserts exact log equality and only then reports the speedup — a
  speedup against diverging results would be meaningless.
* **scale** — the fleet engine alone on a fleet the event backend
  cannot reasonably hold (10^5+ machines in the full profile),
  reporting machines simulated per wall-clock second.

Standalone by design (CI runs it outside pytest)::

    PYTHONPATH=src python benchmarks/bench_fleet_scale.py \
        --profile smoke --out BENCH_fleet_scale.json
    PYTHONPATH=src python benchmarks/bench_fleet_scale.py \
        --check BENCH_fleet_scale.json

The committed ``BENCH_fleet_scale.json`` at the repo root holds the
``full`` profile's numbers.  Schema::

    {"bench": "fleet_scale", "commit": "<sha>", "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.actions import default_catalog
from repro.cluster.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.faults import FaultCatalog, FaultType
from repro.cluster.fleet import FleetEngine
from repro.policies import UserDefinedPolicy
from repro.util.rng import RngStreams
from repro.util.tables import render_table

BENCH_NAME = "fleet_scale"
DAY = 86_400.0
SEED = 11

#: Profile -> scenario sizes and the speedup floor the comparison must
#: clear.  The smoke profile keeps the event-backend run short enough
#: for CI while still comparing at the 10^4-machine scale the floor is
#: stated for; the full profile is the committed baseline and adds the
#: 10^5-machine fleet-only scale run.
PROFILES = {
    "smoke": {
        "comparison_machines": 10_000,
        "comparison_days": 10.0,
        "scale_machines": 20_000,
        "scale_days": 10.0,
        "min_speedup": 5.0,
    },
    "full": {
        "comparison_machines": 10_000,
        "comparison_days": 20.0,
        "scale_machines": 100_000,
        "scale_days": 60.0,
        "min_speedup": 5.0,
    },
}


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_faults() -> FaultCatalog:
    """A small catalog with secondaries and noise-compatible weights."""
    return FaultCatalog(
        [
            FaultType(
                name="transient",
                primary_symptom="error:Transient",
                cure_probabilities={"TRYNOP": 0.7, "REBOOT": 0.95},
                weight=3.0,
            ),
            FaultType(
                name="hard",
                primary_symptom="error:Hard",
                secondary_symptoms=("warn:Side",),
                cure_probabilities={"REIMAGE": 0.95},
                weight=1.0,
            ),
        ]
    )


def _config(machines: int, days: float, **overrides) -> dict:
    params = dict(
        machine_count=machines,
        duration=days * DAY,
        mean_time_between_failures=7.5 * DAY,
        noise_probability=0.042,
    )
    params.update(overrides)
    return params


def _comparison(machines: int, days: float) -> Dict[str, object]:
    catalog = default_catalog()
    params = _config(machines, days)

    started = time.perf_counter()
    simulator = ClusterSimulator(
        ClusterConfig(**params),
        bench_faults(),
        UserDefinedPolicy(catalog),
        catalog,
        RngStreams(SEED),
    )
    event_log = simulator.run()
    event_s = time.perf_counter() - started

    started = time.perf_counter()
    engine = FleetEngine(
        ClusterConfig(backend="fleet", **params),
        bench_faults(),
        UserDefinedPolicy(catalog),
        catalog,
        RngStreams(SEED),
    )
    result = engine.run()
    engine_s = time.perf_counter() - started
    started = time.perf_counter()
    fleet_log = result.to_log()
    to_log_s = time.perf_counter() - started
    fleet_s = engine_s + to_log_s

    return {
        "machines": machines,
        "days": days,
        "log_entries": len(event_log.entries),
        "backends": {
            "event": {
                "wall_clock_s": round(event_s, 4),
                "machines_per_s": round(machines / event_s, 1),
            },
            "fleet": {
                "wall_clock_s": round(fleet_s, 4),
                "engine_s": round(engine_s, 4),
                "to_log_s": round(to_log_s, 4),
                "machines_per_s": round(machines / fleet_s, 1),
            },
        },
        # End-to-end (both sides produce a sorted RecoveryLog); the
        # engine-only ratio is larger but compares unlike outputs.
        "speedup": round(event_s / fleet_s, 2),
        "bit_identical": fleet_log == event_log,
    }


def _scale(machines: int, days: float) -> Dict[str, object]:
    catalog = default_catalog()
    started = time.perf_counter()
    engine = FleetEngine(
        ClusterConfig(backend="fleet", **_config(machines, days)),
        bench_faults(),
        UserDefinedPolicy(catalog),
        catalog,
        RngStreams(SEED),
    )
    result = engine.run()
    elapsed = time.perf_counter() - started
    return {
        "machines": machines,
        "days": days,
        "wall_clock_s": round(elapsed, 4),
        "machines_per_s": round(machines / elapsed, 1),
        "processes": result.process_count,
        "processes_per_s": round(result.process_count / elapsed, 1),
        "log_entries": result.entry_count,
    }


def run(profile: str) -> Dict[str, object]:
    spec = PROFILES[profile]
    return {
        "profile": profile,
        "seed": SEED,
        "comparison": _comparison(
            spec["comparison_machines"], spec["comparison_days"]
        ),
        "scale": _scale(spec["scale_machines"], spec["scale_days"]),
        "min_speedup": spec["min_speedup"],
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
    comparison = metrics.get("comparison")
    if not isinstance(comparison, dict):
        problems.append("metrics.comparison must be an object")
    else:
        if comparison.get("bit_identical") is not True:
            problems.append("comparison.bit_identical must be true")
        machines = comparison.get("machines")
        if not isinstance(machines, int) or machines < 10_000:
            problems.append("comparison.machines must be >= 10000")
        speedup = comparison.get("speedup")
        if not isinstance(speedup, (int, float)):
            problems.append("comparison.speedup must be numeric")
        elif speedup < metrics.get("min_speedup", 5.0):
            problems.append(
                f"comparison.speedup {speedup} is below the "
                f"{metrics.get('min_speedup', 5.0)}x floor"
            )
        backends = comparison.get("backends")
        if not isinstance(backends, dict) or set(backends) != {
            "event",
            "fleet",
        }:
            problems.append(
                "comparison.backends must have exactly ['event', 'fleet']"
            )
        else:
            for name, stats in backends.items():
                for key in ("wall_clock_s", "machines_per_s"):
                    if not isinstance(stats.get(key), (int, float)):
                        problems.append(
                            f"backends.{name}.{key} must be numeric"
                        )
    scale = metrics.get("scale")
    if not isinstance(scale, dict):
        problems.append("metrics.scale must be an object")
    else:
        for key in (
            "machines",
            "wall_clock_s",
            "machines_per_s",
            "processes",
            "log_entries",
        ):
            if not isinstance(scale.get(key), (int, float)):
                problems.append(f"scale.{key} must be numeric")
        if metrics.get("profile") == "full" and (
            not isinstance(scale.get("machines"), int)
            or scale["machines"] < 100_000
        ):
            problems.append(
                "full-profile scale.machines must be >= 100000"
            )
    return problems


def check_overhead(
    metrics: Dict[str, object],
    baseline: Dict[str, object],
    *,
    max_overhead: float = 0.05,
) -> List[str]:
    """Regression guard: throughput loss vs a baseline artifact.

    Compares this run's scale-leg ``machines_per_s`` against the
    committed baseline (the pre-refactor fleet numbers); a loss beyond
    ``max_overhead`` is a failure.  Both runs must measure the same
    scale leg, otherwise the ratio is meaningless.
    """
    problems = []
    base_metrics = baseline.get("metrics")
    if not isinstance(base_metrics, dict):
        return ["baseline has no metrics object"]
    base_scale = base_metrics.get("scale")
    scale = metrics.get("scale")
    if not isinstance(base_scale, dict) or not isinstance(scale, dict):
        return ["both artifacts need a metrics.scale object"]
    for key in ("machines", "days"):
        if base_scale.get(key) != scale.get(key):
            problems.append(
                f"scale legs differ on {key}: baseline "
                f"{base_scale.get(key)} vs current {scale.get(key)}; "
                "overhead comparison needs identical workloads"
            )
    if problems:
        return problems
    base_rate = base_scale.get("machines_per_s")
    rate = scale.get("machines_per_s")
    if not isinstance(base_rate, (int, float)) or base_rate <= 0:
        return ["baseline scale.machines_per_s must be positive"]
    overhead = (base_rate - rate) / base_rate
    if overhead > max_overhead:
        problems.append(
            f"scale throughput {rate:,} machines/s is "
            f"{overhead:.1%} below the baseline {base_rate:,} "
            f"(tolerated: {max_overhead:.0%})"
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
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the end-to-end event/fleet speedup reaches "
        "this (default: the profile's own floor)",
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        default=None,
        help="validate an existing artifact's schema and exit",
    )
    parser.add_argument(
        "--against",
        metavar="FILE",
        default=None,
        help="overhead guard: compare this run's scale throughput "
        "against a baseline artifact and fail on regression beyond "
        "--max-overhead",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="tolerated fractional throughput loss vs --against "
        "(default 0.05 = 5%%)",
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
        "commit": _commit(),
        "metrics": metrics,
    }
    rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)

    comparison = metrics["comparison"]
    rows = [
        (
            name,
            stats["wall_clock_s"],
            stats["machines_per_s"],
        )
        for name, stats in comparison["backends"].items()
    ]
    print()
    print(render_table(
        ["backend", "wall-clock (s)", "machines/s"],
        rows,
        title=f"Fleet comparison ({args.profile} profile, "
              f"{comparison['machines']:,} machines, "
              f"{comparison['days']:g} days)",
    ))
    print(f"speedup (end-to-end): {comparison['speedup']}x")
    scale = metrics["scale"]
    print(
        f"scale run: {scale['machines']:,} machines in "
        f"{scale['wall_clock_s']}s = {scale['machines_per_s']:,} "
        f"machines/s ({scale['processes']:,} recoveries)"
    )

    if not comparison["bit_identical"]:
        print("FAIL: backends diverged — logs are not bit-identical",
              file=sys.stderr)
        return 1
    floor = (
        args.min_speedup
        if args.min_speedup is not None
        else PROFILES[args.profile]["min_speedup"]
    )
    if comparison["speedup"] < floor:
        print(
            f"FAIL: speedup {comparison['speedup']}x below the "
            f"{floor}x floor",
            file=sys.stderr,
        )
        return 1
    if args.against is not None:
        with open(args.against, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = check_overhead(
            metrics, baseline, max_overhead=args.max_overhead
        )
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        if problems:
            return 1
        base_rate = baseline["metrics"]["scale"]["machines_per_s"]
        rate = scale["machines_per_s"]
        print(
            f"overhead guard: {rate:,} vs baseline {base_rate:,} "
            f"machines/s ({(base_rate - rate) / base_rate:+.1%} "
            f"overhead, {args.max_overhead:.0%} tolerated)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
