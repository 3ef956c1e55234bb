"""Training-throughput baseline: episode telemetry off vs on.

Trains the largest error types of a fixed-seed scenario twice — once
plain, once with an :class:`~repro.learning.telemetry.EpisodeRecorder`
attached as episode telemetry — and reports wall-clock, episodes/sec
and sweeps/sec for each.  Telemetry is a pure observer by contract
(same RNG draw sequence, Q values and convergence sweeps), so the
benchmark first asserts exact equality of every training outcome and
only then reports throughput: the on/off gap is the price of observing
training, not of training differently.

Standalone by design (CI runs it outside pytest)::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py \
        --profile smoke --out BENCH_training_throughput.json
    PYTHONPATH=src python benchmarks/bench_training_throughput.py \
        --check BENCH_training_throughput.json

The committed ``BENCH_training_throughput.json`` at the repo root holds
the ``full`` profile's numbers and is the baseline later perf work is
measured against.  Schema::

    {"bench": "training_throughput", "commit": "<sha>", "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.scenario import build_scenario, default_scenario
from repro.learning.qlearning import QLearningConfig, QLearningTrainer
from repro.learning.telemetry import EpisodeRecorder
from repro.simplatform.platform import SimulationPlatform
from repro.tracegen.workload import small_config
from repro.util.tables import render_table

BENCH_NAME = "training_throughput"

#: Profile -> error types trained, sweep cap and timing repeats.  The
#: smoke profile exists for CI and must finish in seconds; the full
#: profile is the committed baseline.
PROFILES = {
    "smoke": {"top_types": 2, "max_sweeps": 25, "repeats": 1},
    "full": {"top_types": 3, "max_sweeps": 120, "repeats": 3},
}

#: The two measured courses: episode telemetry detached and attached.
MODES = ("off", "on")


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


def _largest_groups(
    scenario, top_types: int
) -> List[Tuple[str, Tuple]]:
    """The ``top_types`` error types with the most training processes."""
    groups = scenario.registry.partition(scenario.clean)
    ranked = sorted(
        groups.items(), key=lambda item: (-len(item[1]), item[0])
    )
    return ranked[:top_types]


def _snapshot(result) -> Tuple:
    """Every observable training outcome, for exact comparison."""
    table = result.qtable
    cells = tuple(
        sorted(
            (
                (state.error_type, state.tried),
                action,
                table.value(state, action),
                table.visit_count(state, action),
            )
            for state in table.states()
            for action in table.action_names
            if table.visit_count(state, action) > 0
        )
    )
    return (
        result.sweeps_run,
        result.sweeps_to_convergence,
        result.converged,
        result.episodes,
        cells,
    )


def _run_course(
    mode: str,
    scenario,
    groups: Sequence[Tuple[str, Tuple]],
    max_sweeps: int,
    repeats: int,
) -> Tuple[Dict[str, object], List[Tuple]]:
    """Train all groups with telemetry ``mode`` on a fresh platform.

    A fresh platform per *repeat* charges the one-time replay
    compilation to every measurement, so the numbers are end to end,
    not inner-loop-only.  Training is deterministic, so repeats produce
    identical results and only the minimum wall-clock (the least
    scheduler-perturbed run) is reported.
    """
    elapsed = float("inf")
    traces = 0
    for _repeat in range(repeats):
        platform = SimulationPlatform(scenario.clean, scenario.catalog)
        recorder = EpisodeRecorder() if mode == "on" else None
        trainer = QLearningTrainer(
            platform,
            QLearningConfig(max_sweeps=max_sweeps, seed=11),
            episode_telemetry=recorder,
        )
        snapshots: List[Tuple] = []
        episodes = 0
        sweeps = 0
        started = time.perf_counter()
        for error_type, processes in groups:
            result = trainer.train_type(error_type, processes)
            episodes += result.episodes
            sweeps += result.sweeps_run
            snapshots.append(_snapshot(result))
        elapsed = min(elapsed, time.perf_counter() - started)
        traces = len(recorder) if recorder is not None else 0
    return (
        {
            "wall_clock_s": round(elapsed, 4),
            "episodes": episodes,
            "sweeps": sweeps,
            "traces": traces,
            "episodes_per_s": round(episodes / elapsed, 1),
            "sweeps_per_s": round(sweeps / elapsed, 1),
        },
        snapshots,
    )


def run(profile: str) -> Dict[str, object]:
    """Measure both telemetry modes and return the metrics payload."""
    spec = PROFILES[profile]
    if profile == "smoke":
        scenario = build_scenario(small_config(seed=13, fault_count=40))
    else:
        scenario = default_scenario(seed=7)
    groups = _largest_groups(scenario, spec["top_types"])

    per_mode: Dict[str, Dict[str, object]] = {}
    snapshots: Dict[str, List[Tuple]] = {}
    for mode in MODES:
        per_mode[mode], snapshots[mode] = _run_course(
            mode, scenario, groups, spec["max_sweeps"], spec["repeats"]
        )
    return {
        "profile": profile,
        "error_types": [name for name, _ in groups],
        "training_processes": sum(len(p) for _, p in groups),
        "max_sweeps": spec["max_sweeps"],
        "seed": 11,
        "telemetry": per_mode,
        "bit_identical": snapshots["off"] == snapshots["on"],
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
    modes = metrics.get("telemetry")
    if not isinstance(modes, dict) or set(modes) != set(MODES):
        problems.append(f"metrics.telemetry must have exactly {list(MODES)}")
    else:
        for name, stats in modes.items():
            for key in (
                "wall_clock_s",
                "episodes",
                "sweeps",
                "traces",
                "episodes_per_s",
                "sweeps_per_s",
            ):
                if not isinstance(stats.get(key), (int, float)):
                    problems.append(
                        f"telemetry.{name}.{key} must be numeric"
                    )
    if metrics.get("bit_identical") is not True:
        problems.append("metrics.bit_identical must be true")
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
        "commit": _commit(),
        "metrics": metrics,
    }
    rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)

    rows = [
        (
            name,
            stats["wall_clock_s"],
            stats["episodes"],
            stats["traces"],
            stats["episodes_per_s"],
            stats["sweeps_per_s"],
        )
        for name, stats in metrics["telemetry"].items()
    ]
    print()
    print(render_table(
        [
            "telemetry",
            "wall-clock (s)",
            "episodes",
            "traces",
            "episodes/s",
            "sweeps/s",
        ],
        rows,
        title=f"Training throughput ({args.profile} profile, "
              f"{metrics['training_processes']:,} processes, "
              f"{len(metrics['error_types'])} types)",
    ))

    if not metrics["bit_identical"]:
        print("FAIL: telemetry changed the training results",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
