"""Command-line interface: the full offline workflow without writing code.

    python -m repro generate --out cluster.jsonl
    python -m repro inspect  --log cluster.jsonl
    python -m repro mine     --log cluster.jsonl
    python -m repro train    --log cluster.jsonl --fraction 0.4 --out policy.json
    python -m repro train    --log cluster.jsonl --out policy.json \
                             --workers 4 --checkpoint-dir ckpt/ --resume
    python -m repro evaluate --log cluster.jsonl --policy policy.json --fraction 0.4
    python -m repro experiment --figure fig9
    python -m repro lint src/repro --baseline lint-baseline.json

Every subcommand prints plain-text reports; ``experiment`` regenerates a
paper figure's rows (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.actions.action import default_catalog
from repro.core.config import PipelineConfig
from repro.core.pipeline import RecoveryPolicyLearner
from repro.errors import ConfigurationError, ReproError
from repro.evaluation.split import time_ordered_split
from repro.mining.clustering import coverage_curve
from repro.mining.noise import filter_noise
from repro.mining.streaming import mine_log_streaming
from repro.policies.serialization import load_policy, save_policy
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog.io import (
    DEFAULT_CHUNK_SIZE,
    LOG_FORMATS,
    read_log,
    write_log_jsonl,
    write_log_text,
)
from repro.recoverylog.stats import compute_statistics
from repro.scenario.presets import ScenarioSpec
from repro.tracegen.calibration import calibrate
from repro.tracegen.generator import generate_trace
from repro.tracegen.workload import (
    default_config,
    paper_scale_config,
    small_config,
)
from repro.util.tables import render_series, render_table

__all__ = ["main", "build_parser"]

_SCALES = {
    "small": small_config,
    "default": default_config,
    "paper": paper_scale_config,
}


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Reinforcement Learning Approach to "
            "Automatic Error Recovery' (DSN 2007)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic cluster recovery log"
    )
    generate.add_argument("--out", required=True, help="output path")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--scale", choices=sorted(_SCALES), default="default"
    )
    generate.add_argument(
        "--format", choices=("jsonl", "text"), default="jsonl"
    )
    generate.add_argument(
        "--drift",
        type=int,
        default=1,
        metavar="EPOCHS",
        help="catalog-drift epochs: fault weights, cure probabilities "
        "and cost scales shift at each evenly-spaced boundary "
        "(default 1 = stationary)",
    )
    generate.add_argument(
        "--drift-strength",
        type=float,
        default=0.8,
        help="scale of the per-epoch perturbation (log-normal jitter)",
    )
    generate.add_argument(
        "--machine-classes",
        type=int,
        default=1,
        metavar="N",
        help="heterogeneous machine classes with per-class action costs "
        "and cure rates; symptoms are decorated symptom@class so "
        "per-(class, error type) policies emerge (default 1 = "
        "homogeneous)",
    )
    generate.add_argument(
        "--cascade",
        type=float,
        default=0.0,
        metavar="STRENGTH",
        help="cascading faults: expected induced neighbour onsets per "
        "onset, in [0, 1) (default 0 = independent; runs on the "
        "sequential event engine)",
    )

    inspect = commands.add_parser(
        "inspect", help="summarize a recovery log"
    )
    _add_log_arguments(inspect)

    mine = commands.add_parser(
        "mine", help="mine symptom clusters and filter noise"
    )
    _add_log_arguments(mine)
    mine.add_argument("--minp", type=float, default=0.1)
    mine.add_argument(
        "--stream",
        action="store_true",
        help="mine in bounded memory with the streaming pipeline "
        "(chunked reads, emit-on-close segmentation, incremental "
        "co-occurrence counts); results match the in-memory path",
    )
    mine.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        help="with --stream: entries read per chunk "
        f"(default {DEFAULT_CHUNK_SIZE:,}; the output never depends "
        "on this)",
    )

    train = commands.add_parser(
        "train", help="learn a recovery policy from a log"
    )
    _add_log_arguments(train)
    train.add_argument("--out", required=True, help="policy JSON path")
    train.add_argument(
        "--fraction",
        type=float,
        default=1.0,
        help="chronological fraction of the log to train on, in (0, 1] "
        "(1.0 = all)",
    )
    train.add_argument("--top-k", type=int, default=40)
    train.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "processes to shard per-error-type training over "
            "(results are identical for every worker count)"
        ),
    )
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist each finished type's course here (enables --resume)",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip types already checkpointed in --checkpoint-dir by a "
            "run with the same configuration"
        ),
    )

    evaluate = commands.add_parser(
        "evaluate",
        help="evaluate a saved policy on the log's held-out remainder",
    )
    _add_log_arguments(evaluate)
    evaluate.add_argument("--policy", required=True)
    evaluate.add_argument("--fraction", type=float, default=0.4)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper figure's rows"
    )
    experiment.add_argument(
        "--figure",
        required=True,
        choices=(
            "table1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "fig14", "summary",
            "families",
        ),
    )
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument(
        "--scale", choices=sorted(_SCALES), default="default"
    )

    export = commands.add_parser(
        "export-policy",
        help="convert a JSON policy to the zero-copy binary serving format",
    )
    export.add_argument("--policy", required=True, help="JSON policy path")
    export.add_argument("--out", required=True, help="binary output path")
    export.add_argument(
        "--verify",
        action="store_true",
        help="reload the binary file (checksum and rows) and check its "
        "label, vocabularies, keys, action ids and cost bits equal the "
        "JSON policy's before reporting success",
    )

    serve = commands.add_parser(
        "serve",
        help="serve (error_type, state) -> action lookups from a policy",
    )
    serve.add_argument(
        "--policy",
        required=True,
        help="policy file: binary (memory-mapped) or JSON",
    )
    workload = serve.add_mutually_exclusive_group(required=True)
    workload.add_argument(
        "--queries",
        help="answer state records from this JSONL file "
        '({"error_type": ..., "tried": [...]} per line)',
    )
    workload.add_argument(
        "--storm",
        type=int,
        metavar="N",
        help="run a synthetic N-query storm sampled from the rule table",
    )
    workload.add_argument(
        "--fleet-machines",
        type=int,
        metavar="N",
        help="run a simulated N-machine fleet whose decide waves query "
        "the server",
    )
    serve.add_argument(
        "--out",
        default=None,
        help="with --queries: write JSONL answers here (default: stdout)",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=1024,
        help="micro-batch size for storm and query serving",
    )
    serve.add_argument(
        "--unknown-fraction",
        type=float,
        default=0.1,
        help="with --storm: fraction of queries guaranteed to miss the "
        "rule table and exercise the fallback",
    )
    serve.add_argument(
        "--fleet-days",
        type=float,
        default=5.0,
        help="with --fleet-machines: simulated days of fleet operation",
    )
    serve.add_argument("--seed", type=int, default=7)

    lint = commands.add_parser(
        "lint",
        help="run the determinism-contract analyzer (rules R1-R10)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: the installed repro package)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to enable, e.g. R1,R3 (default: all)",
    )
    lint.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program dataflow pass (rules R7-R10)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint.add_argument(
        "--baseline",
        default=None,
        help="JSON baseline of grandfathered findings to subtract",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )
    lint.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print one rule's rationale and a good/bad example, then exit",
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage timing to stderr",
    )
    lint.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="fail if the run exceeds this wall-clock budget, printing "
        "the per-stage timings gathered so far",
    )
    return parser


def _add_log_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared --log/--log-format pair for log-consuming commands."""
    parser.add_argument("--log", required=True)
    parser.add_argument(
        "--log-format",
        choices=LOG_FORMATS,
        default="auto",
        help="on-disk log format; 'auto' sniffs the content (a JSONL "
        "log keeps parsing as JSONL whatever its file extension)",
    )


def _read_log(args: argparse.Namespace):
    return read_log(args.log, log_format=args.log_format)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _SCALES[args.scale](seed=args.seed)
    spec = ScenarioSpec(
        drift_epochs=args.drift,
        drift_strength=args.drift_strength,
        machine_classes=args.machine_classes,
        cascade_strength=args.cascade,
    )
    if not spec.is_trivial:
        config = dataclasses.replace(config, scenario=spec)
    trace = generate_trace(config)
    writer = write_log_jsonl if args.format == "jsonl" else write_log_text
    count = writer(trace.log, args.out)
    processes = trace.log.to_processes()
    if trace.scenario is not None:
        model = trace.scenario
        print(
            f"scenario: {model.epoch_count} epoch(s), "
            f"{model.class_count} machine class(es), "
            f"cascade={'on' if model.has_cascade else 'off'}"
        )
    print(f"wrote {count:,} entries ({len(processes):,} recovery "
          f"processes) to {args.out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    log = _read_log(args)
    processes = log.to_processes()
    stats = compute_statistics(processes)
    print(calibrate(processes).render())
    print()
    rows = [
        (name, count)
        for name, count in sorted(
            stats.action_counts.items(), key=lambda kv: -kv[1]
        )
    ]
    print(render_table(["action", "executions"], rows,
                       title="Repair-action usage"))
    print(f"\nmean downtime per process: {stats.mean_downtime:,.0f} s")
    return 0


_MINE_CURVE_MINPS = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.stream:
        miner, summary = mine_log_streaming(
            args.log,
            args.minp,
            log_format=args.log_format,
            chunk_size=args.chunk_size,
        )
        print(f"{summary.cluster_count} symptom clusters at "
              f"minp = {args.minp:g}")
        print(f"{summary.noise_fraction:.2%} of "
              f"{summary.process_count:,} processes "
              "filtered as noisy (multi-cluster)")
        print(f"streamed {summary.entry_count:,} entries "
              f"({summary.orphan_count:,} orphans, "
              f"{summary.incomplete_count:,} machines left open)")
        curve = miner.coverage_curve(minps=_MINE_CURVE_MINPS)
    else:
        log = _read_log(args)
        processes = log.to_processes()
        result = filter_noise(processes, args.minp)
        print(f"{result.clustering.cluster_count()} symptom clusters at "
              f"minp = {args.minp:g}")
        print(f"{result.noise_fraction:.2%} of {len(processes):,} processes "
              "filtered as noisy (multi-cluster)")
        curve = coverage_curve(processes, minps=_MINE_CURVE_MINPS)
    print()
    print(render_series({"coverage": curve}, x_label="minp",
                        title="Single-cluster process coverage"))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.learning.telemetry import TelemetryRecorder

    if not 0.0 < args.fraction <= 1.0:
        raise ConfigurationError(
            f"--fraction must be in (0, 1], got {args.fraction}"
        )
    log = _read_log(args)
    processes = log.to_processes()
    if args.fraction < 1.0:
        train_set, _test = time_ordered_split(processes, args.fraction)
    else:
        train_set = processes
    recorder = TelemetryRecorder()
    learner = RecoveryPolicyLearner(
        config=PipelineConfig(
            top_k_types=args.top_k,
            n_workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        ),
        telemetry=recorder,
    ).fit(train_set)
    policy = learner.trained_policy()
    count = save_policy(policy, args.out)
    assert learner.training_result_ is not None
    assert learner.outcomes_ is not None
    unconverged = learner.training_result_.unconverged_types()
    resumed = sum(
        1 for outcome in learner.outcomes_.values() if outcome.from_checkpoint
    )
    trained = len(learner.outcomes_) - resumed
    print(f"trained {trained} error types on {len(train_set):,} processes "
          f"(workers={args.workers})")
    if resumed:
        print(f"resumed {resumed} error types from checkpoints in "
              f"{args.checkpoint_dir}")
    if trained:
        print(f"training: {recorder.total_episodes():,} episodes, "
              f"{recorder.total_wall_clock():.1f} s aggregate worker time")
    print(f"saved {count} state-action rules to {args.out}")
    if unconverged:
        print(f"note: {len(unconverged)} training courses hit the sweep cap")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    log = _read_log(args)
    processes = log.to_processes()
    _train, test = time_ordered_split(processes, args.fraction)
    policy = load_policy(args.policy)
    clean_test = filter_noise(test).clean
    from repro.evaluation.evaluator import PolicyEvaluator
    from repro.policies.hybrid import HybridPolicy

    catalog = default_catalog()
    evaluator = PolicyEvaluator(
        clean_test, catalog, error_types=policy.error_types()
    )
    user = evaluator.evaluate(UserDefinedPolicy(catalog))
    trained = evaluator.evaluate(policy)
    hybrid = evaluator.evaluate(
        HybridPolicy(policy, UserDefinedPolicy(catalog))
    )
    rows = [
        ("user-defined", f"{user.overall_relative_cost:.4f}",
         f"{user.overall_coverage:.2%}"),
        (policy.name, f"{trained.overall_relative_cost:.4f}",
         f"{trained.overall_coverage:.2%}"),
        ("hybrid", f"{hybrid.overall_relative_cost:.4f}",
         f"{hybrid.overall_coverage:.2%}"),
    ]
    print(render_table(
        ["policy", "relative downtime", "coverage"], rows,
        title=f"Held-out evaluation (train fraction {args.fraction:g})",
    ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import figures
    from repro.experiments.scenario import build_scenario

    if args.figure == "families":
        # Builds its own per-family scenarios; the shared stationary
        # scenario below would be wasted work.
        from repro.experiments.families import scenario_families

        report = scenario_families(_SCALES[args.scale](seed=args.seed))
        print(report.render())
        return 0

    scenario = build_scenario(_SCALES[args.scale](seed=args.seed))
    if args.figure == "table1":
        print(figures.table1_example_process(scenario).render())
    elif args.figure == "fig3":
        print(figures.fig3_symptom_sets(scenario).render())
    elif args.figure == "fig5":
        print(figures.fig5_error_type_counts(scenario).render())
    elif args.figure == "fig6":
        print(figures.fig6_downtime(scenario).render())
    elif args.figure == "fig7":
        print(figures.fig7_platform_validation(scenario).render())
    elif args.figure == "fig8":
        print(figures.fig8_trained_relative_cost(scenario).render())
    elif args.figure == "fig9":
        print(figures.fig9_trained_total_cost(scenario).render())
    elif args.figure == "fig10":
        print(figures.fig10_coverage(scenario).render())
    elif args.figure == "fig11":
        for result in figures.fig11_hybrid_per_type(scenario):
            print(result.render())
            print()
    elif args.figure == "fig12":
        print(figures.fig12_hybrid_total_cost(scenario).render())
    elif args.figure == "fig13":
        print(figures.fig13_training_time(scenario).render_fig13())
    elif args.figure == "fig14":
        print(figures.fig14_selection_tree_quality(scenario).render_fig14())
    elif args.figure == "summary":
        from repro.experiments.summary import reproduction_summary

        summary = reproduction_summary(scenario)
        print(summary.render())
        # A diverging audit fails the command, so CI can gate on it.
        return 0 if summary.all_shapes_hold else 1
    return 0


def _cmd_export_policy(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.policies.serialization import save_policy_binary

    policy = load_policy(args.policy)
    count = save_policy_binary(policy, args.out)
    size = Path(args.out).stat().st_size
    print(f"exported {count:,} rules to {args.out} ({size:,} bytes)")
    if args.verify:
        import numpy as np

        from repro.policies.serialization import load_policy_binary

        reloaded = load_policy_binary(args.out, verify=True)
        ours, theirs = policy.columns, reloaded.columns
        # Vocabularies, keys and action ids must be equal, costs
        # bit-identical.
        if not (
            reloaded.name == policy.name
            and ours[:4] == theirs[:4]
            and np.array_equal(ours.keys, theirs.keys)
            and np.array_equal(ours.actions, theirs.actions)
            and ours.costs.tobytes() == theirs.costs.tobytes()
        ):
            print(
                "error: binary decisions diverge from the JSON policy",
                file=sys.stderr,
            )
            return 1
        print(f"verified: all {count:,} rules decide identically")
    return 0


def _serving_policy(path: str):
    """Load a serving policy: binary containers memory-map, JSON parses."""
    from repro.policies.serialization import load_policy_binary

    with open(path, "rb") as handle:
        magic = handle.read(8)
    if magic == b"RPROPOLB":
        return load_policy_binary(path)
    return load_policy(path)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.policies.serialization import state_from_record
    from repro.records import read_lines
    from repro.serving import (
        DecisionServer,
        fleet_storm,
        run_storm,
        storm_states,
    )

    if args.batch_size < 1:
        raise ConfigurationError(
            f"--batch-size must be >= 1, got {args.batch_size}"
        )
    policy = _serving_policy(args.policy)
    server = DecisionServer(policy, UserDefinedPolicy(default_catalog()))
    print(
        f"serving {len(policy):,} rules ({policy.name!r}) "
        f"from {args.policy}",
        file=sys.stderr,
    )

    if args.queries is not None:
        answered = 0
        out_handle = (
            open(args.out, "w", encoding="utf-8")
            if args.out
            else sys.stdout
        )
        try:
            batch = []
            for state in read_lines(args.queries, state_from_record):
                batch.append(state)
                if len(batch) >= args.batch_size:
                    answered += _serve_batch(server, batch, out_handle)
                    batch = []
            if batch:
                answered += _serve_batch(server, batch, out_handle)
        finally:
            if args.out:
                out_handle.close()
        print(
            f"answered {answered:,} queries "
            f"({server.fallback_count:,} via fallback)",
            file=sys.stderr if not args.out else sys.stdout,
        )
        return 0

    if args.storm is not None:
        states = storm_states(
            policy,
            args.storm,
            unknown_fraction=args.unknown_fraction,
            seed=args.seed,
        )
        report = run_storm(server, states, batch_size=args.batch_size)
        print(report.render())
        return 0

    result = fleet_storm(
        server,
        machines=args.fleet_machines,
        days=args.fleet_days,
        seed=args.seed,
    )
    print(
        f"fleet storm: {result.machines:,} machines x "
        f"{result.days:g} days -> {result.decisions:,} decisions "
        f"({result.processes:,} recoveries, "
        f"{result.fallbacks:,} fallbacks)"
    )
    versions = ", ".join(
        f"v{version}: {count:,}" for version, count in result.versions.items()
    )
    print(f"decisions by policy generation: {versions}")
    return 0


def _serve_batch(server, batch, out_handle) -> int:
    import json as json_module

    for state, decision in zip(batch, server.decide_batch(batch)):
        record = {
            "error_type": state.error_type,
            "tried": list(state.tried),
            "action": decision.action,
            "source": decision.source,
            "expected_cost": decision.expected_cost,
            "version": decision.version,
            "fell_back": decision.fell_back,
        }
        out_handle.write(json_module.dumps(record) + "\n")
    return len(batch)


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        Baseline,
        render_explain,
        render_json,
        render_sarif,
        render_text,
        run_lint,
    )
    from repro.analysis.engine import BudgetExceededError

    if args.explain:
        try:
            print(render_explain(args.explain))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    paths = args.paths or [str(Path(__file__).resolve().parent)]
    rules = args.rules.split(",") if args.rules else None
    baseline = None
    if args.baseline and not args.update_baseline:
        baseline = Baseline.load(args.baseline)
    try:
        report = run_lint(
            paths,
            rules=rules,
            baseline=baseline,
            root=Path.cwd(),
            deep=args.deep,
            stats=args.stats,
            budget_seconds=args.budget_seconds,
        )
    except BudgetExceededError as exc:
        print(exc.stats.render(), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.stats and report.stats is not None:
        # stderr, so --format json/sarif stdout stays machine-readable
        print(report.stats.render(), file=sys.stderr)
    if args.update_baseline:
        if not args.baseline:
            raise ConfigurationError(
                "--update-baseline requires --baseline PATH"
            )
        Baseline(list(report.findings)).save(args.baseline)
        count = len(report.findings)
        print(
            f"wrote {count} finding{'' if count == 1 else 's'} to "
            f"{args.baseline}"
        )
        return 0
    renderer = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[args.format]
    print(renderer(report))
    return 0 if report.clean else 1


_HANDLERS = {
    "generate": _cmd_generate,
    "inspect": _cmd_inspect,
    "mine": _cmd_mine,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "export-policy": _cmd_export_policy,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
