"""repro — reproduction of "A Reinforcement Learning Approach to Automatic
Error Recovery" (Zhu & Yuan, DSN 2007).

Quickstart::

    from repro import (
        RecoveryPolicyLearner, generate_trace, default_config,
        time_ordered_split,
    )

    trace = generate_trace(default_config())
    train, test = time_ordered_split(trace.log.to_processes(), 0.4)
    learner = RecoveryPolicyLearner().fit(train)
    result = learner.make_evaluator(test).evaluate(learner.hybrid_policy())
    print(result.overall_relative_cost)   # < 0.9: >10% downtime saved

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.actions import ActionCatalog, RepairAction, default_catalog
from repro.core import PipelineConfig, RecoveryPolicyLearner
from repro.errors import ReproError, UnhandledStateError
from repro.evaluation import PolicyEvaluator, time_ordered_split
from repro.mdp import RecoveryState
from repro.policies import (
    HybridPolicy,
    Policy,
    TrainedPolicy,
    UserDefinedPolicy,
)
from repro.mining import StreamingMiner
from repro.recoverylog import (
    LogEntry,
    RecoveryLog,
    RecoveryProcess,
    StreamingSegmenter,
    iter_log_entries,
    read_log,
    read_log_jsonl,
    read_log_text,
    write_log_jsonl,
    write_log_text,
)
from repro.session import EpisodeTelemetry, EpisodeTrace, StepTrace
from repro.tracegen import (
    TraceConfig,
    default_config,
    generate_trace,
    paper_scale_config,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ActionCatalog",
    "RepairAction",
    "default_catalog",
    "PipelineConfig",
    "RecoveryPolicyLearner",
    "ReproError",
    "UnhandledStateError",
    "PolicyEvaluator",
    "time_ordered_split",
    "RecoveryState",
    "Policy",
    "UserDefinedPolicy",
    "TrainedPolicy",
    "HybridPolicy",
    "LogEntry",
    "RecoveryLog",
    "RecoveryProcess",
    "read_log",
    "read_log_text",
    "write_log_text",
    "read_log_jsonl",
    "write_log_jsonl",
    "iter_log_entries",
    "StreamingSegmenter",
    "StreamingMiner",
    "EpisodeTelemetry",
    "EpisodeTrace",
    "StepTrace",
    "TraceConfig",
    "default_config",
    "paper_scale_config",
    "generate_trace",
]
