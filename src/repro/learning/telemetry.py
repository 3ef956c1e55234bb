"""Training telemetry: observing per-type Q-learning courses.

A production training run over dozens of error types needs to be
observable — which types are still annealing, how fast Q values are
settling, where the wall-clock goes.  :class:`TrainingTelemetry` is the
hook interface :class:`~repro.learning.qlearning.QLearningTrainer`
invokes during a course; :class:`TelemetryRecorder` is the standard
implementation that accumulates per-type convergence curves.

Telemetry is strictly an *observer*: hooks receive copies of scalar
statistics and must not mutate the Q table, so enabling telemetry can
never change training results.  When training runs on a process pool,
each worker records locally and the engine replays the recorded events
into the parent's telemetry in deterministic type order (see
:func:`replay_type_telemetry`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.session.trace import EpisodeTelemetry, EpisodeTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.learning.qlearning import TypeTrainingResult

__all__ = [
    "SweepStats",
    "TypeTelemetry",
    "TrainingTelemetry",
    "TelemetryRecorder",
    "EpisodeRecorder",
    "replay_type_telemetry",
]


@dataclass(frozen=True)
class SweepStats:
    """One sweep's observable statistics.

    Attributes
    ----------
    sweep:
        0-based sweep index within the type's course.
    episodes:
        Cumulative episodes replayed for the type (including warm-start).
    temperature:
        Boltzmann temperature at this sweep.
    max_q_delta:
        Largest absolute Q change any single episode of the sweep caused
        — the convergence-curve signal (tends to 0 as values settle).
    """

    sweep: int
    episodes: int
    temperature: float
    max_q_delta: float


@dataclass
class TypeTelemetry:
    """Everything recorded about one error type's training course."""

    error_type: str
    process_count: int
    sweeps: List[SweepStats] = field(default_factory=list)
    wall_clock: float = 0.0
    episodes: int = 0
    sweeps_run: int = 0
    converged: bool = False
    finished: bool = False

    def q_delta_curve(self) -> Tuple[float, ...]:
        """Per-sweep maximum Q change (the convergence curve)."""
        return tuple(s.max_q_delta for s in self.sweeps)

    def temperature_curve(self) -> Tuple[float, ...]:
        """Per-sweep Boltzmann temperature."""
        return tuple(s.temperature for s in self.sweeps)


class TrainingTelemetry:
    """Hook interface invoked by the trainer; the base is a no-op.

    Subclass and override whichever hooks are interesting.  Hooks must
    treat their arguments as read-only.
    """

    def on_type_start(self, error_type: str, process_count: int) -> None:
        """A type's training course is about to begin."""

    def on_sweep(
        self,
        error_type: str,
        sweep: int,
        episodes: int,
        temperature: float,
        max_q_delta: float,
    ) -> None:
        """A sweep finished; ``episodes`` is cumulative for the type."""

    def on_type_end(
        self,
        error_type: str,
        result: "TypeTrainingResult",
        wall_clock: float,
    ) -> None:
        """A type's course finished (converged or hit the sweep cap)."""


class TelemetryRecorder(TrainingTelemetry):
    """Record per-type curves and summaries from the trainer's hooks."""

    def __init__(self) -> None:
        self._per_type: Dict[str, TypeTelemetry] = {}

    @property
    def per_type(self) -> Dict[str, TypeTelemetry]:
        """``{error type: its recorded telemetry}``."""
        return self._per_type

    def get(self, error_type: str) -> Optional[TypeTelemetry]:
        return self._per_type.get(error_type)

    def total_episodes(self) -> int:
        """Episodes replayed across all recorded types."""
        return sum(t.episodes for t in self._per_type.values())

    def total_wall_clock(self) -> float:
        """Sum of per-type training wall-clock seconds.

        Under a process pool this is aggregate *worker* time, which can
        exceed elapsed time — the ratio is the achieved parallelism.
        """
        return sum(t.wall_clock for t in self._per_type.values())

    # -- TrainingTelemetry hooks ---------------------------------------
    def on_type_start(self, error_type: str, process_count: int) -> None:
        self._per_type[error_type] = TypeTelemetry(
            error_type=error_type, process_count=process_count
        )

    def on_sweep(
        self,
        error_type: str,
        sweep: int,
        episodes: int,
        temperature: float,
        max_q_delta: float,
    ) -> None:
        record = self._per_type.setdefault(
            error_type,
            TypeTelemetry(error_type=error_type, process_count=0),
        )
        record.sweeps.append(
            SweepStats(
                sweep=sweep,
                episodes=episodes,
                temperature=temperature,
                max_q_delta=max_q_delta,
            )
        )
        record.episodes = episodes

    def on_type_end(
        self,
        error_type: str,
        result: "TypeTrainingResult",
        wall_clock: float,
    ) -> None:
        record = self._per_type.setdefault(
            error_type,
            TypeTelemetry(error_type=error_type, process_count=0),
        )
        record.wall_clock = wall_clock
        record.episodes = result.episodes
        record.sweeps_run = result.sweeps_run
        record.converged = result.converged
        record.finished = True


class EpisodeRecorder(EpisodeTelemetry):
    """Accumulate the episode traces every session-driven loop emits.

    One recorder can observe several loops at once — pass it to the
    evaluator, the trainer and the cluster simulator and the traces
    interleave, distinguished by :attr:`EpisodeTrace.origin`.  Like all
    telemetry it is a pure observer: attaching it never changes results.
    """

    def __init__(self) -> None:
        self._traces: List[EpisodeTrace] = []

    # -- EpisodeTelemetry hook -----------------------------------------
    def on_episode(self, trace: EpisodeTrace) -> None:
        self._traces.append(trace)

    # -- queries -------------------------------------------------------
    @property
    def traces(self) -> Tuple[EpisodeTrace, ...]:
        """All recorded traces, in arrival order."""
        return tuple(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def by_origin(self, origin: str) -> Tuple[EpisodeTrace, ...]:
        """Traces emitted by one loop (``"evaluation"``, ...)."""
        return tuple(t for t in self._traces if t.origin == origin)

    def episode_counts(self) -> Dict[str, int]:
        """``{origin: episode count}`` across everything observed."""
        return dict(Counter(t.origin for t in self._traces))

    def total_cost(self, origin: Optional[str] = None) -> float:
        """Summed episode cost over handled episodes, in arrival order."""
        total = 0.0
        for t in self._traces:
            if t.handled and (origin is None or t.origin == origin):
                total += t.total_cost
        return total


def replay_type_telemetry(
    telemetry: TrainingTelemetry,
    record: TypeTelemetry,
    result: "TypeTrainingResult",
) -> None:
    """Re-fire one type's recorded events into ``telemetry``.

    Used by the parallel engine: workers record with a local
    :class:`TelemetryRecorder`, ship the :class:`TypeTelemetry` home, and
    the parent replays it so user-supplied telemetry sees the same event
    stream a serial run would produce (grouped by type, in merge order).
    """
    telemetry.on_type_start(record.error_type, record.process_count)
    for stats in record.sweeps:
        telemetry.on_sweep(
            record.error_type,
            stats.sweep,
            stats.episodes,
            stats.temperature,
            stats.max_q_delta,
        )
    telemetry.on_type_end(record.error_type, result, record.wall_clock)
