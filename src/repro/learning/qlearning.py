"""The offline Q-learning trainer (Figure 2).

Training proceeds per error type.  Each *sweep* replays a batch of the
type's training processes through the simulation platform; within an
episode, actions are selected by Boltzmann exploration over the current Q
values, and after the episode finishes the recorded transitions are
applied to the Q table in reverse order (deeper states first, so each
bootstrap target uses a freshly updated successor value).

Standard convergence is declared when the greedy policy over visited
states has been identical for ``convergence_patience`` consecutive sweeps
and the temperature has annealed into the search phase.  The paper's
Figure 13 counts these sweeps, capped at ``max_sweeps`` (their 160k) for
courses that never converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TrainingError, UnknownActionError
from repro.learning.exploration import (
    BoltzmannExplorer,
    EpsilonGreedyExplorer,
    TemperatureSchedule,
)
from repro.learning.qtable import QTable
from repro.mdp.state import RecoveryState
from repro.recoverylog.process import RecoveryProcess
from repro.session.trace import FORCED_SOURCE, EpisodeTelemetry
from repro.simplatform.platform import CompiledReplay, SimulationPlatform
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "QLearningConfig",
    "TypeTrainingResult",
    "TrainingResult",
    "QLearningTrainer",
]

@dataclass(frozen=True)
class QLearningConfig:
    """Hyper-parameters of the offline training course.

    Attributes
    ----------
    temperature:
        Boltzmann annealing schedule (per sweep).
    max_sweeps:
        Sweep budget per error type (the paper caps at 160k; the
        default here is scaled to benchmark data sizes).
    episodes_per_sweep:
        Training processes replayed per sweep (sampled without
        replacement from the type's training processes each sweep).
    convergence_patience:
        Consecutive sweeps the greedy policy must stay unchanged.
    min_sweeps:
        Convergence is never declared before this many sweeps.
    exploration:
        ``"boltzmann"`` (the paper's choice) or ``"epsilon"`` (ablation).
    alpha_floor:
        Learning-rate floor (see :class:`~repro.learning.qtable.QTable`);
        0 reproduces equation (6) exactly, the small default heals early
        bootstrap bias within benchmark-scale sweep budgets.
    min_visits_per_action:
        Forced exploration: every action of a visited state is tried at
        least this many times before Boltzmann selection takes over,
        preventing one unlucky sample from parking an action out of
        reach of cost-scale Boltzmann probabilities.
    warm_start_passes:
        Before exploration begins, replay every training process along
        its *logged* action sequence this many times, updating Q as
        usual.  This anchors the Q values of the log policy's own
        state-action pairs at their actual costs, so exploration compares
        alternatives against solid baselines instead of optimistic
        zeros — analogous to how the paper's learner "analyzes a
        real-world recovery log generated by a user-defined policy".
    seed:
        Root seed for exploration and sweep sampling.  Each error type
        trains on its own child generator derived from
        ``(seed, error_type)`` (see :func:`repro.util.rng.derive_seed`),
        so results are independent of the order in which types are
        trained and of which process-pool worker runs them.
    """

    temperature: TemperatureSchedule = field(default_factory=TemperatureSchedule)
    max_sweeps: int = 1500
    episodes_per_sweep: int = 32
    convergence_patience: int = 40
    min_sweeps: int = 20
    exploration: str = "boltzmann"
    alpha_floor: float = 0.08
    min_visits_per_action: int = 3
    warm_start_passes: int = 2
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.max_sweeps < 1:
            raise ConfigurationError(
                f"max_sweeps must be >= 1, got {self.max_sweeps}"
            )
        if self.episodes_per_sweep < 1:
            raise ConfigurationError(
                f"episodes_per_sweep must be >= 1, got {self.episodes_per_sweep}"
            )
        if self.convergence_patience < 1:
            raise ConfigurationError(
                f"convergence_patience must be >= 1, got "
                f"{self.convergence_patience}"
            )
        if self.exploration not in ("boltzmann", "epsilon"):
            raise ConfigurationError(
                f"unknown exploration strategy {self.exploration!r}"
            )
        if not 0.0 <= self.alpha_floor <= 1.0:
            raise ConfigurationError(
                f"alpha_floor must be in [0, 1], got {self.alpha_floor}"
            )
        if self.min_visits_per_action < 0:
            raise ConfigurationError(
                "min_visits_per_action must be >= 0, got "
                f"{self.min_visits_per_action}"
            )
        if self.warm_start_passes < 0:
            raise ConfigurationError(
                "warm_start_passes must be >= 0, got "
                f"{self.warm_start_passes}"
            )


@dataclass(frozen=True)
class TypeTrainingResult:
    """Training outcome for one error type.

    Attributes
    ----------
    error_type:
        The trained type.
    qtable:
        The learned Q-function.
    sweeps_run:
        Sweeps actually executed.
    sweeps_to_convergence:
        The Figure 13 measurement: first sweep of the stable window, or
        ``sweeps_run`` when the course never converged.
    converged:
        Whether the stability criterion was met within the budget.
    episodes:
        Total episodes replayed.
    sweep_deltas:
        Per sweep, the largest absolute Q change any of its episodes
        caused: the course's convergence curve (it tends to 0 as the
        values settle), one entry per sweep run.  Sweep ``i`` ran at
        ``config.temperature.temperature(i)``.  Empty for a course
        restored from a checkpoint.
    """

    error_type: str
    qtable: QTable
    sweeps_run: int
    sweeps_to_convergence: int
    converged: bool
    episodes: int
    sweep_deltas: Tuple[float, ...] = ()


@dataclass(frozen=True)
class TrainingResult:
    """Training outcomes for all error types."""

    per_type: Mapping[str, TypeTrainingResult]

    def qtables(self) -> Dict[str, QTable]:
        """``{error_type: trained Q table}``."""
        return {t: r.qtable for t, r in self.per_type.items()}

    def sweeps_to_convergence(self) -> Dict[str, int]:
        """Figure 13 series: sweeps before convergence per type."""
        return {t: r.sweeps_to_convergence for t, r in self.per_type.items()}

    def unconverged_types(self) -> Tuple[str, ...]:
        """Types whose training course hit the sweep cap."""
        return tuple(
            sorted(t for t, r in self.per_type.items() if not r.converged)
        )


@dataclass(frozen=True)
class _Course:
    """One error type's training processes on the compiled replay view.

    Attributes
    ----------
    compiled:
        The platform's :class:`CompiledReplay`.
    rows:
        Per training process, in course order, its compiled row (its
        index in the platform's ensemble).
    initial_sid:
        The type's initial state, interned in the course's Q table.
    strongest_aid:
        Id of the manual repair the ``N``-cap forces.
    cap_depth:
        The first depth at which the ``N``-cap forces ``strongest_aid``;
        the cap binds at every depth from there on.
    """

    compiled: CompiledReplay
    rows: Tuple[int, ...]
    initial_sid: int
    strongest_aid: int
    cap_depth: int


class QLearningTrainer:
    """Run the Figure 2 algorithm per error type against a platform.

    Parameters
    ----------
    platform:
        Simulation platform over the *training* processes.
    config:
        Training hyper-parameters.
    episode_telemetry:
        Optional :class:`~repro.session.trace.EpisodeTelemetry` observer
        receiving one :class:`~repro.session.trace.EpisodeTrace` per
        exploration episode (origin ``"training"``).  Purely
        observational: results are bit-identical with or without it, and
        the episode loop is the same either way.
    """

    def __init__(
        self,
        platform: SimulationPlatform,
        config: Optional[QLearningConfig] = None,
        *,
        episode_telemetry: Optional[EpisodeTelemetry] = None,
    ) -> None:
        self.platform = platform
        self.config = config if config is not None else QLearningConfig()
        self.episode_telemetry = episode_telemetry

    # ------------------------------------------------------------------
    def _type_rng(self, error_type: str) -> np.random.Generator:
        """The error type's own child generator.

        Derived from ``(config.seed, error_type)`` so every type draws
        from a disjoint, order-independent stream; ``seed=None`` keeps
        OS entropy.
        """
        if self.config.seed is None:
            return make_rng(None)
        return make_rng(derive_seed(self.config.seed, error_type))

    def _make_explorer(self, rng: np.random.Generator):
        if self.config.exploration == "epsilon":
            return EpsilonGreedyExplorer(rng=rng)
        return BoltzmannExplorer(self.config.temperature, rng=rng)

    def _course(
        self,
        qtable: QTable,
        error_type: str,
        processes: Sequence[RecoveryProcess],
    ) -> _Course:
        """Resolve every training process to its compiled row.

        Runs before the first episode, so a course that cannot train
        fails up front: a process outside the platform's ensemble raises
        :class:`SimulationError`, and one whose log holds an action
        outside the catalog raises :class:`UnknownActionError` naming
        the process.  (Required actions are logged actions, so this also
        covers every process without compiled required strengths.)
        """
        compiled = self.platform.compiled()
        rows = []
        for process in processes:
            pidx = self.platform.process_index(process)
            if -1 in compiled.attempt_aids[pidx]:
                unknown = sorted(
                    {a for a in process.actions if a not in compiled.actions}
                )
                raise UnknownActionError(
                    f"process on {process.machine!r} starting at "
                    f"{process.start_time} logs actions {unknown} outside "
                    f"the catalog {compiled.actions}"
                )
            rows.append(pidx)
        cap_depth = 0
        while self.platform.forced_action(cap_depth) is None:
            cap_depth += 1
        return _Course(
            compiled=compiled,
            rows=tuple(rows),
            initial_sid=qtable.index.intern(RecoveryState.initial(error_type)),
            strongest_aid=compiled.actions.index(
                self.platform.forced_action_name
            ),
            cap_depth=cap_depth,
        )

    def _episode_runner(
        self, qtable: QTable, course: _Course, explorer
    ) -> Callable[[int, Optional[int]], float]:
        """Bind one course's constants; return its episode function.

        ``run(row, sweep)`` replays the process at compiled row ``row``,
        applies the episode's updates to ``qtable`` in reverse order
        (:meth:`QTable.apply_episode`) and returns the largest absolute
        Q change.  With ``sweep=None`` it follows the process's logged
        actions — a warm-start episode, deterministic, drawing no random
        numbers, ending at success or at the end of the log.  Otherwise
        it explores: at each depth the ``N``-cap decides first, then
        forced exploration (an action of the state still below
        ``min_visits_per_action``), then the explorer's draw over the
        state's Q row at ``sweep``.  :meth:`CompiledReplay.step` decides
        success and cost; every per-step quantity is an integer id or a
        precomputed float, so no state objects are hashed or built.
        """
        compiled = course.compiled
        step = compiled.step
        attempt_aids = compiled.attempt_aids
        n_actions = compiled.n_actions
        initial_sid = course.initial_sid
        strongest_aid = course.strongest_aid
        cap_depth = course.cap_depth
        successor = qtable.index.successor
        q_row = qtable.q_row
        underexplored = qtable.underexplored_by_id
        apply_episode = qtable.apply_episode
        draw = explorer.select_index
        min_visits = self.config.min_visits_per_action
        telemetry = self.episode_telemetry
        # States whose every action has reached ``min_visits``.  Visit
        # counts never fall within a course, so these skip the
        # under-explored scan for good.
        explored = set()

        def run(row: int, sweep: Optional[int]) -> float:
            logged = attempt_aids[row] if sweep is None else None
            executed = [0] * n_actions
            sids: List[int] = []
            aids: List[int] = []
            costs: List[float] = []
            sid = initial_sid
            depth = 0
            while True:
                if logged is not None:
                    if depth == len(logged):
                        break
                    aid = logged[depth]
                elif depth >= cap_depth:
                    aid = strongest_aid
                elif sid in explored:
                    aid = draw(q_row(sid), sweep)
                else:
                    aid = underexplored(sid, min_visits)
                    if aid < 0:
                        explored.add(sid)
                        aid = draw(q_row(sid), sweep)
                succeeded, cost = step(row, executed, depth, aid)
                sids.append(sid)
                aids.append(aid)
                costs.append(cost)
                sid = successor(sid, aid, succeeded)
                depth += 1
                if succeeded:
                    break
            if telemetry is not None and logged is None:
                telemetry.on_episode(
                    self.platform.episode_trace(
                        row,
                        aids,
                        costs,
                        self._episode_sources(qtable, sids),
                        origin="training",
                        handled=True,
                    )
                )
            return apply_episode(sids, aids, costs, sid)

        return run

    def _episode_sources(
        self, qtable: QTable, sids: Sequence[int]
    ) -> List[str]:
        """Each exploration step's decision source, re-derived.

        Called only when a recorder is attached, after the episode and
        before its updates, so the loop itself does no trace work.  The
        table is not written during an episode, which makes each step's
        source re-derivable exactly: the ``N``-cap, else forced
        exploration while some action is under-visited, else the
        explorer's draw.
        """
        min_visits = self.config.min_visits_per_action
        sources = []
        for depth, sid in enumerate(sids):
            if self.platform.forced_action(depth) is not None:
                sources.append(FORCED_SOURCE)
            elif qtable.underexplored_by_id(sid, min_visits) >= 0:
                sources.append("explore:forced")
            else:
                sources.append("explore:select")
        return sources

    def train_type(
        self,
        error_type: str,
        processes: Sequence[RecoveryProcess],
        *,
        sweep_callback: Optional[Callable[[int, QTable], bool]] = None,
    ) -> TypeTrainingResult:
        """Train one error type on its recovery processes.

        Parameters
        ----------
        error_type:
            The type being trained (processes must all carry it).
        processes:
            The type's training processes, all from the platform's
            ensemble and logging only catalog actions (checked before
            the first episode).
        sweep_callback:
            Optional hook invoked after every sweep with
            ``(sweep_index, qtable)``; returning True stops training
            early (used by the selection-tree course).
        """
        if not processes:
            raise TrainingError(
                f"no training processes for error type {error_type!r}"
            )
        for process in processes:
            if process.error_type != error_type:
                raise TrainingError(
                    f"process of type {process.error_type!r} passed to the "
                    f"training course of {error_type!r}"
                )
        qtable = QTable(
            self.platform.catalog.names(), alpha_floor=self.config.alpha_floor
        )
        course = self._course(qtable, error_type, processes)
        rng = self._type_rng(error_type)
        explorer = self._make_explorer(rng)
        run = self._episode_runner(qtable, course, explorer)

        # Warm start: replay every process along its logged actions, so
        # each logged state-action pair receives its actual cost as a Q
        # sample before exploration begins.
        episodes = 0
        for _pass in range(self.config.warm_start_passes):
            for row in course.rows:
                run(row, None)
                episodes += 1

        batch = min(self.config.episodes_per_sweep, len(processes))
        stable = 0
        sweeps_run = 0
        converged = False
        convergence_sweep = None
        sweep_deltas: List[float] = []

        for sweep in range(self.config.max_sweeps):
            sweeps_run = sweep + 1
            sweep_delta = 0.0
            indices = rng.choice(len(processes), size=batch, replace=False)
            for position in indices.tolist():
                delta = run(course.rows[position], sweep)
                episodes += 1
                if delta > sweep_delta:
                    sweep_delta = delta
            sweep_deltas.append(sweep_delta)
            if not qtable.greedy_policy_changed():
                stable += 1
            else:
                stable = 0
            if sweep_callback is not None and sweep_callback(sweep, qtable):
                converged = True
                convergence_sweep = sweeps_run
                break
            if sweep_callback is None and (
                sweeps_run >= self.config.min_sweeps
                and stable >= self.config.convergence_patience
                and self.config.temperature.is_search_phase(sweep)
            ):
                converged = True
                convergence_sweep = sweeps_run - self.config.convergence_patience
                break
        return TypeTrainingResult(
            error_type=error_type,
            qtable=qtable,
            sweeps_run=sweeps_run,
            sweeps_to_convergence=(
                convergence_sweep if convergence_sweep is not None else sweeps_run
            ),
            converged=converged,
            episodes=episodes,
            sweep_deltas=tuple(sweep_deltas),
        )

    def train(
        self,
        processes_by_type: Mapping[str, Sequence[RecoveryProcess]],
    ) -> TrainingResult:
        """Train every error type; see :meth:`train_type`.

        Per-type child RNGs make the result independent of iteration
        order; types are still visited sorted, so episode traces arrive
        in a stable order.
        """
        results: Dict[str, TypeTrainingResult] = {}
        for error_type in sorted(processes_by_type):
            processes = processes_by_type[error_type]
            if not processes:
                continue
            results[error_type] = self.train_type(error_type, processes)
        return TrainingResult(per_type=results)
