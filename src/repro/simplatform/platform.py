"""The simulation platform: counterfactual replay of recovery processes.

Replay answers "what happens if action ``a`` is executed in state ``s``
while replaying process ``p``": success is decided by the
required-action hypotheses (:mod:`repro.simplatform.hypotheses`), and
the time cost is the actual logged duration when the proposal matches
the log at that position, or the learned average otherwise.  The rule
is written once, as :meth:`CompiledReplay.step` over integer action ids;
training, selection-tree scoring and :meth:`SimulationPlatform.replay`
all call it.  :meth:`~SimulationPlatform.replay_many` drives a policy
through many processes in lockstep waves, enforcing the paper's
``N``-action cap by forcing the manual repair on the final slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.actions.action import ActionCatalog
from repro.errors import ConfigurationError, SimulationError, UnknownActionError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy
from repro.recoverylog.process import RecoveryProcess
from repro.session.core import decide_wave
from repro.session.core import forced_action as cap_forced_action
from repro.session.trace import EpisodeTelemetry, EpisodeTrace, StepTrace
from repro.simplatform.coststats import CostStatistics
from repro.simplatform.hypotheses import required_strengths

__all__ = [
    "CostMode",
    "ReplayResult",
    "CompiledReplay",
    "SimulationPlatform",
]


class CostMode(enum.Enum):
    """How step costs are charged.

    ``ACTUAL_WHEN_MATCHING``
        Use the logged duration whenever the proposed action matches the
        logged action at the same attempt position (and the outcome
        matches); otherwise use averages.  Low-variance, used for policy
        evaluation.
    ``AVERAGES_ONLY``
        Always use per-(type, action) average durations.  Used by the
        Figure 7 platform validation, where the interesting question is
        whether average-based costing reproduces real downtime.
    """

    ACTUAL_WHEN_MATCHING = "actual-when-matching"
    AVERAGES_ONLY = "averages-only"


@dataclass(frozen=True)
class ReplayResult:
    """Result of replaying a whole process under a policy.

    Attributes
    ----------
    handled:
        False when the policy raised
        :class:`~repro.errors.UnhandledStateError` mid-replay (the
        paper's unhandled cases, excluded from Figure 9's totals and
        counted against Figure 10's coverage).
    cost:
        Estimated downtime of the replayed recovery (initial delay plus
        attempt costs); meaningless when ``handled`` is False.
    actions:
        The action sequence the policy executed.
    real_cost:
        The process's actual logged downtime, for relative-cost ratios.
    forced_manual:
        Whether the ``N``-action cap forced the final manual repair.
    """

    handled: bool
    cost: float
    actions: Tuple[str, ...]
    real_cost: float
    forced_manual: bool = False


@dataclass(frozen=True)
class CompiledReplay:
    """Integer-indexed view of a platform's processes, and the replay step.

    Everything a replay step consults — required strengths, the logged
    attempt at each position, average costs — precomputed into plain
    tuples indexed by process row and action id (catalog position, which
    equals strength rank since the catalog orders actions by ascending
    strength).  :meth:`step` then decides success and cost with integer
    compares only:

    * success is cumulative rank-count dominance (for every rank ``r``,
      the number of executed actions of rank >= r must reach
      ``required_ge[row][r]``), which equals
      :func:`~repro.simplatform.hypotheses.covers` over strength
      multisets because the catalog's id order is a strictly monotone
      image of its strength order;
    * costs are the same ``CostStatistics`` values, read from a per-type
      row instead of recomputed per call.

    Attributes
    ----------
    actions:
        Catalog action names; positions are action ids.
    actual_mode:
        Whether matching attempts are charged their logged duration
        (``CostMode.ACTUAL_WHEN_MATCHING``).
    required_ge:
        Per process: ``required_ge[r]`` counts required occurrences of
        rank >= r, or ``None`` when the process's log names an action
        outside the catalog that the required-action rule must rank.
    unranked:
        Per process whose ``required_ge`` is ``None``: the catalog's
        :class:`UnknownActionError` message, which :meth:`step` raises.
    attempt_aids:
        Per process, per attempt position: the logged action id, or -1
        when the logged action is not in the catalog (matches nothing).
    attempt_succeeded / attempt_durations:
        Per process, per attempt position: the logged outcome/duration.
    success_cost / failure_cost:
        Per process, per action id: the average-cost fallbacks for the
        process's error type (rows shared between same-type processes).
    initial_cost:
        Per process: the detection segment charged before the first
        action (:meth:`SimulationPlatform.initial_cost`).
    downtime:
        Per process: its actual logged downtime.
    """

    actions: Tuple[str, ...]
    actual_mode: bool
    required_ge: Tuple[Optional[Tuple[int, ...]], ...]
    unranked: Dict[int, str]
    attempt_aids: Tuple[Tuple[int, ...], ...]
    attempt_succeeded: Tuple[Tuple[bool, ...], ...]
    attempt_durations: Tuple[Tuple[float, ...], ...]
    success_cost: Tuple[Tuple[float, ...], ...]
    failure_cost: Tuple[Tuple[float, ...], ...]
    initial_cost: Tuple[float, ...]
    downtime: Tuple[float, ...]

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def matches_log(
        self, row: int, depth: int, aid: int, succeeded: bool
    ) -> bool:
        """Whether attempt ``depth`` of ``row`` logged ``aid`` ending so."""
        logged = self.attempt_aids[row]
        return (
            depth < len(logged)
            and logged[depth] == aid
            and self.attempt_succeeded[row][depth] == succeeded
        )

    def step(
        self, row: int, executed: List[int], depth: int, aid: int
    ) -> Tuple[bool, float]:
        """Execute action ``aid`` as attempt ``depth`` of process ``row``.

        ``executed`` counts the episode's executed actions per action id
        and is updated in place.  Returns ``(succeeded, cost)``: success
        by cumulative rank counts; the cost is the logged duration when
        the attempt matches the log in actual-cost mode, else the type's
        average success or failure cost of ``aid``.  A process whose log
        cannot be ranked (see :attr:`unranked`) raises
        :class:`UnknownActionError` naming the action.
        """
        required_ge = self.required_ge[row]
        if required_ge is None:
            raise UnknownActionError(self.unranked[row])
        executed[aid] += 1
        running = 0
        succeeded = True
        for rank in range(len(executed) - 1, -1, -1):
            running += executed[rank]
            if running < required_ge[rank]:
                succeeded = False
                break
        if self.actual_mode and self.matches_log(row, depth, aid, succeeded):
            return succeeded, self.attempt_durations[row][depth]
        if succeeded:
            return True, self.success_cost[row][aid]
        return False, self.failure_cost[row][aid]


class _Episode:
    """One open replay in :meth:`SimulationPlatform.replay_many`'s waves."""

    __slots__ = (
        "position", "row", "state", "executed", "total", "aids", "costs",
        "sources", "estimates",
    )

    def __init__(
        self, position: int, row: int, error_type: str,
        compiled: CompiledReplay,
    ) -> None:
        self.position = position
        self.row = row
        self.state = RecoveryState.initial(error_type)
        self.executed = [0] * compiled.n_actions
        self.total = compiled.initial_cost[row]
        self.aids: List[int] = []
        # Recorded only for traces (telemetry attached).
        self.costs: List[float] = []
        self.sources: List[str] = []
        self.estimates: List[Optional[float]] = []


class SimulationPlatform:
    """Counterfactual replay over an ensemble of recovery processes.

    Parameters
    ----------
    processes:
        The processes available for replay (typically a train or test
        split).  Only these can be replayed; a process outside them
        raises :class:`SimulationError` unless it self-healed.
    catalog:
        Repair-action catalog.
    stats:
        Cost statistics; defaults to statistics over ``processes``.
        Pass statistics built from a larger log when available.
    cost_mode:
        See :class:`CostMode`.
    last_action_only:
        Ablation: use the naive required-action rule (see
        :func:`repro.simplatform.hypotheses.required_actions`).
    max_actions:
        The paper's ``N`` = 20 cap per recovery process.
    """

    def __init__(
        self,
        processes: Sequence[RecoveryProcess],
        catalog: ActionCatalog,
        stats: Optional[CostStatistics] = None,
        *,
        cost_mode: CostMode = CostMode.ACTUAL_WHEN_MATCHING,
        last_action_only: bool = False,
        max_actions: int = 20,
    ) -> None:
        if max_actions < 2:
            raise ConfigurationError(
                f"max_actions must be >= 2, got {max_actions}"
            )
        self._processes = tuple(processes)
        self._catalog = catalog
        self._stats = (
            stats
            if stats is not None
            else CostStatistics.from_processes(processes, catalog)
        )
        self._cost_mode = cost_mode
        self._last_action_only = last_action_only
        self._max_actions = max_actions
        self._compiled: Optional[CompiledReplay] = None
        self._process_index: Optional[Dict[RecoveryProcess, int]] = None
        self._forced_name = self._catalog.strongest.name
        self._action_ids = {
            name: aid for aid, name in enumerate(self._catalog.names())
        }

    # ------------------------------------------------------------------
    @property
    def processes(self) -> Tuple[RecoveryProcess, ...]:
        return self._processes

    @property
    def catalog(self) -> ActionCatalog:
        return self._catalog

    @property
    def stats(self) -> CostStatistics:
        return self._stats

    @property
    def max_actions(self) -> int:
        return self._max_actions

    @property
    def forced_action_name(self) -> str:
        """The manual repair the ``N``-cap forces on the final slot."""
        return self._forced_name

    # ------------------------------------------------------------------
    def forced_action(self, attempt_count: int) -> Optional[str]:
        """The action the ``N``-cap forces after ``attempt_count`` tries.

        Delegates to :func:`~repro.session.core.forced_action`, the
        single source of the cap rule; kept as a method because every
        replay loop asks the platform directly.
        """
        return cap_forced_action(
            attempt_count, self._max_actions, self._forced_name
        )

    @property
    def action_ids(self) -> Mapping[str, int]:
        """Action name -> action id (catalog position)."""
        return self._action_ids

    def action_id(self, name: str) -> int:
        """The action id (catalog position) of ``name``.

        Raises the catalog's :class:`UnknownActionError` for a name
        outside it.
        """
        return self._action_ids[self._catalog[name].name]

    def compiled(self) -> CompiledReplay:
        """The integer-indexed replay view of this platform's processes.

        Built once, on first use (platforms that never replay don't
        pay), and immutable thereafter — it is keyed to the platform's
        own ``processes`` tuple.
        """
        if self._compiled is None:
            self._compiled = self._compile()
        return self._compiled

    def process_index(self, process: RecoveryProcess) -> int:
        """Index of ``process`` in :attr:`processes` (first value match).

        Raises :class:`SimulationError` for processes outside the
        platform's ensemble; value-equal duplicates share the first
        index, which is sound because the compiled view depends only on
        the process value.
        """
        if self._process_index is None:
            index: Dict[RecoveryProcess, int] = {}
            for position, candidate in enumerate(self._processes):
                index.setdefault(candidate, position)
            self._process_index = index
        position = self._process_index.get(process)
        if position is None:
            raise SimulationError(
                f"process on {process.machine!r} starting at "
                f"{process.start_time} is not part of this platform"
            )
        return position

    def _compile(self) -> CompiledReplay:
        actions = tuple(self._catalog.names())
        n_actions = len(actions)
        action_ids = self._action_ids
        rank_of_strength = {
            action.strength: aid
            for aid, action in enumerate(self._catalog.by_strength())
        }
        cost_rows: Dict[str, Tuple[Tuple[float, ...], Tuple[float, ...]]] = {}
        required_ge: List[Optional[Tuple[int, ...]]] = []
        unranked: Dict[int, str] = {}
        attempt_aids: List[Tuple[int, ...]] = []
        attempt_succeeded: List[Tuple[bool, ...]] = []
        attempt_durations: List[Tuple[float, ...]] = []
        success_cost: List[Tuple[float, ...]] = []
        failure_cost: List[Tuple[float, ...]] = []
        for row, process in enumerate(self._processes):
            try:
                required = required_strengths(
                    process,
                    self._catalog,
                    last_action_only=self._last_action_only,
                )
            except UnknownActionError as exc:
                required_ge.append(None)
                unranked[row] = exc.args[0]
            else:
                counts = [0] * n_actions
                for strength in required:
                    counts[rank_of_strength[strength]] += 1
                cumulative = [0] * n_actions
                running = 0
                for rank in range(n_actions - 1, -1, -1):
                    running += counts[rank]
                    cumulative[rank] = running
                required_ge.append(tuple(cumulative))
            attempts = process.attempts
            attempt_aids.append(
                tuple(action_ids.get(a.action, -1) for a in attempts)
            )
            attempt_succeeded.append(tuple(a.succeeded for a in attempts))
            attempt_durations.append(tuple(a.duration for a in attempts))
            error_type = process.error_type
            rows = cost_rows.get(error_type)
            if rows is None:
                rows = (
                    tuple(
                        self._stats.success_cost(error_type, name)
                        for name in actions
                    ),
                    tuple(
                        self._stats.failure_cost(error_type, name)
                        for name in actions
                    ),
                )
                cost_rows[error_type] = rows
            success_cost.append(rows[0])
            failure_cost.append(rows[1])
        return CompiledReplay(
            actions=actions,
            actual_mode=self._cost_mode is CostMode.ACTUAL_WHEN_MATCHING,
            required_ge=tuple(required_ge),
            unranked=unranked,
            attempt_aids=tuple(attempt_aids),
            attempt_succeeded=tuple(attempt_succeeded),
            attempt_durations=tuple(attempt_durations),
            success_cost=tuple(success_cost),
            failure_cost=tuple(failure_cost),
            initial_cost=tuple(self.initial_cost(p) for p in self._processes),
            downtime=tuple(p.downtime for p in self._processes),
        )

    def initial_cost(self, process: RecoveryProcess) -> float:
        """Detection segment: first symptom to first repair action."""
        attempts = process.attempts
        if not attempts:
            return process.downtime
        if self._cost_mode is CostMode.ACTUAL_WHEN_MATCHING:
            return attempts[0].start_time - process.start_time
        return self._stats.initial_delay(process.error_type)

    # ------------------------------------------------------------------
    def replay(
        self,
        process: RecoveryProcess,
        policy: Policy,
        *,
        origin: str = "replay",
        telemetry: Optional[EpisodeTelemetry] = None,
    ) -> ReplayResult:
        """Drive ``policy`` through ``process`` until cured or unhandled.

        One process of :meth:`replay_many`.
        """
        return self.replay_many(
            (process,), policy, origin=origin, telemetry=telemetry
        )[0]

    def replay_many(
        self,
        processes: Sequence[RecoveryProcess],
        policy: Policy,
        *,
        origin: str = "replay",
        telemetry: Optional[EpisodeTelemetry] = None,
    ) -> List[ReplayResult]:
        """Replay many processes, deciding in lockstep waves.

        Every open replay advances one step per wave.  Its states pool
        into one :func:`~repro.session.core.decide_wave` call, which
        forces the manual repair once the ``N``-cap binds, and the
        answers execute through :meth:`CompiledReplay.step`.  A policy
        miss (:class:`~repro.errors.UnhandledStateError` per state) ends
        that replay unhandled.  Self-healed processes charge their real
        downtime and decide nothing; any other process must belong to
        the platform (:meth:`process_index`).

        Per-process results are bit-identical to replaying one process
        at a time for every deterministic policy.  Policies with
        internal RNG (``batch_safe`` False) run their waves one process
        at a time, to keep their draw order.  Results — and telemetry,
        when given — follow input order; traces are built from the
        recorded action ids after the episodes, only when telemetry is
        attached.
        """
        compiled = self.compiled()
        record = telemetry is not None
        results: List[Optional[ReplayResult]] = [None] * len(processes)
        traces: List[Optional[EpisodeTrace]] = [None] * len(processes)
        episodes: List[_Episode] = []
        for position, process in enumerate(processes):
            if process.attempts:
                row = self.process_index(process)
                episodes.append(
                    _Episode(position, row, process.error_type, compiled)
                )
                continue
            # Self-healed: nothing to decide; charge real downtime.
            results[position] = ReplayResult(
                handled=True,
                cost=process.downtime,
                actions=(),
                real_cost=process.downtime,
            )
            if record:
                traces[position] = EpisodeTrace(
                    origin=origin,
                    error_type=process.error_type,
                    initial_cost=process.downtime,
                    steps=(),
                    handled=True,
                    forced_manual=False,
                )
        if policy.batch_safe:
            lanes = [episodes]
        else:
            lanes = [[episode] for episode in episodes]
        for lane in lanes:
            self._run_waves(lane, policy, origin, record, results, traces)
        # Every position was filled above; the None checks only narrow
        # the Optional type.
        if telemetry is not None:
            for episode_trace in traces:
                if episode_trace is not None:
                    telemetry.on_episode(episode_trace)
        return [result for result in results if result is not None]

    def _run_waves(
        self,
        active: List[_Episode],
        policy: Policy,
        origin: str,
        record: bool,
        results: List[Optional[ReplayResult]],
        traces: List[Optional[EpisodeTrace]],
    ) -> None:
        """Advance ``active`` in lockstep waves until every episode ends.

        Each episode's result, and its trace when ``record``, lands at
        its input position in ``results`` and ``traces``.
        """
        compiled = self.compiled()
        names = compiled.actions
        action_ids = self._action_ids
        depth = 0
        while active:
            forced = self.forced_action(depth) is not None
            batch = decide_wave(
                policy,
                [episode.state for episode in active],
                np.full(len(active), forced),
                self._forced_name,
            )
            wave_aids = [action_ids.get(name, -1) for name in batch.actions]
            hits = batch.hit.tolist()
            decided = batch.action_ids.tolist()
            if record:
                sources = [batch.sources[i] for i in batch.source_ids.tolist()]
                estimates = [
                    cost if estimated else None
                    for cost, estimated in zip(
                        batch.costs.tolist(), batch.estimated.tolist()
                    )
                ]
            still_active = []
            for i, episode in enumerate(active):
                handled = hits[i]
                if handled:
                    aid = wave_aids[decided[i]]
                    if aid < 0:
                        # Outside the catalog: the lookup by name raises
                        # the catalog's error.
                        aid = self.action_id(batch.actions[decided[i]])
                    succeeded, cost = compiled.step(
                        episode.row, episode.executed, depth, aid
                    )
                    episode.total += cost
                    episode.aids.append(aid)
                    if record:
                        episode.costs.append(cost)
                        episode.sources.append(sources[i])
                        episode.estimates.append(estimates[i])
                    if not succeeded:
                        episode.state = episode.state.after(names[aid], False)
                        still_active.append(episode)
                        continue
                results[episode.position] = ReplayResult(
                    handled=handled,
                    cost=episode.total if handled else float("nan"),
                    actions=tuple(names[aid] for aid in episode.aids),
                    real_cost=compiled.downtime[episode.row],
                    forced_manual=handled and forced,
                )
                if record:
                    traces[episode.position] = self.episode_trace(
                        episode.row,
                        episode.aids,
                        episode.costs,
                        episode.sources,
                        origin=origin,
                        handled=handled,
                        estimates=episode.estimates,
                    )
            active = still_active
            depth += 1

    def episode_trace(
        self,
        row: int,
        aids: Sequence[int],
        costs: Sequence[float],
        sources: Sequence[str],
        *,
        origin: str,
        handled: bool,
        estimates: Optional[Sequence[Optional[float]]] = None,
    ) -> EpisodeTrace:
        """The trace of a compiled replay of process ``row``.

        Rebuilt after the episode from what it recorded per step: the
        action ids, costs and decision sources, and the policy's cost
        estimates when it gave any.  The ``N``-cap marks forced steps
        by depth, and every step but a handled episode's last failed:
        a replay ends on its first cure, or aborts at a decision.
        """
        compiled = self.compiled()
        last = len(aids) - 1 if handled else -1
        steps = []
        for depth, aid in enumerate(aids):
            succeeded = depth == last
            steps.append(
                StepTrace(
                    step=depth,
                    attempt_count=depth,
                    action=compiled.actions[aid],
                    source=sources[depth],
                    forced=self.forced_action(depth) is not None,
                    cost=costs[depth],
                    succeeded=succeeded,
                    matched_log=compiled.matches_log(
                        row, depth, aid, succeeded
                    ),
                    expected_cost=(
                        None if estimates is None else estimates[depth]
                    ),
                )
            )
        return EpisodeTrace(
            origin=origin,
            error_type=self._processes[row].error_type,
            initial_cost=compiled.initial_cost[row],
            steps=tuple(steps),
            handled=handled,
            forced_manual=any(step.forced for step in steps),
        )
