"""The string-keyed replay path, kept as a test-only reference.

Before replay ran on the platform's compiled rows, the simulation
platform answered one step at a time over names and
:class:`~repro.mdp.state.RecoveryState` objects:
``SimulationPlatform.step`` decided success with ``covers`` over strength
multisets, and ``replay``/``replay_many`` drove one
:class:`~reference_session.RecoverySession` per process through a
``ReplayEnvironment`` (``drive``, or ``drive_batch`` in lockstep waves),
the session loop that ``reference_session`` keeps.
This module keeps that path verbatim apart from names and one
hand-over: the environment no longer passes the successor state to the
session, which derives the same ``state.after(action, succeeded)``.

* :class:`ReferencePlatform` is the platform with the string ``step``
  (and its uncached required strengths);
* :class:`ReplayEnvironment`, :func:`drive_batch` and
  :class:`BatchSession` (the session's batched ``resolve`` /
  ``force_pending`` / ``pending``) are the old drivers;
* :func:`replay` and :func:`replay_many` are the old platform methods.

``test_replay_differential.py`` compares the compiled kernel with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from reference_session import (
    Environment,
    EpisodeOutcome,
    ExecutionResult,
    RecoverySession,
    SessionDecision,
    _finish,
    drive,
)
from repro.errors import SimulationError, UnhandledStateError
from repro.mdp.state import RecoveryState
from repro.policies.base import Policy, PolicyDecision
from repro.recoverylog.process import RecoveryProcess
from repro.session.trace import FORCED_SOURCE, EpisodeTelemetry, EpisodeTrace
from repro.simplatform.hypotheses import covers, required_strengths
from repro.simplatform.platform import (
    CostMode,
    ReplayResult,
    SimulationPlatform,
)

__all__ = [
    "StepOutcome",
    "ReferencePlatform",
    "ReplayEnvironment",
    "BatchSession",
    "drive_batch",
    "replay",
    "replay_many",
]


@dataclass(frozen=True)
class StepOutcome:
    """Result of executing one action during replay.

    Attributes
    ----------
    cost:
        Seconds charged for the attempt (execution plus observation).
    next_state:
        The successor recovery state.
    succeeded:
        Whether the action cured the process.
    matched_log:
        Whether the proposal coincided with the logged action at this
        position (and thus was charged its actual duration in
        ``ACTUAL_WHEN_MATCHING`` mode).
    """

    cost: float
    next_state: RecoveryState
    succeeded: bool
    matched_log: bool


class ReferencePlatform(SimulationPlatform):
    """A simulation platform that also answers the string ``step``."""

    def _required(self, process: RecoveryProcess) -> Tuple[int, ...]:
        return required_strengths(
            process, self._catalog, last_action_only=self._last_action_only
        )

    def step(
        self,
        process: RecoveryProcess,
        state: RecoveryState,
        action_name: str,
    ) -> StepOutcome:
        """Execute ``action_name`` in ``state`` while replaying ``process``."""
        if state.is_terminal:
            raise SimulationError(
                f"cannot step from terminal state {state}"
            )
        if state.error_type != process.error_type:
            raise SimulationError(
                f"state error type {state.error_type!r} does not match "
                f"process error type {process.error_type!r}"
            )
        action = self._catalog[action_name]
        executed = [self._catalog[name].strength for name in state.tried]
        executed.append(action.strength)
        succeeded = covers(self._required(process), executed)

        position = state.attempt_count
        attempts = process.attempts
        matched = (
            position < len(attempts)
            and attempts[position].action == action_name
            and attempts[position].succeeded == succeeded
        )
        if matched and self._cost_mode is CostMode.ACTUAL_WHEN_MATCHING:
            cost = attempts[position].duration
        elif succeeded:
            cost = self._stats.success_cost(process.error_type, action_name)
        else:
            cost = self._stats.failure_cost(process.error_type, action_name)
        return StepOutcome(
            cost=cost,
            next_state=state.after(action_name, succeeded),
            succeeded=succeeded,
            matched_log=matched,
        )


class ReplayEnvironment(Environment):
    """Counterfactual replay of one recovery process on a platform.

    A thin adapter: success, cost and log-matching all come from
    :meth:`ReferencePlatform.step`, so a session driven through this
    environment executes exactly the platform's replay semantics.
    """

    __slots__ = ("_platform", "_process")

    def __init__(
        self, platform: ReferencePlatform, process: RecoveryProcess
    ) -> None:
        self._platform = platform
        self._process = process

    @property
    def platform(self) -> ReferencePlatform:
        return self._platform

    @property
    def process(self) -> RecoveryProcess:
        return self._process

    @property
    def error_type(self) -> str:
        return self._process.error_type

    @property
    def max_actions(self) -> int:
        return self._platform.max_actions

    @property
    def forced_action_name(self) -> str:
        return self._platform.forced_action_name

    def initial_cost(self) -> float:
        return self._platform.initial_cost(self._process)

    def execute(
        self, state: RecoveryState, action_name: str
    ) -> ExecutionResult:
        outcome = self._platform.step(self._process, state, action_name)
        return ExecutionResult(
            cost=outcome.cost,
            succeeded=outcome.succeeded,
            matched_log=outcome.matched_log,
        )


class BatchSession(RecoverySession):
    """A recovery session that also adopts batched decisions."""

    @property
    def pending(self) -> Optional[SessionDecision]:
        """The decision awaiting its outcome, if any (batched path)."""
        return self._pending

    def resolve(
        self, outcome: Union[PolicyDecision, UnhandledStateError]
    ) -> Optional[SessionDecision]:
        """Adopt an externally produced decision (the batched path).

        ``drive_batch`` collects the states of many concurrent sessions
        and calls :meth:`Policy.decide_batch` once; each session then
        resolves its own entry.  A cap-forced session ignores the
        argument-free path entirely — callers must check
        :meth:`forced_action` first and only batch the free states.
        Passing an :class:`~repro.errors.UnhandledStateError` aborts the
        session and returns ``None``.
        """
        if self.done:
            raise SimulationError("cannot decide in a finished session")
        if self._pending is not None:
            raise SimulationError(
                "previous decision has no recorded outcome yet"
            )
        if isinstance(outcome, UnhandledStateError):
            self._aborted = True
            return None
        decision = SessionDecision(
            action=outcome.action,
            forced=False,
            source=outcome.source,
            expected_cost=outcome.expected_cost,
        )
        self._pending = decision
        return decision

    def force_pending(self) -> SessionDecision:
        """Record the cap-forced decision as pending (batched path)."""
        forced = self.forced_action()
        if forced is None:
            raise SimulationError("the action cap does not force yet")
        if self._pending is not None:
            raise SimulationError(
                "previous decision has no recorded outcome yet"
            )
        decision = SessionDecision(
            action=forced, forced=True, source=FORCED_SOURCE
        )
        self._pending = decision
        return decision


def _make_session(
    environment: Environment, policy: Policy, origin: str
) -> BatchSession:
    return BatchSession(
        environment.error_type,
        policy,
        max_actions=environment.max_actions,
        forced_action_name=environment.forced_action_name,
        origin=origin,
        initial_cost=environment.initial_cost(),
    )


def drive_batch(
    environments: Sequence[Environment],
    policy: Policy,
    *,
    origin: str = "replay",
    telemetry: Optional[EpisodeTelemetry] = None,
) -> List[EpisodeOutcome]:
    """Run one session per environment, deciding in lockstep waves.

    Each wave gathers the states of every still-open session whose next
    action is not cap-forced and resolves them with a single
    :meth:`Policy.decide_batch` call; cap-forced sessions take the
    manual repair without consulting the policy.  Per-session episodes
    are identical to :func:`drive` for any deterministic policy;
    policies with ``batch_safe = False`` fall back to sequential
    driving to preserve their RNG draw order.

    Outcomes are returned in input order; telemetry fires once per
    episode, also in input order, after every session finished.
    """
    if not policy.batch_safe:
        return [
            drive(environment, policy, origin=origin, telemetry=telemetry)
            for environment in environments
        ]
    sessions = [
        _make_session(environment, policy, origin)
        for environment in environments
    ]
    active = [
        (session, environment)
        for session, environment in zip(sessions, environments)
        if not session.done
    ]
    while active:
        # Split the wave: cap-forced sessions act immediately; the rest
        # pool their states into one batched decision.
        deciding: List[Tuple[BatchSession, Environment]] = []
        states: List[RecoveryState] = []
        for session, environment in active:
            if session.forced_action() is not None:
                session.force_pending()
            else:
                deciding.append((session, environment))
                states.append(session.state)
        if states:
            decisions = policy.decide_batch(states)
            for (session, _environment), decision in zip(deciding, decisions):
                session.resolve(decision)
        still_active = []
        for session, environment in active:
            if session.handled and not session.done:
                decision = session.pending
                result = environment.execute(session.state, decision.action)
                session.record_outcome(
                    result.cost,
                    result.succeeded,
                    matched_log=result.matched_log,
                )
            if not session.done:
                still_active.append((session, environment))
        active = still_active
    return [_finish(session, telemetry) for session in sessions]


def _self_healed_trace(process: RecoveryProcess, origin: str) -> EpisodeTrace:
    return EpisodeTrace(
        origin=origin,
        error_type=process.error_type,
        initial_cost=process.downtime,
        steps=(),
        handled=True,
        forced_manual=False,
    )


def _to_replay_result(
    outcome: EpisodeOutcome, process: RecoveryProcess
) -> ReplayResult:
    if not outcome.handled:
        return ReplayResult(
            handled=False,
            cost=float("nan"),
            actions=outcome.actions,
            real_cost=process.downtime,
        )
    return ReplayResult(
        handled=True,
        cost=outcome.cost,
        actions=outcome.actions,
        real_cost=process.downtime,
        forced_manual=outcome.forced_manual,
    )


def replay(
    platform: ReferencePlatform,
    process: RecoveryProcess,
    policy: Policy,
    *,
    origin: str = "replay",
    telemetry: Optional[EpisodeTelemetry] = None,
) -> ReplayResult:
    """Drive ``policy`` through ``process`` until cured or unhandled.

    The episode itself runs through the recovery-session loop
    (:func:`reference_session.drive`) over a
    :class:`ReplayEnvironment`.
    """
    if not process.attempts:
        # Self-healed process: nothing to decide; charge real downtime.
        if telemetry is not None:
            telemetry.on_episode(_self_healed_trace(process, origin))
        return ReplayResult(
            handled=True,
            cost=process.downtime,
            actions=(),
            real_cost=process.downtime,
        )
    outcome = drive(
        ReplayEnvironment(platform, process),
        policy,
        origin=origin,
        telemetry=telemetry,
    )
    return _to_replay_result(outcome, process)


def replay_many(
    platform: ReferencePlatform,
    processes: Sequence[RecoveryProcess],
    policy: Policy,
    *,
    origin: str = "replay",
    telemetry: Optional[EpisodeTelemetry] = None,
) -> List[ReplayResult]:
    """Replay many processes, batching policy decisions per wave.

    Batch-safe policies (deterministic ones — see
    :attr:`~repro.policies.base.Policy.batch_safe`) are decided via
    one :meth:`~repro.policies.base.Policy.decide_batch` call per
    lockstep wave of concurrent sessions; per-process results are
    bit-identical to sequential :func:`replay` calls.  Policies with
    internal RNG fall back to sequential driving automatically.
    Results — and telemetry, when given — follow input order.
    """
    driven_envs = []
    driven_positions = []
    results: List[Optional[ReplayResult]] = [None] * len(processes)
    traces: List[Optional[EpisodeTrace]] = [None] * len(processes)
    for position, process in enumerate(processes):
        if not process.attempts:
            results[position] = ReplayResult(
                handled=True,
                cost=process.downtime,
                actions=(),
                real_cost=process.downtime,
            )
            traces[position] = _self_healed_trace(process, origin)
        else:
            driven_envs.append(ReplayEnvironment(platform, process))
            driven_positions.append(position)
    outcomes = drive_batch(driven_envs, policy, origin=origin)
    for position, outcome in zip(driven_positions, outcomes):
        results[position] = _to_replay_result(outcome, processes[position])
        traces[position] = outcome.trace
    # Every position was filled above; the None checks only narrow
    # the Optional type.
    if telemetry is not None:
        for trace in traces:
            if trace is not None:
                telemetry.on_episode(trace)
    return [result for result in results if result is not None]
