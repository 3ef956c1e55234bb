"""Stage timing for ``repro lint --stats``.

Timing the linter is diagnostic output, not simulated behavior, so the
wall-clock contract (rule R3) does not apply here — this module lives
under the ``*/telemetry.py`` allowlist for exactly that reason.  The
stats never feed back into analysis results; they are rendered to
stderr so ``--format json``/``sarif`` stdout stays machine-readable.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, Optional

__all__ = ["BudgetClock", "LintStats"]


class BudgetClock:
    """Wall-clock budget enforcement for one lint run.

    The engine checks :meth:`exceeded` between stages (a stage is never
    interrupted mid-flight, so a report is either complete or the run
    fails loudly with the timings gathered so far).  Clock reads live
    here rather than in the engine so the analyzer itself stays within
    the rule-R3 allowlist it enforces.
    """

    def __init__(self, budget_seconds: Optional[float] = None) -> None:
        self.budget_seconds = budget_seconds
        self._start = perf_counter()

    def elapsed(self) -> float:
        """Seconds since the clock was created."""
        return perf_counter() - self._start

    def exceeded(self) -> bool:
        """True once the run has overrun its budget (never, if unset)."""
        return (
            self.budget_seconds is not None
            and self.elapsed() > self.budget_seconds
        )


@dataclass
class LintStats:
    """What one lint run cost, stage by stage."""

    files: int = 0
    modules: int = 0
    functions: int = 0
    fixpoint_iterations: int = 0
    timings: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Add the wall-clock seconds of the ``with`` body to ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.timings[name] = (
                self.timings.get(name, 0.0) + perf_counter() - start
            )

    def render(self) -> str:
        lines = ["lint stats:"]
        for name in sorted(self.timings):
            lines.append(f"  {name:<18} {self.timings[name] * 1000:8.1f} ms")
        lines.append(f"  {'total':<18} {sum(self.timings.values()) * 1000:8.1f} ms")
        lines.append(
            f"  files={self.files} modules={self.modules} "
            f"functions={self.functions} "
            f"fixpoint_iterations={self.fixpoint_iterations}"
        )
        return "\n".join(lines)
