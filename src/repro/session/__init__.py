"""What every episode loop shares: the cap rule, the wave, the trace.

One cap rule (:func:`forced_action`), the lockstep decision wave
(:func:`decide_wave`) and one trace schema (:class:`EpisodeTrace`,
observed through :class:`EpisodeTelemetry` and kept by
:class:`EpisodeRecorder`).  Log replay, policy evaluation,
selection-tree scoring and training run on the platform's compiled
rows, and the fleet engine on its machine arrays; replay and the fleet
engine decide through the wave.
"""

from repro.session.core import decide_wave, forced_action
from repro.session.trace import (
    FORCED_SOURCE,
    EpisodeRecorder,
    EpisodeTelemetry,
    EpisodeTrace,
    StepTrace,
)

__all__ = [
    "forced_action",
    "decide_wave",
    "FORCED_SOURCE",
    "EpisodeTelemetry",
    "EpisodeRecorder",
    "EpisodeTrace",
    "StepTrace",
]
