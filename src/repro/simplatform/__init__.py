"""The simulation platform (Sections 3.3 and 4.2).

The platform answers the counterfactual the offline learner needs: *what
would have happened if a different repair action had been tried on this
logged recovery process?*  It rests on the paper's three hypotheses:

1. A successful recovery needs at least the process's correct repair
   actions — the last action and the stronger ones executed before it.
2. Stronger actions can replace weaker ones.
3. Recovery processes for different errors are independent.

Costs are taken from the log itself: the actual attempt duration when the
proposed action matches the logged one at the same position, otherwise
the average success/failure duration of that (error type, action) pair.
"""

from repro.simplatform.coststats import CostStatistics
from repro.simplatform.hypotheses import covers, required_actions
from repro.simplatform.platform import (
    CostMode,
    ReplayResult,
    SimulationPlatform,
)
from repro.simplatform.validation import PlatformValidationReport, validate_platform

__all__ = [
    "required_actions",
    "covers",
    "CostStatistics",
    "SimulationPlatform",
    "ReplayResult",
    "CostMode",
    "PlatformValidationReport",
    "validate_platform",
]
