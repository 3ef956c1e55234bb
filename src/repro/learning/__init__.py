"""Offline Q-learning for recovery-policy generation (Sections 2.2-3.3, 5.3).

The trainer runs the Figure 2 algorithm per error type: replay training
processes through the simulation platform, select actions with Boltzmann
exploration under an annealed temperature, and update a tabular Q-function
with the visit-count learning rate ``alpha = 1 / (1 + visits(s, a))``
(equation 6).  Policy extraction is either greedy over the Q table or the
Section 5.3 **selection tree**, which shortlists the best two actions per
state when their Q values are close and evaluates the candidate policies
exactly — converging in far fewer sweeps.
"""

from repro.learning.approximation import (
    ApproximateQLearningTrainer,
    ApproximateTrainingConfig,
    LinearQFunction,
)
from repro.learning.checkpoint import (
    CheckpointStore,
    TypeOutcome,
    training_fingerprint,
)
from repro.learning.exploration import (
    BoltzmannExplorer,
    EpsilonGreedyExplorer,
    TemperatureSchedule,
)
from repro.learning.extraction import extract_greedy_rules
from repro.learning.parallel import ParallelTrainingEngine
from repro.learning.qlearning import (
    QLearningConfig,
    QLearningTrainer,
    TrainingResult,
    TypeTrainingResult,
)
from repro.learning.qtable import QTable
from repro.learning.selection_tree import (
    SelectionTreeConfig,
    SelectionTreeExtractor,
)

__all__ = [
    "CheckpointStore",
    "training_fingerprint",
    "ParallelTrainingEngine",
    "TypeOutcome",
    "LinearQFunction",
    "ApproximateTrainingConfig",
    "ApproximateQLearningTrainer",
    "QTable",
    "TemperatureSchedule",
    "BoltzmannExplorer",
    "EpsilonGreedyExplorer",
    "QLearningConfig",
    "QLearningTrainer",
    "TrainingResult",
    "TypeTrainingResult",
    "extract_greedy_rules",
    "SelectionTreeConfig",
    "SelectionTreeExtractor",
]
