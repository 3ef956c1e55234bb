"""Online rolling retraining.

The paper's learning-based approach "can adapt to the change of the
environment without human involvement" (Section 1): the offline
components periodically retrain on fresh recovery history and push the
regenerated policy to the online recovery component.
:class:`RollingRetrainer` packages that loop: feed it completed recovery
processes as the monitor produces them; every ``retrain_every``
processes it refits on a sliding window, swaps the deployed hybrid
policy atomically and publishes it to every subscriber.  The online
recovery component is a :class:`~repro.serving.server.DecisionServer`
(:meth:`~repro.serving.server.DecisionServer.attach_retrainer`
subscribes it), which answers recovery decisions in batches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.actions.action import ActionCatalog, default_catalog
from repro.core.config import PipelineConfig
from repro.core.pipeline import RecoveryPolicyLearner
from repro.errors import ConfigurationError, TrainingError
from repro.mining.streaming import StreamingMiner
from repro.policies.base import Policy
from repro.policies.hybrid import HybridPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog.process import RecoveryProcess

__all__ = ["RollingRetrainer"]


class RollingRetrainer:
    """Continuously retrain a recovery policy on a sliding history window.

    Parameters
    ----------
    catalog:
        Repair-action catalog.
    config:
        Pipeline configuration used for every refit.
    window:
        Maximum number of recent processes kept for training (old
        history ages out, which is what makes adaptation possible).
    retrain_every:
        Refit after this many newly observed processes.
    min_history:
        No training before this many processes have been seen; until
        then :meth:`current_policy` returns the fallback.
    fallback:
        The always-available policy (deployed before the first fit and
        backing every hybrid afterwards).
    miner:
        Optional :class:`~repro.mining.streaming.StreamingMiner`.  When
        given, every observed process is also folded into its
        incremental counts, so mined statistics (clusters, noise
        fraction, coverage) stay current alongside the policy without
        ever batch re-reading the log.
    """

    def __init__(
        self,
        catalog: Optional[ActionCatalog] = None,
        config: Optional[PipelineConfig] = None,
        *,
        window: int = 5_000,
        retrain_every: int = 500,
        min_history: int = 200,
        fallback: Optional[Policy] = None,
        miner: Optional[StreamingMiner] = None,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if retrain_every < 1:
            raise ConfigurationError(
                f"retrain_every must be >= 1, got {retrain_every}"
            )
        if min_history < 1:
            raise ConfigurationError(
                f"min_history must be >= 1, got {min_history}"
            )
        self.catalog = catalog if catalog is not None else default_catalog()
        self.config = config
        self.fallback = (
            fallback
            if fallback is not None
            else UserDefinedPolicy(self.catalog)
        )
        self._window: Deque[RecoveryProcess] = deque(maxlen=window)
        self._retrain_every = retrain_every
        self._min_history = min_history
        self._since_retrain = 0
        self._retrain_count = 0
        self._learner: Optional[RecoveryPolicyLearner] = None
        self._policy: Policy = self.fallback
        self._subscribers: List[Callable[[Policy], None]] = []
        self._miner = miner

    # ------------------------------------------------------------------
    @property
    def history_size(self) -> int:
        """Processes currently in the training window."""
        return len(self._window)

    @property
    def retrain_count(self) -> int:
        """How many refits have completed."""
        return self._retrain_count

    @property
    def learner(self) -> Optional[RecoveryPolicyLearner]:
        """The most recent fitted learner, if any."""
        return self._learner

    @property
    def miner(self) -> Optional[StreamingMiner]:
        """The attached incremental miner, if any."""
        return self._miner

    def current_policy(self) -> Policy:
        """The currently deployed policy (hybrid once trained)."""
        return self._policy

    def subscribe(self, callback: Callable[[Policy], None]) -> None:
        """Register a publication hook, called after every policy swap.

        This is how a :class:`~repro.serving.server.DecisionServer`
        hot-reloads: each successful :meth:`retrain` invokes every
        subscriber (in subscription order) with the newly deployed
        policy, after the in-process swap has happened.
        """
        self._subscribers.append(callback)

    def observe(self, process: RecoveryProcess) -> bool:
        """Feed one completed recovery process.

        Returns True when the observation triggered a retrain.
        """
        if self._miner is not None:
            self._miner.observe(process)
        self._window.append(process)
        self._since_retrain += 1
        if (
            len(self._window) >= self._min_history
            and self._since_retrain >= self._retrain_every
        ):
            self.retrain()
            return True
        return False

    def retrain(self) -> HybridPolicy:
        """Refit on the current window and swap the deployed policy."""
        if not self._window:
            raise TrainingError("no history to retrain on")
        learner = RecoveryPolicyLearner(
            self.catalog, self.config, baseline=self.fallback
        )
        learner.fit(tuple(self._window))
        policy = learner.hybrid_policy(self.fallback)
        # Swap atomically only after a successful fit.
        self._learner = learner
        self._policy = policy
        self._since_retrain = 0
        self._retrain_count += 1
        for callback in self._subscribers:
            callback(policy)
        return policy
