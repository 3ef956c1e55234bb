"""Per-error-type training checkpoints.

The paper's 97 error types train independently, so a long run over many
types is naturally resumable at type granularity: every finished course
is persisted as one JSON file (Q-table with visit counts, extracted
rules, convergence metadata), and a restarted run skips every type whose
checkpoint matches the current training configuration.

Checkpoints are exact: Q values and visit counts round-trip through JSON
``repr``-faithfully, so a resumed run produces bit-identical policies to
an uninterrupted one (asserted by ``tests/test_checkpoint_resume.py``).

A *fingerprint* of the training configuration (hyper-parameters, action
catalog, seed, ensemble size) is stored in each checkpoint; on load, a
mismatching fingerprint invalidates the checkpoint and the type simply
retrains — stale artifacts can never leak into a run with different
hyper-parameters.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.errors import LogFormatError, TrainingError
from repro.learning.qlearning import TypeTrainingResult
from repro.mdp.state import RecoveryState
from repro.policies.serialization import (
    qtable_from_payload,
    qtable_to_payload,
    rule_records,
    rules_from_records,
)
from repro.policies.trained import Rule
from repro.records import CHECKPOINT, CHECKPOINT_FORMAT, read_json, write_atomic

__all__ = [
    "TypeCheckpoint",
    "CheckpointStore",
    "training_fingerprint",
]

PathLike = Union[str, Path]
RuleTable = Dict[RecoveryState, Rule]


def training_fingerprint(payload: Mapping[str, object]) -> str:
    """A stable hash of the training configuration.

    ``payload`` must be JSON-serializable (dataclasses go through
    ``dataclasses.asdict`` first).  Key order does not matter.
    """
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TypeCheckpoint:
    """One error type's completed training course, ready to persist.

    Attributes
    ----------
    error_type:
        The trained type.
    training:
        The Q-learning outcome (table, sweep counts, convergence).
    rules:
        The extracted rule table (selection-tree or greedy).
    expected_cost:
        The selection tree's exactly evaluated cost, or ``None`` for
        greedy extraction.
    candidates_evaluated:
        Candidate policies the selection tree evaluated (0 for greedy).
    wall_clock:
        Training wall-clock seconds (telemetry; informational only).
    """

    error_type: str
    training: TypeTrainingResult
    rules: RuleTable
    expected_cost: Optional[float]
    candidates_evaluated: int
    wall_clock: float


def _slug(error_type: str) -> str:
    """A filesystem-safe, collision-free file stem for an error type."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", error_type).strip("_") or "type"
    digest = hashlib.sha256(error_type.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}"


class CheckpointStore:
    """Directory of per-type checkpoint files plus a manifest.

    Parameters
    ----------
    directory:
        Where checkpoints live; created on first save.
    fingerprint:
        The current run's :func:`training_fingerprint`.  Checkpoints
        written by a differently configured run are treated as absent.
    alpha_floor:
        Learning-rate floor to restore Q tables with (a training-time
        knob not stored in the table payload).
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        fingerprint: str = "",
        alpha_floor: float = 0.0,
    ) -> None:
        self._directory = Path(directory)
        self._fingerprint = fingerprint
        self._alpha_floor = alpha_floor

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def path_for(self, error_type: str) -> Path:
        """The checkpoint file for ``error_type``."""
        return self._directory / f"{_slug(error_type)}.json"

    # ------------------------------------------------------------------
    def save(self, checkpoint: TypeCheckpoint) -> Path:
        """Persist one type's course atomically; returns the file path.

        The write is atomic (:func:`~repro.records.write_atomic`), so
        neither an interrupt mid-write nor a second save of the same
        type can leave a torn checkpoint behind.
        """
        self._directory.mkdir(parents=True, exist_ok=True)
        training = checkpoint.training
        payload = {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self._fingerprint,
            "error_type": checkpoint.error_type,
            "training": {
                "sweeps_run": training.sweeps_run,
                "sweeps_to_convergence": training.sweeps_to_convergence,
                "converged": training.converged,
                "episodes": training.episodes,
            },
            "qtable": qtable_to_payload(training.qtable),
            "rules": rule_records(checkpoint.rules),
            "expected_cost": checkpoint.expected_cost,
            "candidates_evaluated": checkpoint.candidates_evaluated,
            "wall_clock": checkpoint.wall_clock,
        }
        path = self.path_for(checkpoint.error_type)
        write_atomic(path, [(json.dumps(payload, indent=1) + "\n").encode()])
        return path

    def load(self, error_type: str) -> Optional[TypeCheckpoint]:
        """The type's checkpoint, or ``None`` when absent or stale.

        Stale means: written under a different configuration
        fingerprint, or unreadable (not JSON, or a record that
        :data:`~repro.records.CHECKPOINT` or the Q table refuses).  A
        checkpoint for a *different* type at this path (hash collision
        cannot happen; manual tampering can) raises
        :class:`TrainingError`.
        """
        path = self.path_for(error_type)
        fields = self._read_current(path)
        if fields is None:
            return None
        if fields["error_type"] != error_type:
            raise TrainingError(
                f"checkpoint {path} belongs to error type "
                f"{fields['error_type']!r}, not {error_type!r}"
            )
        try:
            qtable = qtable_from_payload(
                fields["qtable"], alpha_floor=self._alpha_floor
            )
        except LogFormatError:
            # Hand-edited Q table the table refuses: retrain.
            return None
        training = fields["training"]
        return TypeCheckpoint(
            error_type=error_type,
            training=TypeTrainingResult(
                error_type=error_type, qtable=qtable, **training
            ),
            rules=rules_from_records(fields["rules"]),
            expected_cost=fields["expected_cost"],
            candidates_evaluated=fields["candidates_evaluated"],
            wall_clock=fields["wall_clock"],
        )

    def _read_current(self, path: Path) -> Optional[Dict[str, object]]:
        """The checked checkpoint fields at ``path``, if this run wrote them.

        ``None`` when the file is unreadable, torn, refused by
        :data:`~repro.records.CHECKPOINT`, or of another fingerprint.
        """
        try:
            fields = CHECKPOINT.read(read_json(path))
        except (OSError, LogFormatError):
            return None
        if fields["fingerprint"] != self._fingerprint:
            return None
        return fields

    def completed_types(self) -> Tuple[str, ...]:
        """Error types with a valid checkpoint for this fingerprint."""
        if not self._directory.is_dir():
            return ()
        names = []
        for path in sorted(self._directory.glob("*.json")):
            fields = self._read_current(path)
            if fields is not None:
                names.append(fields["error_type"])
        return tuple(sorted(names))
