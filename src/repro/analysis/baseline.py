"""The grandfathered-findings baseline.

A baseline file freezes the findings that existed when the linter was
introduced so the gate only fails on *new* violations.  Matching is by
finding identity — (rule, path, message) with multiplicity — not line
number, so grandfathered findings survive unrelated edits; fixing one
then shows up as a clean diff when the baseline is regenerated with
``repro lint --update-baseline``.

The file is JSON with a version field, sorted deterministically, and a
trailing newline, so regeneration on an unchanged tree is a no-op diff.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Counter as CounterType, List, Sequence, Tuple, Union

from repro.analysis.findings import Finding
from repro.errors import LogFormatError, ReproError
from repro.records import BASELINE, BASELINE_VERSION, read_json

__all__ = ["Baseline", "BaselineError"]


class BaselineError(ReproError):
    """The baseline file is unreadable or structurally invalid."""


class Baseline:
    """An in-memory multiset of grandfathered finding identities."""

    def __init__(self, findings: Sequence[Finding] = ()) -> None:
        self._findings = sorted(findings)
        self._identities: CounterType[Tuple[str, str, str]] = Counter(
            finding.identity() for finding in self._findings
        )

    def __len__(self) -> int:
        return len(self._findings)

    @property
    def findings(self) -> List[Finding]:
        return list(self._findings)

    def filter_new(self, findings: Sequence[Finding]) -> List[Finding]:
        """The findings not covered by this baseline.

        Each baselined identity absorbs as many current findings as it
        has occurrences; the remainder are new.
        """
        budget = Counter(self._identities)
        new: List[Finding] = []
        for finding in sorted(findings):
            if budget[finding.identity()] > 0:
                budget[finding.identity()] -= 1
            else:
                new.append(finding)
        return new

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        """Read a baseline file; see :data:`~repro.records.BASELINE`.

        A missing, non-JSON or malformed file is an explicit error.
        """
        try:
            payload = read_json(path)
        except FileNotFoundError:
            raise BaselineError(f"baseline file not found: {path}") from None
        except LogFormatError as exc:
            raise BaselineError(f"baseline file is not JSON: {exc}") from None
        try:
            fields = BASELINE.read(payload)
        except LogFormatError as exc:
            raise BaselineError(f"baseline file {path}: {exc}") from None
        return cls([Finding(**finding) for finding in fields["findings"]])

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "findings": [finding.to_dict() for finding in self._findings],
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
