"""The :class:`Finding` model shared by rules, reporters and baselines.

A finding pins a determinism-contract violation to a file and line and
carries the rule's explanation plus a concrete suggestion.  Findings are
value objects: they sort stably (path, line, column, rule) so reports and
baselines are reproducible, and they round-trip through plain dicts for
the JSON reporter and the baseline file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from repro.records import FINDING

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One determinism-contract violation.

    Attributes
    ----------
    path:
        POSIX-style path of the offending file, relative to the lint
        root when the file lies under it.
    line / column:
        1-based line and 0-based column of the offending node.
    rule:
        Rule identifier (``R1`` .. ``R6``).
    message:
        What is wrong, phrased against the contract.
    suggestion:
        How to fix it (or how to suppress it with a reason).
    """

    path: str
    line: int
    column: int
    rule: str
    message: str
    suggestion: str

    def identity(self) -> Tuple[str, str, str]:
        """The baseline-matching key.

        Deliberately excludes line/column so grandfathered findings
        survive unrelated edits that shift them within their file.
        """
        return (self.rule, self.path, self.message)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: object) -> "Finding":
        """Invert :meth:`to_dict`; see :data:`~repro.records.FINDING`.

        Raises :class:`~repro.errors.LogFormatError`.
        """
        return cls(**FINDING.read(payload))
