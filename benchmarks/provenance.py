"""The commit stamp every ``BENCH_*.json`` artifact records."""

from __future__ import annotations

import subprocess
from pathlib import Path

__all__ = ["commit"]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(__file__).resolve().parent,
    ).stdout.strip()


def commit() -> str:
    """``HEAD``'s sha, with ``-dirty`` appended when tracked files differ.

    An artifact regenerated inside an uncommitted change then says so
    instead of naming the change's parent.  ``"unknown"`` without git.
    """
    try:
        sha = _git("rev-parse", "HEAD")
        dirty = _git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha
