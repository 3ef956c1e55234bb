"""The lint engine: file discovery, parsing, rule dispatch, filtering.

:func:`run_lint` is the single entry point used by the CLI, the tier-1
gate test and the fixture tests.  It walks the given paths, parses each
``*.py`` **exactly once**, runs every enabled syntactic rule's visitor
over the parent-annotated tree and — under ``deep=True`` — hands the
same trees to the whole-program pass (project model → interprocedural
taint fixpoint → rules R7-R10).  Inline suppressions apply uniformly:
a deep finding anchored at a line carrying ``# repro-lint: disable=R9
reason`` is silenced exactly like a syntactic one.  The baseline is
subtracted last, and the returned :class:`LintReport` carries exactly
the violations that should fail a build, plus (when requested) the
per-stage :class:`~repro.analysis.telemetry.LintStats`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.baseline import Baseline
from repro.analysis.findings import Finding
from repro.analysis.rules import DeepRule, LintRule, attach_parents, resolve_rules
from repro.analysis.suppressions import split_suppressed
from repro.analysis.telemetry import BudgetClock, LintStats
from repro.errors import ReproError

__all__ = [
    "AnalysisError",
    "BudgetExceededError",
    "LintReport",
    "run_lint",
]

PathLike = Union[str, Path]


class AnalysisError(ReproError):
    """A scanned file could not be read or parsed."""


class BudgetExceededError(AnalysisError):
    """The run overran ``budget_seconds``.

    Carries the :class:`~repro.analysis.telemetry.LintStats` collected
    up to the overrunning stage, so callers can report *which* stage
    blew the budget instead of a bare timeout.
    """

    def __init__(self, message: str, stats: LintStats) -> None:
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class LintReport:
    """Everything one lint run produced.

    Attributes
    ----------
    findings:
        Active violations (suppressions and baseline already applied),
        sorted by (path, line, column, rule).
    suppressed:
        Findings silenced by inline ``repro-lint: disable`` comments.
    baselined:
        How many findings the baseline absorbed.
    files_scanned:
        Number of files parsed.
    stats:
        Per-stage timing, populated only when ``run_lint`` is called
        with ``stats=True``.
    """

    findings: Tuple[Finding, ...]
    suppressed: Tuple[Finding, ...] = ()
    baselined: int = 0
    files_scanned: int = 0
    stats: Optional[LintStats] = None

    @property
    def clean(self) -> bool:
        return not self.findings


@dataclass
class _ParsedFile:
    path: Path
    display: str
    source: str
    tree: ast.Module


def _iter_python_files(paths: Sequence[PathLike]) -> Iterator[Path]:
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Sequence[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise AnalysisError(f"lint path does not exist: {path}")
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _parse_file(path: Path, display: str) -> _ParsedFile:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}")
    try:
        tree = attach_parents(ast.parse(source, filename=str(path)))
    except SyntaxError as exc:
        raise AnalysisError(
            f"cannot parse {path}: {exc.msg} (line {exc.lineno})"
        )
    return _ParsedFile(path=path, display=display, source=source, tree=tree)


def _check_budget(clock: BudgetClock, stage: str, stats: LintStats) -> None:
    if clock.exceeded():
        raise BudgetExceededError(
            f"lint exceeded its {clock.budget_seconds:g}s budget after "
            f"stage {stage!r} ({clock.elapsed():.2f}s elapsed)",
            stats,
        )


def _run_deep_pass(
    parsed: Sequence[_ParsedFile],
    deep_rules: Sequence[DeepRule],
    stats: LintStats,
    clock: BudgetClock,
) -> List[Finding]:
    # Imported lazily so plain (shallow) lint runs never pay for the
    # dataflow machinery.
    from repro.analysis.dataflow import (
        analyze_project,
        build_project,
        run_deep_rules,
    )

    with stats.stage("project-model"):
        project = build_project(
            [(f.path, f.display, f.source, f.tree) for f in parsed]
        )
    stats.modules = len(project.modules)
    stats.functions = len(project.functions)
    _check_budget(clock, "project-model", stats)
    with stats.stage("taint-fixpoint"):
        state = analyze_project(project)
    stats.fixpoint_iterations = state.iterations
    _check_budget(clock, "taint-fixpoint", stats)
    with stats.stage("deep-rules"):
        findings = run_deep_rules(project, state, deep_rules)
    _check_budget(clock, "deep-rules", stats)
    return findings


def run_lint(
    paths: Sequence[PathLike],
    *,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    root: Optional[PathLike] = None,
    deep: bool = False,
    stats: bool = False,
    budget_seconds: Optional[float] = None,
) -> LintReport:
    """Lint ``paths`` (files and/or directory trees).

    Parameters
    ----------
    paths:
        Files or directories; directories are walked recursively for
        ``*.py``.
    rules:
        Rule ids to enable (default: all syntactic rules, plus the
        deep rules when ``deep=True``).  Unknown ids raise
        :class:`AnalysisError`, as does selecting a deep rule without
        ``deep=True``.
    baseline:
        Grandfathered findings to subtract from the result.
    root:
        Directory that finding paths are reported relative to (when the
        file lies under it); keeps baselines machine-independent.
    deep:
        Also run the whole-program dataflow pass (rules R7-R10) over
        the scanned file set.
    stats:
        Collect per-stage timing into ``LintReport.stats``.
    budget_seconds:
        Wall-clock ceiling for the whole run.  Checked between stages
        (a stage is never interrupted); on overrun the run fails with
        :class:`BudgetExceededError` carrying the per-stage timings
        collected so far, instead of an opaque external ``timeout``.
    """
    if budget_seconds is not None and budget_seconds <= 0:
        raise AnalysisError(
            f"budget_seconds must be positive, got {budget_seconds}"
        )
    try:
        enabled = resolve_rules(rules, deep=deep)
    except ValueError as exc:
        raise AnalysisError(str(exc))
    syntactic = [r for r in enabled if not isinstance(r, DeepRule)]
    deep_rules = [r for r in enabled if isinstance(r, DeepRule)]
    root_path = Path(root) if root is not None else None
    run_stats = LintStats()
    clock = BudgetClock(budget_seconds)

    parsed: List[_ParsedFile] = []
    with run_stats.stage("parse"):
        for path in _iter_python_files(paths):
            parsed.append(
                _parse_file(path, _display_path(path, root_path))
            )
    run_stats.files = len(parsed)
    _check_budget(clock, "parse", run_stats)

    by_display: Dict[str, List[Finding]] = {}
    with run_stats.stage("syntactic-rules"):
        for item in parsed:
            file_findings: List[Finding] = []
            for rule in syntactic:
                file_findings.extend(rule.check(item.tree, item.display))
            by_display[item.display] = file_findings
    _check_budget(clock, "syntactic-rules", run_stats)

    if deep and deep_rules:
        for finding in _run_deep_pass(parsed, deep_rules, run_stats, clock):
            # Deep findings always anchor at a scanned module, so the
            # display key exists; anything else would be a rule bug —
            # route it through an empty-suppression bucket regardless.
            by_display.setdefault(finding.path, []).append(finding)

    active: List[Finding] = []
    suppressed: List[Finding] = []
    sources = {item.display: item.source for item in parsed}
    with run_stats.stage("suppressions"):
        for display, file_findings in by_display.items():
            keep, silenced = split_suppressed(
                file_findings, sources.get(display, "")
            )
            active.extend(keep)
            suppressed.extend(silenced)

    baselined = 0
    if baseline is not None:
        new = baseline.filter_new(active)
        baselined = len(active) - len(new)
        active = new
    return LintReport(
        findings=tuple(sorted(active)),
        suppressed=tuple(sorted(suppressed)),
        baselined=baselined,
        files_scanned=len(parsed),
        stats=run_stats if stats else None,
    )
