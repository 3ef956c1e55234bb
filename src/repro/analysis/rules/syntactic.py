"""The per-file (syntactic) determinism-contract rules, R1-R6.

Each rule owns one invariant the reproduction's replay determinism rests
on (see DESIGN.md, "Determinism contract"):

====  ==============================================================
R1    no ``id(...)`` values stored or used as cache/dict keys
R2    no unseeded randomness (``random`` module, legacy
      ``numpy.random`` globals); stochastic code takes a
      ``numpy.random.Generator`` or goes through ``repro.util.rng``
R3    no wall clock (``time.time``, ``datetime.now`` …) in library
      code; ``time.perf_counter`` only in allowlisted telemetry and
      benchmark modules
R4    no iteration over bare ``set``/``frozenset`` values without an
      intervening ``sorted(...)``
R5    no pickle-unsafe callables (lambdas, locally defined
      functions, generator expressions) handed to process pools
R6    no float ``==``/``!=`` comparisons
====  ==============================================================

Rules are :class:`ast.NodeVisitor` subclasses registered in
:data:`repro.analysis.rules.registry.SYNTACTIC_RULES`; the engine
instantiates one visitor per (rule, file) and collects
:class:`~repro.analysis.findings.Finding` objects.  The visitors are
deliberately syntactic: they over-approximate (every hit is either a
real hazard or a site worth an inline suppression with a written
reason) rather than attempting type inference.  The whole-program
rules R7-R10 live in :mod:`repro.analysis.dataflow`.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import List, Sequence, Set, Tuple

from repro.analysis.rules.base import (
    LintRule,
    RuleVisitor,
    parent_of as _parent,
)

__all__ = [
    "IdKeyedCacheRule",
    "UnseededRandomnessRule",
    "WallClockRule",
    "UnorderedSetIterationRule",
    "PickleUnsafeWorkerRule",
    "FloatEqualityRule",
]


# ----------------------------------------------------------------------
# R1 — id()-keyed caches
# ----------------------------------------------------------------------
_KEYING_METHODS = frozenset({"get", "setdefault", "pop"})


class _IdKeyedCacheVisitor(RuleVisitor):
    """Flag ``id(...)`` results that are stored or used as keys.

    Transient uses (f-strings, logging arguments, ``is`` comparisons)
    pass; anything that parks the address in a container, an assignment
    or a mapping lookup is the PR 1 bug class: CPython recycles
    addresses after garbage collection, so a key built from ``id()``
    can silently alias a *different* object later.  Identity-pinned
    caches (the entry holds a strong reference and is verified with
    ``is``) are legitimate — suppress those lines with a reason.
    """

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
            and not node.keywords
            and self._stored_or_keyed(node)
        ):
            self.add(
                node,
                "id(...) value stored or used as a cache/dict key; "
                "object addresses are recycled after garbage collection",
                "key by value (see SimulationPlatform.process_index), or "
                "pin the object in the cache entry and verify identity "
                "with 'is' before reuse, then suppress with a reason",
            )
        self.generic_visit(node)

    @staticmethod
    def _stored_or_keyed(node: ast.Call) -> bool:
        child: ast.AST = node
        parent = _parent(node)
        while parent is not None:
            if isinstance(parent, ast.Subscript) and child is parent.slice:
                return True
            if isinstance(parent, ast.Dict) and any(
                key is child for key in parent.keys
            ):
                return True
            if isinstance(parent, (ast.Tuple, ast.List, ast.Set)):
                return True
            if isinstance(
                parent, (ast.Assign, ast.AnnAssign, ast.NamedExpr)
            ) and child is parent.value:
                return True
            if isinstance(parent, (ast.FormattedValue, ast.JoinedStr)):
                return False
            if isinstance(parent, ast.Call):
                func = parent.func
                return (
                    isinstance(func, ast.Attribute)
                    and func.attr in _KEYING_METHODS
                    and bool(parent.args)
                    and child is parent.args[0]
                )
            if isinstance(parent, ast.Compare):
                return any(
                    isinstance(op, (ast.In, ast.NotIn))
                    for op in parent.ops
                )
            if isinstance(parent, ast.stmt):
                return False
            child, parent = parent, _parent(parent)
        return False


class IdKeyedCacheRule(LintRule):
    rule_id = "R1"
    title = "id()-keyed caches"
    rationale = (
        "id() keys alias recycled addresses; PR 1 hit this three times"
    )
    bad_example = "cache[id(process)] = strengths"
    good_example = (
        "cache[id(process)] = (process, strengths)"
        "  # repro-lint: disable=R1 entry pins process, verified with 'is'"
    )
    visitor_class = _IdKeyedCacheVisitor


# ----------------------------------------------------------------------
# R2 — unseeded randomness
# ----------------------------------------------------------------------
_NP_RANDOM_ALLOWED = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)


class _UnseededRandomnessVisitor(RuleVisitor):
    """Flag the ``random`` module and legacy ``numpy.random`` globals.

    All library randomness must flow from an explicit
    ``numpy.random.Generator`` (or ``repro.util.rng``); module-level
    global state is seeded per process and silently forks under the
    process pool.
    """

    def __init__(self, rule: LintRule, path: str) -> None:
        super().__init__(rule, path)
        self._numpy_names: Set[str] = set()
        self._np_random_names: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.add(
                    node,
                    "import of the stdlib 'random' module (process-global, "
                    "unseeded state)",
                    "take an np.random.Generator parameter or derive one "
                    "via repro.util.rng",
                )
            elif alias.name == "numpy":
                self._numpy_names.add(alias.asname or "numpy")
            elif alias.name == "numpy.random":
                if alias.asname is None:
                    self._numpy_names.add("numpy")
                else:
                    self._np_random_names.add(alias.asname)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self.add(
                node,
                "import from the stdlib 'random' module (process-global, "
                "unseeded state)",
                "take an np.random.Generator parameter or derive one via "
                "repro.util.rng",
            )
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._np_random_names.add(alias.asname or "random")
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _NP_RANDOM_ALLOWED:
                    self.add(
                        node,
                        f"legacy numpy.random global '{alias.name}' "
                        "(hidden module-level RNG state)",
                        "use an explicit np.random.Generator instead",
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        base = self._np_random_base(node.value)
        if base:
            if node.attr not in _NP_RANDOM_ALLOWED:
                self.add(
                    node,
                    f"legacy numpy.random global '{node.attr}' (hidden "
                    "module-level RNG state)",
                    "use an explicit np.random.Generator instead",
                )
            return  # the matched chain needs no further descent
        self.generic_visit(node)

    def _np_random_base(self, node: ast.expr) -> bool:
        """True when ``node`` denotes the ``numpy.random`` module."""
        if isinstance(node, ast.Name):
            return node.id in self._np_random_names
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._numpy_names
        )


class UnseededRandomnessRule(LintRule):
    rule_id = "R2"
    title = "unseeded randomness"
    rationale = "global RNG state forks silently across pool workers"
    bad_example = "import random\nvalue = random.random()"
    good_example = (
        "rng = repro.util.rng.make_rng(seed)\nvalue = rng.random()"
    )
    visitor_class = _UnseededRandomnessVisitor


# ----------------------------------------------------------------------
# R3 — wall clock in library code
# ----------------------------------------------------------------------
_WALL_CLOCK_ATTRS = frozenset({"time", "time_ns"})
_PERF_ATTRS = frozenset(
    {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
)
_DATETIME_CLASS_ATTRS = frozenset({"now", "today", "utcnow"})

#: Module path globs where ``time.perf_counter`` (and friends) are fine:
#: timing telemetry and the benchmark harness, never simulated time.
DEFAULT_PERF_COUNTER_ALLOWLIST: Tuple[str, ...] = (
    "*/telemetry.py",
    "telemetry.py",
    "*benchmarks/*",
    "bench_*.py",
)


class _WallClockVisitor(RuleVisitor):
    """Flag wall-clock reads; scope perf counters to an allowlist.

    Replayed time must come from the log; wall clock in a seeded,
    training or simulation path makes two identical runs diverge.
    """

    def __init__(self, rule: "WallClockRule", path: str) -> None:
        super().__init__(rule, path)
        self._perf_allowed = any(
            fnmatch(path, pattern) for pattern in rule.perf_counter_allowlist
        )
        self._time_names: Set[str] = set()
        self._datetime_mod_names: Set[str] = set()
        self._datetime_class_names: Set[str] = set()
        self._date_class_names: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self._time_names.add(alias.asname or "time")
            elif alias.name == "datetime":
                self._datetime_mod_names.add(alias.asname or "datetime")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_ATTRS:
                    self._flag_wall(node, f"time.{alias.name}")
                elif alias.name in _PERF_ATTRS and not self._perf_allowed:
                    self._flag_perf(node, f"time.{alias.name}")
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name == "datetime":
                    self._datetime_class_names.add(alias.asname or "datetime")
                elif alias.name == "date":
                    self._date_class_names.add(alias.asname or "date")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name) and value.id in self._time_names:
            if node.attr in _WALL_CLOCK_ATTRS:
                self._flag_wall(node, f"time.{node.attr}")
            elif node.attr in _PERF_ATTRS and not self._perf_allowed:
                self._flag_perf(node, f"time.{node.attr}")
        elif self._is_datetime_class(value):
            if node.attr in _DATETIME_CLASS_ATTRS:
                self._flag_wall(node, f"datetime.{node.attr}")
        elif self._is_date_class(value):
            if node.attr == "today":
                self._flag_wall(node, "date.today")
        self.generic_visit(node)

    def _is_datetime_class(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._datetime_class_names
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "datetime"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._datetime_mod_names
        )

    def _is_date_class(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._date_class_names
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "date"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._datetime_mod_names
        )

    def _flag_wall(self, node: ast.AST, name: str) -> None:
        self.add(
            node,
            f"wall-clock read '{name}' in library code; two identical "
            "runs observe different values",
            "derive time from the replayed log (or move the timing into "
            "an allowlisted telemetry/benchmark module)",
        )

    def _flag_perf(self, node: ast.AST, name: str) -> None:
        self.add(
            node,
            f"'{name}' outside the telemetry/benchmark allowlist",
            "move the measurement into a telemetry or benchmark module, "
            "or suppress with a reason if the value never reaches "
            "training or simulation state",
        )


class WallClockRule(LintRule):
    rule_id = "R3"
    title = "wall clock in library code"
    rationale = "wall-clock reads make identical replays diverge"
    bad_example = "started = time.time()"
    good_example = (
        "started = entry.timestamp  # simulated time from the log"
    )
    visitor_class = _WallClockVisitor

    def __init__(
        self,
        perf_counter_allowlist: Sequence[str] = DEFAULT_PERF_COUNTER_ALLOWLIST,
    ) -> None:
        self.perf_counter_allowlist = tuple(perf_counter_allowlist)

    def visitor(self, path: str) -> RuleVisitor:
        return _WallClockVisitor(self, path)


# ----------------------------------------------------------------------
# R4 — unordered set iteration
# ----------------------------------------------------------------------
_MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class _UnorderedSetIterationVisitor(RuleVisitor):
    """Flag iteration over bare set expressions.

    Set iteration order depends on ``PYTHONHASHSEED`` and insertion
    history; once it reaches output, RNG consumption or serialization
    the run is irreproducible.  ``sorted(set(...))`` is the fix and is
    never flagged.
    """

    _MESSAGE = (
        "iteration over an unordered set expression; order depends on "
        "PYTHONHASHSEED and insertion history"
    )
    _SUGGESTION = "wrap the set in sorted(...) before iterating"

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self.add(node.iter, self._MESSAGE, self._SUGGESTION)
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        for generator in node.generators:  # type: ignore[attr-defined]
            if _is_set_expr(generator.iter):
                self.add(generator.iter, self._MESSAGE, self._SUGGESTION)
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        materializes = (
            isinstance(node.func, ast.Name)
            and node.func.id in _MATERIALIZERS
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        )
        if materializes and node.args and _is_set_expr(node.args[0]):
            self.add(node.args[0], self._MESSAGE, self._SUGGESTION)
        self.generic_visit(node)


class UnorderedSetIterationRule(LintRule):
    rule_id = "R4"
    title = "unordered set iteration"
    rationale = "set order varies per process; sorted() restores replay"
    bad_example = "for name in {entry.symptom for entry in log}: ..."
    good_example = (
        "for name in sorted({entry.symptom for entry in log}): ..."
    )
    visitor_class = _UnorderedSetIterationVisitor


# ----------------------------------------------------------------------
# R5 — pickle-unsafe process-pool arguments
# ----------------------------------------------------------------------
_POOL_METHODS = frozenset(
    {
        "submit",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
    }
)
_POOL_CONSTRUCTORS = frozenset({"ProcessPoolExecutor", "Pool", "Process"})


class _PickleUnsafeWorkerVisitor(RuleVisitor):
    """Flag lambdas, local defs and generators shipped to process pools.

    Such objects either fail to pickle outright or (under fork-servers
    and ``dill``-style shims) smuggle unhashable closure state across
    the process boundary; workers must receive module-level callables
    and plain data, as ``learning/parallel.py`` does.
    """

    def __init__(self, rule: LintRule, path: str) -> None:
        super().__init__(rule, path)
        self._local_funcs: List[Set[str]] = []

    def _visit_function(self, node: ast.AST) -> None:
        nested: Set[str] = set()
        for inner in ast.walk(node):
            if inner is not node and isinstance(
                inner, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                nested.add(inner.name)
        self._local_funcs.append(nested)
        self.generic_visit(node)
        self._local_funcs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_pool_call = (
            isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS
        )
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        is_pool_ctor = name in _POOL_CONSTRUCTORS
        if is_pool_call or is_pool_ctor:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                self._check_arg(arg)
        self.generic_visit(node)

    def _check_arg(self, node: ast.expr) -> None:
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._check_arg(element)
            return
        if isinstance(node, ast.Lambda):
            self._flag(node, "a lambda")
        elif isinstance(node, ast.GeneratorExp):
            self._flag(node, "a generator expression")
        elif isinstance(node, ast.Name) and any(
            node.id in scope for scope in self._local_funcs
        ):
            self._flag(node, f"the locally defined function '{node.id}'")

    def _flag(self, node: ast.AST, what: str) -> None:
        self.add(
            node,
            f"{what} passed to a process-pool call site; it cannot "
            "cross the pickle boundary",
            "hoist the callable to module level and pass plain data "
            "(see learning/parallel.py's _worker_train)",
        )


class PickleUnsafeWorkerRule(LintRule):
    rule_id = "R5"
    title = "pickle-unsafe worker arguments"
    rationale = "pool workers only accept module-level callables"
    bad_example = "executor.submit(lambda: train(error_type))"
    good_example = "executor.submit(_worker_train, error_type)"
    visitor_class = _PickleUnsafeWorkerVisitor


# ----------------------------------------------------------------------
# R6 — float equality
# ----------------------------------------------------------------------
class _FloatEqualityVisitor(RuleVisitor):
    """Flag ``==``/``!=`` against syntactically float operands."""

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if self._floaty(left) or self._floaty(right):
                self.add(
                    node,
                    "exact float equality comparison; accumulated "
                    "rounding makes it replay- and platform-fragile",
                    "compare with an explicit tolerance "
                    "(math.isclose or an epsilon named in the module)",
                )
                break
        self.generic_visit(node)

    @classmethod
    def _floaty(cls, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return cls._floaty(node.operand)
        if isinstance(node, ast.BinOp):
            return (
                isinstance(node.op, ast.Div)
                or cls._floaty(node.left)
                or cls._floaty(node.right)
            )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            # Infinity compares exactly — float("inf") equality is a
            # legitimate sentinel check, not a rounding hazard.
            if (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.lstrip("+-").lower()
                in ("inf", "infinity")
            ):
                return False
            return True
        return False


class FloatEqualityRule(LintRule):
    rule_id = "R6"
    title = "float equality"
    rationale = "exact float compares break across platforms and runs"
    bad_example = "if total_cost == expected_cost: ..."
    good_example = "if math.isclose(total_cost, expected_cost): ..."
    visitor_class = _FloatEqualityVisitor
