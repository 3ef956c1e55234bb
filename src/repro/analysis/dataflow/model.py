"""The project model: every module parsed once, resolvable by name.

The model is the substrate every deep rule stands on.  It is built from
an already-parsed file set (the engine parses each file exactly once and
shares the trees between the syntactic visitors and this model) and
provides:

* a **symbol table** per module — top-level functions, classes with
  their methods, import bindings, assigned globals;
* **dotted-name resolution** from any module's namespace to a canonical
  fully-qualified name, following re-export chains
  (``from repro.util.rng import RngStreams`` re-exported through
  ``repro.util`` still canonicalizes to
  ``repro.util.rng.RngStreams``) and relative imports;
* the **import graph** between scanned modules;
* **method resolution** over the known class hierarchy (a simple
  depth-first MRO over resolvable bases — sufficient for the
  single-inheritance policy/session/backend hierarchy this package
  exists to check).

Everything is ordered deterministically: modules by name, symbols by
definition order within a file, so two builds over the same tree — in
any input order — produce identical tables, edge orders and therefore
identical findings.  ``tests/test_lint_project_model.py`` pins that
property with a hypothesis shuffle test.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectModel",
    "build_project",
    "module_name_for",
]

_MAX_REEXPORT_HOPS = 16


def module_name_for(path: Path) -> str:
    """The dotted module name for ``path``.

    Walks up while the parent directory is a package (contains an
    ``__init__.py``); a free-standing file is just its stem.  This maps
    ``src/repro/util/rng.py`` to ``repro.util.rng`` and a fixture file
    ``deep/r7_bad/worker.py`` (no ``__init__.py``) to ``worker``.
    """
    path = path.resolve()
    parts: List[str] = []
    if path.name == "__init__.py":
        path = path.parent
        parts.append(path.name)
        path = path.parent
    else:
        parts.append(path.stem)
        path = path.parent
    while (path / "__init__.py").is_file():
        parts.append(path.name)
        path = path.parent
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    params: Tuple[str, ...] = ()
    lineno: int = 0
    end_lineno: int = 0

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class definition with its (unresolved) base expressions."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    base_names: Tuple[Tuple[str, ...], ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its symbol table."""

    name: str
    path: str  # display path, as findings will report it
    source: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    global_names: Tuple[str, ...] = ()
    imported_modules: Tuple[str, ...] = ()


def _dotted(expr: ast.expr) -> Optional[Tuple[str, ...]]:
    """Flatten ``a.b.c`` into ``("a", "b", "c")``; None if not a pure chain."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _relative_base(module_name: str, level: int, is_package: bool) -> str:
    """The package a level-``level`` relative import resolves against."""
    parts = module_name.split(".")
    # Level 1 from a plain module means its containing package; from a
    # package __init__ it means the package itself.
    drop = level if not is_package else level - 1
    if drop >= len(parts):
        return ""
    return ".".join(parts[: len(parts) - drop]) if drop else module_name


class ProjectModel:
    """The whole scanned file set, indexed for interprocedural queries."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {
            info.name: info for info in sorted(modules, key=lambda m: m.name)
        }
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for info in self.modules.values():
            for function in info.functions.values():
                self.functions[function.qualname] = function
            for klass in info.classes.values():
                self.classes[klass.qualname] = klass
                for method in klass.methods.values():
                    self.functions[method.qualname] = method
        self._mro_cache: Dict[str, Tuple[str, ...]] = {}

    # -- naming ---------------------------------------------------------
    def display_path(self, module_name: str) -> str:
        info = self.modules.get(module_name)
        return info.path if info is not None else module_name

    # -- resolution -----------------------------------------------------
    def resolve(
        self, module_name: str, parts: Sequence[str]
    ) -> Optional[str]:
        """Canonical fully-qualified name for ``parts`` seen from a module.

        Follows import bindings, then squeezes re-export chains: as long
        as the resolved name splits into ``<scanned module>.<binding>``
        where the binding is itself an import in that module, keep
        following (bounded by ``_MAX_REEXPORT_HOPS``).
        """
        info = self.modules.get(module_name)
        if info is None or not parts:
            return None
        head, rest = parts[0], tuple(parts[1:])
        if head in info.imports:
            qualified = info.imports[head]
            if rest:
                qualified += "." + ".".join(rest)
        elif (
            head in info.functions
            or head in info.classes
            or head in info.global_names
        ):
            qualified = info.name + "." + ".".join(parts)
        else:
            return None
        return self.canonical(qualified)

    def canonical(self, qualified: str) -> str:
        """Squeeze re-export chains down to the defining module."""
        for _ in range(_MAX_REEXPORT_HOPS):
            owner, remainder = self._split_known_module(qualified)
            if owner is None or not remainder:
                return qualified
            head, *rest = remainder
            if (
                head in owner.functions
                or head in owner.classes
                or head in owner.global_names
            ):
                return qualified
            if head in owner.imports:
                target = owner.imports[head]
                qualified = (
                    target + ("." + ".".join(rest) if rest else "")
                )
                continue
            return qualified
        return qualified

    def _split_known_module(
        self, qualified: str
    ) -> Tuple[Optional[ModuleInfo], Tuple[str, ...]]:
        """Longest scanned-module prefix of a dotted name, plus the rest."""
        parts = qualified.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            info = self.modules.get(candidate)
            if info is not None:
                return info, tuple(parts[cut:])
        return None, tuple(parts)

    # -- class hierarchy ------------------------------------------------
    def resolve_bases(self, klass: ClassInfo) -> Tuple[str, ...]:
        resolved = []
        for base in klass.base_names:
            name = self.resolve(klass.module, base)
            if name is not None and name in self.classes:
                resolved.append(name)
        return tuple(resolved)

    def mro(self, class_qualname: str) -> Tuple[str, ...]:
        """Depth-first linearization over resolvable bases (cycle-safe)."""
        cached = self._mro_cache.get(class_qualname)
        if cached is not None:
            return cached
        order: List[str] = []
        stack = [class_qualname]
        seen = set()
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            stack.extend(self.resolve_bases(self.classes[current]))
        result = tuple(order)
        self._mro_cache[class_qualname] = result
        return result

    def resolve_method(
        self, class_qualname: str, method_name: str
    ) -> Optional[FunctionInfo]:
        for ancestor in self.mro(class_qualname):
            method = self.classes[ancestor].methods.get(method_name)
            if method is not None:
                return method
        return None

    # -- graphs ---------------------------------------------------------
    def import_graph(self) -> Dict[str, Tuple[str, ...]]:
        """Scanned-module edges of the import graph, sorted."""
        graph: Dict[str, Tuple[str, ...]] = {}
        for name, info in self.modules.items():
            targets = set()
            for target in info.imported_modules:
                owner, _ = self._split_known_module(target)
                if owner is not None and owner.name != name:
                    targets.add(owner.name)
            graph[name] = tuple(sorted(targets))
        return graph

    def fingerprint(self) -> str:
        """A stable textual digest of the model's structure.

        Two builds over the same source tree must produce the same
        fingerprint regardless of input path order — the determinism
        property the hypothesis test pins.
        """
        lines: List[str] = []
        for name, info in self.modules.items():
            lines.append(f"module {name} {info.path}")
            for binding in sorted(info.imports):
                lines.append(f"  import {binding} -> {info.imports[binding]}")
            for fname, function in info.functions.items():
                lines.append(
                    f"  def {function.qualname}({', '.join(function.params)})"
                )
            for cname, klass in info.classes.items():
                bases = ",".join(
                    ".".join(base) for base in klass.base_names
                )
                lines.append(f"  class {klass.qualname}({bases})")
                for mname, method in klass.methods.items():
                    lines.append(
                        f"    def {method.qualname}"
                        f"({', '.join(method.params)})"
                    )
        for name, targets in self.import_graph().items():
            lines.append(f"imports {name}: {' '.join(targets)}")
        return "\n".join(lines)


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = node.args  # type: ignore[attr-defined]
    names = [a.arg for a in args.posonlyargs]
    names.extend(a.arg for a in args.args)
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


def _build_module(
    name: str, path: str, source: str, tree: ast.Module
) -> ModuleInfo:
    info = ModuleInfo(name=name, path=path, source=source, tree=tree)
    is_package = path.endswith("__init__.py")
    imported: List[str] = []
    globals_seen: List[str] = []

    def record_import(node: ast.stmt, top_level: bool) -> None:
        # Nested imports (``if TYPE_CHECKING:`` guards, function-local
        # imports) still bind names the analysis wants to resolve; they
        # merge in with setdefault so a top-level binding always wins.
        def bind(binding: str, target: str) -> None:
            if top_level:
                info.imports[binding] = target
            else:
                info.imports.setdefault(binding, target)

        if isinstance(node, ast.Import):
            for alias in node.names:
                binding = alias.asname or alias.name.split(".")[0]
                target = (
                    alias.name
                    if alias.asname
                    else alias.name.split(".")[0]
                )
                bind(binding, target)
                imported.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(name, node.level, is_package)
                source_mod = (
                    f"{base}.{node.module}" if node.module and base
                    else (node.module or base)
                )
            else:
                source_mod = node.module or ""
            if not source_mod:
                return
            imported.append(source_mod)
            for alias in node.names:
                if alias.name == "*":
                    continue
                binding = alias.asname or alias.name
                bind(binding, f"{source_mod}.{alias.name}")

    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            node._repro_top_level = True  # type: ignore[attr-defined]
            record_import(node, top_level=True)
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Import, ast.ImportFrom)
        ) and not getattr(node, "_repro_top_level", False):
            record_import(node, top_level=False)

    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            pass
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                qualname=f"{name}.{node.name}",
                module=name,
                name=node.name,
                node=node,
                params=_param_names(node),
                lineno=node.lineno,
                end_lineno=node.end_lineno or node.lineno,
            )
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                dotted
                for dotted in (_dotted(base) for base in node.bases)
                if dotted is not None
            )
            klass = ClassInfo(
                qualname=f"{name}.{node.name}",
                module=name,
                name=node.name,
                node=node,
                base_names=bases,
            )
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    klass.methods[member.name] = FunctionInfo(
                        qualname=f"{klass.qualname}.{member.name}",
                        module=name,
                        name=member.name,
                        node=member,
                        class_name=node.name,
                        params=_param_names(member),
                        lineno=member.lineno,
                        end_lineno=member.end_lineno or member.lineno,
                    )
            info.classes[node.name] = klass
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    globals_seen.append(target.id)
    info.global_names = tuple(dict.fromkeys(globals_seen))
    info.imported_modules = tuple(dict.fromkeys(imported))
    return info


def build_project(
    files: Sequence[Tuple[Path, str, str, ast.Module]],
) -> ProjectModel:
    """Build the model from ``(path, display_path, source, tree)`` rows.

    The trees are the ones the engine already parsed for the syntactic
    visitors — no file is read or parsed twice.  Input order does not
    matter; the model sorts by module name.
    """
    modules = []
    seen: Dict[str, str] = {}
    for path, display, source, tree in files:
        name = module_name_for(Path(path))
        if name in seen:
            # Two files mapping to one module name (e.g. fixture twins
            # in sibling dirs) — disambiguate with the display path so
            # neither is silently dropped.
            name = f"{name}@{display}"
        seen[name] = display
        modules.append(_build_module(name, display, source, tree))
    return ProjectModel(modules)
