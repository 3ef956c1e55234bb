"""Call-site resolution and the project call graph.

Resolution is deliberately conservative: a call site resolves to at
most one target, found through the project model —

* ``helper(...)`` / ``module.helper(...)`` — symbol-table lookup
  through import bindings and re-export chains;
* ``self.method(...)`` — method resolution over the enclosing class's
  MRO;
* ``ClassName(...)`` — the class's ``__init__`` (found via MRO), with
  argument positions shifted past ``self``;

anything receiver-typed (``obj.method()`` on an arbitrary expression)
is left unresolved — the taint layer handles the RNG-specific cases
(``streams.get``, generator draw methods) by receiver taint instead of
by name.  Unresolved calls are simply absent from the graph; the deep
rules over-approximate elsewhere, so a missing edge can cause a missed
finding but never a false one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.dataflow.model import FunctionInfo, ProjectModel

__all__ = ["CallTarget", "CallGraph", "CallResolver", "build_call_graph"]


@dataclass(frozen=True)
class CallTarget:
    """A resolved call: the callee plus how arguments map to params.

    ``param_offset`` is 1 for bound-method and constructor calls (the
    caller's first positional argument lands on the callee's second
    parameter, after ``self``) and 0 for plain function calls.
    """

    function: FunctionInfo
    param_offset: int = 0
    is_constructor: bool = False
    class_qualname: Optional[str] = None


class CallResolver:
    """Resolves ``ast.Call`` nodes seen from inside a given function."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project

    def resolve(
        self, caller: FunctionInfo, call: ast.Call
    ) -> Optional[CallTarget]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_qualified(caller, (func.id,))
        if isinstance(func, ast.Attribute):
            parts = _dotted_chain(func)
            if parts is None:
                return None
            if (
                parts[0] == "self"
                and caller.class_name is not None
                and len(parts) == 2
            ):
                class_qualname = f"{caller.module}.{caller.class_name}"
                method = self.project.resolve_method(
                    class_qualname, parts[1]
                )
                if method is not None:
                    return CallTarget(
                        function=method,
                        param_offset=1,
                        class_qualname=class_qualname,
                    )
                return None
            return self._resolve_qualified(caller, parts)
        return None

    def _resolve_qualified(
        self, caller: FunctionInfo, parts: Tuple[str, ...]
    ) -> Optional[CallTarget]:
        qualified = self.project.resolve(caller.module, parts)
        if qualified is None:
            return None
        function = self.project.functions.get(qualified)
        if function is not None:
            # Unbound Class.method(...) calls pass self explicitly.
            return CallTarget(function=function, param_offset=0)
        klass = self.project.classes.get(qualified)
        if klass is not None:
            init = self.project.resolve_method(qualified, "__init__")
            if init is not None:
                return CallTarget(
                    function=init,
                    param_offset=1,
                    is_constructor=True,
                    class_qualname=qualified,
                )
            return CallTarget(
                function=FunctionInfo(
                    qualname=f"{qualified}.__init__",
                    module=klass.module,
                    name="__init__",
                    node=klass.node,
                    class_name=klass.name,
                    params=("self",),
                    lineno=klass.node.lineno,
                    end_lineno=klass.node.lineno,
                ),
                param_offset=1,
                is_constructor=True,
                class_qualname=qualified,
            )
        return None

    def resolve_name(
        self, caller: FunctionInfo, expr: ast.expr
    ) -> Optional[str]:
        """Canonical qualified name of a dotted expression, if any."""
        parts = _dotted_chain(expr)
        if parts is None:
            return None
        resolved = self.project.resolve(caller.module, parts)
        if resolved is not None:
            return resolved
        # External names (numpy, os, json …) resolve through the import
        # binding even though the module is not scanned.
        info = self.project.modules.get(caller.module)
        if info is not None and parts[0] in info.imports:
            target = info.imports[parts[0]]
            rest = parts[1:]
            return target + ("." + ".".join(rest) if rest else "")
        return None


def _dotted_chain(expr: ast.expr) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    line: int


class CallGraph:
    """Resolved call edges, deterministically ordered."""

    def __init__(self, edges: Tuple[CallEdge, ...]) -> None:
        self.edges = edges

    def fingerprint(self) -> str:
        return "\n".join(
            f"{edge.caller} -> {edge.callee} @{edge.line}"
            for edge in self.edges
        )


def build_call_graph(project: ProjectModel) -> CallGraph:
    resolver = CallResolver(project)
    edges: List[CallEdge] = []
    for qualname in sorted(project.functions):
        function = project.functions[qualname]
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            target = resolver.resolve(function, node)
            if target is not None:
                edges.append(
                    CallEdge(
                        caller=qualname,
                        callee=target.function.qualname,
                        line=node.lineno,
                    )
                )
    edges.sort(key=lambda e: (e.caller, e.line, e.callee))
    return CallGraph(tuple(edges))
