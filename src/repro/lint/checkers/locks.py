"""lock-guard: shared mutable state must stay behind its lock.

The threaded layers (``sweeps/hostpool.py``, ``service/server.py``,
``service/client.py``) follow one convention: an attribute that is
*ever* mutated under ``with self._lock`` (or any ``*lock*``-named
context) is shared state, and every other mutation of it must also
hold a lock. This checker learns the guarded set per class from the
code itself and flags:

- a write / augmented write / mutating method call
  (``self.evals += 1``, ``self._registry[k] = v``,
  ``self._connections.add(c)``) on a guarded attribute outside any
  lock, outside ``__init__`` (construction predates the threads).
  Attributes written through a bare local name (``host.evals += n``)
  are learned and checked the same way, keyed by that name;
- nested lock acquisitions taken in inconsistent order anywhere in
  the file (A inside B here, B inside A there — a deadlock recipe).

``threading.local()`` slots are naturally exempt: their writes go
through ``self._local.attr``, whose base is not the bare ``self``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.core import Checker, Finding, SourceFile, register

#: Files whose classes are driven by worker / handler threads.
SCOPED_SUFFIXES = (
    "sweeps/hostpool.py",
    "service/server.py",
    "service/client.py",
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "setdefault",
    "update",
}


def _lock_name(expr: ast.expr) -> str:
    """The textual identity of a ``with`` context that looks like a
    lock ("" otherwise): ``self._lock`` -> "self._lock"."""
    if isinstance(expr, ast.Attribute) and "lock" in expr.attr.lower():
        base = _lock_name(expr.value) or (
            expr.value.id if isinstance(expr.value, ast.Name) else "?"
        )
        return f"{base}.{expr.attr}"
    if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
        return expr.id
    return ""


def _attr_target(node: ast.expr) -> str:
    """The key of a write target that is an attribute of a bare name:
    ``x`` for ``self.x`` or ``self.x[k]``, ``host.x`` for ``host.x`` or
    ``host.x[k]`` (state reached through a local name, such as a pool's
    per-host records); "" otherwise."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        base = node.value.id
        return node.attr if base == "self" else f"{base}.{node.attr}"
    return ""


class _MutationEvent:
    __slots__ = ("attr", "node", "locks", "in_init")

    def __init__(self, attr: str, node: ast.AST, locks: Tuple[str, ...],
                 in_init: bool) -> None:
        self.attr = attr
        self.node = node
        self.locks = locks
        self.in_init = in_init


class _ClassScanner(ast.NodeVisitor):
    """Collect per-class mutation events and the lock-nesting edges."""

    def __init__(self) -> None:
        self.events: List[_MutationEvent] = []
        self.edges: Dict[Tuple[str, str], int] = {}  # (outer, inner) -> lineno
        self._locks: List[str] = []
        self._func_stack: List[str] = []

    # -- structure ----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        acquired = [
            name
            for item in node.items
            if (name := _lock_name(item.context_expr))
        ]
        for inner in acquired:
            for outer in self._locks:
                if outer != inner:
                    self.edges.setdefault((outer, inner), node.lineno)
        self._locks.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self._locks.pop()

    # -- mutations ----------------------------------------------------------

    def _record(self, attr: str, node: ast.AST) -> None:
        in_init = bool(self._func_stack) and self._func_stack[0] == "__init__"
        self.events.append(
            _MutationEvent(attr, node, tuple(self._locks), in_init)
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            for elt in elts:
                attr = _attr_target(elt)
                if attr:
                    self._record(attr, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _attr_target(node.target)
        if attr:
            self._record(attr, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
        ):
            attr = _attr_target(func.value)
            if attr:
                self._record(attr, node)
        self.generic_visit(node)


@register
class LockGuardChecker(Checker):
    name = "lock-guard"
    description = (
        "attributes mutated under a lock anywhere in a threaded-layer "
        "class must be mutated under a lock everywhere (plus consistent "
        "lock-acquisition order)"
    )

    def relevant(self, sf: SourceFile) -> bool:
        return sf.display.endswith(SCOPED_SUFFIXES)

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        reported_pairs: Set[Tuple[str, str]] = set()
        for node in sf.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            scanner = _ClassScanner()
            for stmt in node.body:
                scanner.visit(stmt)
            guarded = {e.attr for e in scanner.events if e.locks}
            for event in scanner.events:
                if event.locks or event.in_init:
                    continue
                if event.attr not in guarded:
                    continue
                yield sf.finding(
                    self.name,
                    event.node,
                    f"'{node.name}.{event.attr}' is mutated under a lock "
                    "elsewhere but written here without one",
                )
            for (outer, inner), lineno in sorted(scanner.edges.items()):
                pair = tuple(sorted((outer, inner)))
                if pair in reported_pairs:
                    continue
                if (inner, outer) in scanner.edges:
                    reported_pairs.add(pair)
                    other = scanner.edges[(inner, outer)]
                    yield Finding(
                        self.name,
                        sf.display,
                        max(lineno, other),
                        f"inconsistent lock order: '{outer}' -> '{inner}' "
                        f"(line {lineno}) but '{inner}' -> '{outer}' "
                        f"(line {other}) — pick one order to avoid deadlock",
                    )
