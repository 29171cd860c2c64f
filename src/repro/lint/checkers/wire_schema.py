"""wire-schema: client and server must agree on the JSON keys.

The evaluation service speaks hand-rolled JSON over HTTP, so nothing
type-checks the contract: a key the client sends that the server never
parses (or a response key the client reads that the server never
emits) fails only at runtime, possibly only under one dispatch mode.
This checker extracts both sides of the schema from the AST of the
``service/`` modules and enforces containment:

- every key the client (``client.py``) puts in a request body must
  be parsed somewhere server-side (``request["k"]`` /
  ``request.get("k")`` in ``server.py`` or ``wire.py``);
- every key the client — or a response parser in ``wire.py`` —
  reads out of a parsed response must be produced somewhere
  server-side (a ``_reply(...)`` payload or the ``health()``
  inventory).

The reverse directions are deliberately open: servers may emit keys
old clients ignore, and may parse optional keys — that is how the
wire format stays forward-compatible.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.lint.core import Checker, Finding, Project, SourceFile, register


def _service_file(project: Project, basename: str) -> Optional[SourceFile]:
    for sf in project.library_files():
        if "service" in sf.parts and sf.display.endswith(f"/{basename}"):
            return sf
    return None


def _dict_keys(node: ast.Dict) -> List[str]:
    return [
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    ]


def _client_sent_keys(sf: SourceFile) -> Dict[str, int]:
    """Key -> first line where the client writes it into a request
    body: dict literals named ``request`` (plus their later
    ``request["k"] = ...`` additions) and dict literals passed
    directly as a request payload."""
    keys: Dict[str, int] = {}

    def note(key: str, lineno: int) -> None:
        keys.setdefault(key, lineno)

    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Assign):
            named_request = any(
                isinstance(t, ast.Name) and t.id == "request"
                for t in node.targets
            )
            if named_request and isinstance(node.value, ast.Dict):
                for key in _dict_keys(node.value):
                    note(key, node.lineno)
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "request"
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    note(target.slice.value, node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "_checked",
                "_request",
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        for key in _dict_keys(arg):
                            note(key, arg.lineno)
    return keys


def _read_keys(sf: SourceFile, receiver: str) -> Dict[str, int]:
    """Key -> line for ``<receiver>["k"]`` / ``<receiver>.get("k")``
    reads, plus ``.get("k")`` chained directly on a call result."""
    keys: Dict[str, int] = {}
    for node in ast.walk(sf.tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == receiver
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and isinstance(getattr(node, "ctx", None), ast.Load)
        ):
            keys.setdefault(node.slice.value, node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                base = func.value
                if (isinstance(base, ast.Name) and base.id == receiver) or (
                    receiver == "parsed" and isinstance(base, ast.Call)
                ):
                    keys.setdefault(node.args[0].value, node.lineno)
    return keys


def _server_produced_keys(sf: SourceFile) -> List[str]:
    """String keys of every ``_reply(...)`` dict payload plus every
    dict literal inside a function named ``health``."""
    produced: List[str] = []
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name == "_reply":
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        produced.extend(_dict_keys(arg))
        elif isinstance(node, ast.FunctionDef) and node.name == "health":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Dict):
                    produced.extend(_dict_keys(sub))
    return produced


@register
class WireSchemaChecker(Checker):
    name = "wire-schema"
    description = (
        "JSON keys the service client sends/reads must be keys the "
        "server parses/produces"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        client = _service_file(project, "client.py")
        server = _service_file(project, "server.py")
        wire = _service_file(project, "wire.py")
        if client is None or server is None:
            return  # need both ends of the wire to compare
        parsed_keys: Dict[str, int] = {}
        produced: List[str] = []
        for sf in (server, wire):
            if sf is None:
                continue
            parsed_keys.update(_read_keys(sf, "request"))
            produced.extend(_server_produced_keys(sf))
        produced_set = set(produced)
        sent = _client_sent_keys(client)
        for key, lineno in sorted(sent.items(), key=lambda kv: kv[1]):
            if key not in parsed_keys:
                yield Finding(
                    self.name,
                    client.display,
                    lineno,
                    f"client sends request key '{key}' that the server "
                    "never parses — drift between client.py and "
                    "server.py/wire.py",
                )
        # Response-key reads: the client's own here, the wire.py
        # response parsers' (which read most keys for it) below.
        reads = dict(_read_keys(client, "parsed"))
        for key, lineno in sorted(reads.items(), key=lambda kv: kv[1]):
            if key not in produced_set:
                yield Finding(
                    self.name,
                    client.display,
                    lineno,
                    f"client reads response key '{key}' that the "
                    "server never produces",
                )
        if wire is not None:
            for key, lineno in sorted(
                _read_keys(wire, "parsed").items(), key=lambda kv: kv[1]
            ):
                if key not in produced_set:
                    yield Finding(
                        self.name,
                        wire.display,
                        lineno,
                        f"response parser reads key '{key}' that the "
                        "server never produces",
                    )
