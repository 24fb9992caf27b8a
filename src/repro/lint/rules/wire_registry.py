"""Wire-registry rule pack.

The canonical serialization layer (:mod:`repro.common.serialization`)
measures communication complexity by encoding payloads; a dataclass
that crosses the wire without a ``@register_wire_type`` registration
fails to encode (or worse, is silently measured wrong), and a
registered type nothing references is dead weight in the registry.

* ``wire-unregistered`` — a dataclass constructed inside a
  ``send``/``send_to_servers`` payload, or matched with
  ``isinstance(<payload expr>, Cls)``, that carries no
  ``@register_wire_type`` decoration.
* ``wire-dead`` — a ``@register_wire_type``-registered class with no
  references outside its defining module (severity ``warning``).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import (
    FUNC_NODES,
    contains_name,
    single_assignment_table,
    terminal_name,
)
from repro.lint.engine import ModuleInfo, Project
from repro.lint.findings import Finding

RULE_UNREGISTERED = "wire-unregistered"
RULE_DEAD = "wire-dead"

_DATACLASS_DECORATORS = {"dataclass"}
_REGISTER_DECORATORS = {"register_wire_type"}
#: Payload argument start index per send-style callable.
_SEND_PAYLOAD_START = {"send": 3, "send_to_servers": 2}


@dataclass
class _DataclassDef:
    name: str
    module: str
    line: int
    registered: bool
    register_line: int = 0


@dataclass
class _Usage:
    name: str
    module: str
    line: int
    context: str


def _decorator_terminal(decorator: ast.expr) -> Optional[str]:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return terminal_name(decorator)


def _payload_class_refs(node: ast.expr,
                        locals_table: Dict[str, ast.expr]) -> Iterator[
                            Tuple[str, ast.expr]]:
    """Class names plausibly instantiated inside a payload expression."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _payload_class_refs(elt, locals_table)
        return
    if isinstance(node, ast.Starred):
        yield from _payload_class_refs(node.value, locals_table)
        return
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id[:1].isupper():
            yield (node.func.id, node)
        return
    if isinstance(node, ast.Name) and node.id in locals_table:
        value = locals_table[node.id]
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id[:1].isupper()):
            yield (value.func.id, node)


def _scan(module: ModuleInfo) -> Tuple[List[_DataclassDef], List[_Usage],
                                       Set[str]]:
    """Walk ``module`` once for its dataclasses (with their
    registrations), its payload usages and every name it mentions:
    names, attribute names and the last part of each imported name.

    A send or ``isinstance`` call counts once for each function that
    encloses it, each resolving payload locals through its own
    single-assignment table (built at the first payload: few functions
    send one), as if every function were walked on its own.  Calls
    outside any function are not usages.
    """
    defs: List[_DataclassDef] = []
    registrations: List[ast.Call] = []  # register_wire_type(Cls) calls
    usages: List[_Usage] = []
    mentions: Set[str] = set()
    tables: Dict[ast.AST, Dict[str, ast.expr]] = {}

    def add(name: str, node: ast.AST, context: str) -> None:
        usages.append(_Usage(name=name, module=module.dotted,
                             line=getattr(node, "lineno", 1),
                             context=context))

    def call(node: ast.Call, functions: Tuple[ast.AST, ...]) -> None:
        fname = terminal_name(node.func)
        if (fname in _REGISTER_DECORATORS
                and node.args and isinstance(node.args[0], ast.Name)):
            registrations.append(node)
        if not functions:
            return
        if (fname in _SEND_PAYLOAD_START
                and isinstance(node.func, ast.Attribute)):
            for func in functions:
                for arg in node.args[_SEND_PAYLOAD_START[fname]:]:
                    table = tables.get(func)
                    if table is None:
                        table = tables[func] = single_assignment_table(func)
                    for cls, at in _payload_class_refs(arg, table):
                        add(cls, at, "payload")
        elif (fname == "isinstance" and len(node.args) == 2
              and contains_name(node.args[0], "payload")):
            classes = node.args[1]
            elts = (classes.elts
                    if isinstance(classes, ast.Tuple) else [classes])
            for _ in functions:
                for elt in elts:
                    name = terminal_name(elt)
                    if name and name[:1].isupper():
                        add(name, node, "isinstance")

    def class_def(node: ast.ClassDef) -> None:
        names = [_decorator_terminal(d) for d in node.decorator_list]
        if any(n in _DATACLASS_DECORATORS for n in names):
            defs.append(_DataclassDef(
                name=node.name, module=module.dotted, line=node.lineno,
                registered=any(n in _REGISTER_DECORATORS for n in names),
                register_line=node.lineno))

    # ``ast.walk``'s breadth-first order, carrying the enclosing functions
    todo: Deque[Tuple[ast.AST, Tuple[ast.AST, ...]]] = deque(
        [(module.tree, ())])
    while todo:
        node, functions = todo.popleft()
        if isinstance(node, ast.Name):
            mentions.add(node.id)
        elif isinstance(node, ast.Attribute):
            mentions.add(node.attr)
        elif isinstance(node, ast.alias):
            mentions.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Call):
            call(node, functions)
        elif isinstance(node, ast.ClassDef):
            class_def(node)
        elif isinstance(node, FUNC_NODES):
            functions = functions + (node,)
        todo.extend((child, functions)
                    for child in ast.iter_child_nodes(node))

    by_name = {d.name: d for d in defs}
    for node in registrations:
        target = by_name.get(node.args[0].id)
        if target is not None:
            target.registered = True
            target.register_line = node.lineno
    return defs, usages, mentions


class WireRegistryRule:
    """Cross-check payload dataclasses against the wire-type registry."""

    pack = "wire"
    rule_ids: Tuple[str, ...] = (RULE_UNREGISTERED, RULE_DEAD)

    def run(self, project: Project) -> Iterable[Finding]:
        """Yield wire-registry findings over the scoped modules."""
        scope = project.scoped(self.pack)
        defs: List[_DataclassDef] = []
        usages: List[_Usage] = []
        mentions: Dict[str, Set[str]] = {}
        for module in scope:
            module_defs, module_usages, mentions[module.dotted] = \
                _scan(module)
            defs.extend(module_defs)
            usages.extend(module_usages)

        by_name: Dict[str, List[_DataclassDef]] = {}
        for d in defs:
            by_name.setdefault(d.name, []).append(d)

        module_paths = {m.dotted: m.display_path for m in scope}

        for usage in usages:
            resolved = self._resolve_usage(project, usage, by_name)
            if resolved is None or resolved.registered:
                continue
            yield Finding(
                rule=RULE_UNREGISTERED,
                path=module_paths[usage.module],
                line=usage.line,
                message=(
                    f"dataclass '{resolved.name}' (defined in "
                    f"{resolved.module}) is used as a message payload "
                    "but is not registered with register_wire_type"))

        used_names = {u.name for u in usages}
        for d in defs:
            if not d.registered or d.name in used_names:
                continue
            if any(d.name in names for dotted, names in mentions.items()
                   if dotted != d.module):
                continue
            yield Finding(
                rule=RULE_DEAD,
                path=module_paths[d.module],
                line=d.line,
                severity="warning",
                message=(
                    f"wire type '{d.name}' is registered but never "
                    "referenced outside its defining module; remove the "
                    "registration or the class"))

    @staticmethod
    def _resolve_usage(project: Project, usage: _Usage,
                       by_name: Dict[str, List[_DataclassDef]]) -> Optional[
                           _DataclassDef]:
        """The dataclass a used name denotes: one its module defines,
        else the one its ``from X import Y as Z`` binding names, else
        the only dataclass of that name."""
        for candidate in by_name.get(usage.name, []):
            if candidate.module == usage.module:
                return candidate
        source, name = project.imports[usage.module].get(
            usage.name, (None, usage.name))
        candidates = by_name.get(name, [])
        for candidate in candidates:
            if candidate.module == source:
                return candidate
        if len(candidates) == 1:
            return candidates[0]
        return None
