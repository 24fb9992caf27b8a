"""Handler-completeness rule pack.

Every message type string that is ever sent (by ``send``,
``send_to_servers`` or ``simulator.enqueue``) must have a receive site
somewhere — an ``on(mtype, ...)`` dispatch registration, a
``condition_quorum``/``condition_agreeing`` wait, a direct inbox query, or a ``(tag, mtype, oid)`` bucket a ``WaitState``
declares — and every receive site must correspond to a message that
some process actually sends.  A sent-but-unhandled message silently
disappears into inboxes (a liveness bug waiting for a schedule that
exposes it); a handled-but-never-sent type is dead dispatch code or a
typo in a tag string.

* ``handler-unhandled`` — a send site whose message type has no
  receive site anywhere in scope.
* ``handler-orphan`` — a receive site whose message type is never
  sent.

Message types resolve module-qualified: a ``MSG_SEND`` constant means
whatever *that* module (or its explicit import) binds it to, so
``avid-send`` and ``rbc-send`` never alias.  One level of wrapper
indirection is followed on both sides: a helper whose parameter flows
into the ``mtype`` position of a send (e.g. ``_broadcast(mtype, ...)``)
or of a receive site (e.g. a client base's timestamp round waiting on
``condition_quorum(tag, ts_type, ...)``) takes its message types from
its call sites, each resolved through the constants of the caller's
module.  Call sites resolve through the project index
(:meth:`repro.lint.engine.Project.callees`): the caller's module, its
imports and, for ``self.helper(...)``, the classes above and below the
caller's class.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.astutil import FUNC_NODES, str_constant, terminal_name
from repro.lint.engine import ModuleInfo, Project
from repro.lint.findings import Finding
from repro.lint.flow.registry import CONDITION_CALLS, WAIT_STATE_CALL

RULE_UNHANDLED = "handler-unhandled"
RULE_ORPHAN = "handler-orphan"

#: mtype argument index per send-style callable.
_SEND_MTYPE_INDEX = {"send": 2, "send_to_servers": 1, "enqueue": 3}
#: mtype argument index per receive-site callable.
_RECEIVE_MTYPE_INDEX = {
    "on": 0,
    **{name: 1 for name in CONDITION_CALLS},
    "messages": 1,
    "first_per_sender": 1,
}
#: Callables that count only on a receiver of this name, so unrelated
#: ``.messages(...)`` / ``.enqueue(...)`` calls register no site: the
#: inbox queries and ``Simulator.enqueue(sender, recipient, tag, mtype,
#: ...)``, the send beneath ``Process.send``.
_RECEIVER = {"messages": "inbox", "first_per_sender": "inbox",
             "enqueue": "simulator"}
#: The send and receive primitives themselves are never wrappers.
_PRIMITIVES = set(_SEND_MTYPE_INDEX) | set(_RECEIVE_MTYPE_INDEX)


@dataclass(frozen=True)
class _Site:
    mtype: str
    module: str
    line: int


#: wrapper name -> ``id`` of its def -> ``(kind, index, name)`` of each
#: parameter (``self`` excluded) that reaches a send or receive mtype
_Wrappers = Dict[str, Dict[int, Set[Tuple[str, int, str]]]]
#: calls with their module and the function or method containing them
_Calls = List[Tuple[ModuleInfo, Optional[ast.AST], ast.Call]]


def _resolve_mtype(node: Optional[ast.expr],
                   constants: Dict[str, str]) -> Optional[str]:
    literal = str_constant(node)
    if literal is not None:
        return literal
    name = terminal_name(node)
    if name is not None:
        return constants.get(name)
    return None


def _mtype_arg(call: ast.Call, index: int,
               keyword: str = "mtype") -> Optional[ast.expr]:
    if len(call.args) > index:
        return call.args[index]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _param_names(func: ast.AST) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in {"self", "cls"}:
        names = names[1:]
    return names


class HandlerCompletenessRule:
    """Match every sent message type with a receive site, and back."""

    pack = "handlers"
    rule_ids: Tuple[str, ...] = (RULE_UNHANDLED, RULE_ORPHAN)

    def run(self, project: Project) -> Iterable[Finding]:
        """Yield handler-completeness findings over the scoped modules."""
        scope = project.scoped(self.pack)
        sites: Dict[str, List[_Site]] = {"send": [], "receive": []}
        wrappers: _Wrappers = {}
        calls: _Calls = []
        for module in scope:
            self._collect(module, sites, wrappers, calls)
        for module, func, call in calls:
            by_def = wrappers.get(terminal_name(call.func))
            if not by_def:
                continue
            for _, callee in project.callees(module, func, call):
                for kind, index, param in by_def.get(id(callee), ()):
                    mtype = _resolve_mtype(_mtype_arg(call, index, param),
                                           module.constants)
                    if mtype is not None:
                        sites[kind].append(
                            _Site(mtype, module.dotted, call.lineno))

        module_paths = {m.dotted: m.display_path for m in scope}
        for kind, other, rule, text in (
                ("send", "receive", RULE_UNHANDLED, "is sent here but has "
                 "no dispatch arm or wait condition anywhere"),
                ("receive", "send", RULE_ORPHAN, "has a receive site here "
                 "but no process ever sends it")):
            matched = {site.mtype for site in sites[other]}
            for site in sites[kind]:
                if site.mtype not in matched:
                    yield Finding(
                        rule=rule, path=module_paths[site.module],
                        line=site.line,
                        message=f"message type '{site.mtype}' {text}")

    def _collect(self, module: ModuleInfo, sites: Dict[str, List[_Site]],
                 wrappers: _Wrappers, calls: _Calls) -> None:
        stack: List[ast.AST] = []

        def site(kind: str, arg: Optional[ast.expr], line: int) -> None:
            """``arg`` names a message type at ``line``: a constant, or
            a parameter of the enclosing helper, which is then a
            wrapper whose call sites supply the constant."""
            mtype = _resolve_mtype(arg, module.constants)
            if mtype is not None:
                sites[kind].append(_Site(mtype, module.dotted, line))
            elif (isinstance(arg, ast.Name) and stack
                  and stack[-1].name not in _PRIMITIVES):
                params = _param_names(stack[-1])
                if arg.id in params:
                    wrappers.setdefault(stack[-1].name, {}).setdefault(
                        id(stack[-1]), set()).add(
                            (kind, params.index(arg.id), arg.id))

        def visit(node: ast.AST) -> None:
            if isinstance(node, FUNC_NODES):
                stack.append(node)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                stack.pop()
                return
            if isinstance(node, ast.Call):
                calls.append((module, stack[0] if stack else None, node))
                fname = terminal_name(node.func)
                method = isinstance(node.func, ast.Attribute)
                if fname in _RECEIVER and not (
                        method and terminal_name(node.func.value)
                        == _RECEIVER[fname]):
                    fname = None  # an unrelated method of the same name
                if fname in _SEND_MTYPE_INDEX and method:
                    site("send", _mtype_arg(node, _SEND_MTYPE_INDEX[fname]),
                         node.lineno)
                elif fname == WAIT_STATE_CALL:
                    # every argument after the check closure is a
                    # ``(tag, mtype, oid)`` bucket the closure waits on
                    for key in node.args[1:]:
                        if isinstance(key, ast.Tuple) and len(key.elts) == 3:
                            site("receive", key.elts[1], node.lineno)
                elif fname in _RECEIVE_MTYPE_INDEX:
                    site("receive",
                         _mtype_arg(node, _RECEIVE_MTYPE_INDEX[fname]),
                         node.lineno)
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(module.tree)
