"""Handler-completeness rule pack.

Every message type string that is ever sent must have a receive site
somewhere — an ``on(mtype, ...)`` dispatch registration, a
``condition_quorum``/``condition_message`` wait, a direct inbox query,
or a ``(tag, mtype, oid)`` bucket a ``WaitState`` declares — and every
receive site must correspond to a message that some process actually
sends.  A sent-but-unhandled message silently disappears into inboxes
(a liveness bug waiting for a schedule that exposes it); a
handled-but-never-sent type is dead dispatch code or a typo in a tag
string.

* ``handler-unhandled`` — a send site whose message type has no
  receive site anywhere in scope.
* ``handler-orphan`` — a receive site whose message type is never
  sent.

Message types resolve module-qualified: a ``MSG_SEND`` constant means
whatever *that* module (or its explicit import) binds it to, so
``avid-send`` and ``rbc-send`` never alias.  One level of send-wrapper
indirection is followed: a helper whose parameter flows into the
``mtype`` position (e.g. ``_broadcast(mtype, ...)``) contributes the
resolved constants from its call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import str_constant, terminal_name
from repro.lint.config import LintConfig
from repro.lint.engine import ModuleInfo, Project
from repro.lint.findings import Finding
from repro.lint.flow.registry import WAIT_STATE_CALL

RULE_UNHANDLED = "handler-unhandled"
RULE_ORPHAN = "handler-orphan"

#: mtype argument index per send-style callable.
_SEND_MTYPE_INDEX = {"send": 2, "send_to_servers": 1}
#: mtype argument index per receive-site callable.
_RECEIVE_MTYPE_INDEX = {
    "on": 0,
    "condition_quorum": 1,
    "condition_message": 1,
    "messages": 1,
    "first_per_sender": 1,
    "senders": 1,
    "count_distinct": 1,
}
#: Inbox query methods additionally require an ``inbox`` receiver so
#: unrelated ``.messages(...)`` calls do not register receive sites.
_INBOX_ONLY = {"messages", "first_per_sender", "senders", "count_distinct"}


@dataclass(frozen=True)
class _Site:
    mtype: str
    module: str
    line: int


def _resolve_mtype(node: ast.expr,
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

    def run(self, project: Project,
            config: LintConfig) -> Iterable[Finding]:
        """Yield handler-completeness findings over the scoped modules."""
        scope = project.scoped(self.pack, config)
        sends: List[_Site] = []
        receives: List[_Site] = []
        #: wrapper function name -> index (excluding self) of the
        #: parameter that flows into an mtype position.
        wrappers: Dict[str, int] = {}

        for module in scope:
            self._collect(module, sends, receives, wrappers)
        for module in scope:
            self._collect_wrapper_calls(module, wrappers, sends)

        sent_types = {s.mtype for s in sends}
        received_types = {r.mtype for r in receives}
        module_paths = {m.dotted: m.display_path for m in scope}

        for site in sends:
            if site.mtype not in received_types:
                yield Finding(
                    rule=RULE_UNHANDLED,
                    path=module_paths[site.module],
                    line=site.line,
                    message=(
                        f"message type '{site.mtype}' is sent here but "
                        "has no dispatch arm or wait condition anywhere"))
        for site in receives:
            if site.mtype not in sent_types:
                yield Finding(
                    rule=RULE_ORPHAN,
                    path=module_paths[site.module],
                    line=site.line,
                    message=(
                        f"message type '{site.mtype}' has a receive site "
                        "here but no process ever sends it"))

    def _collect(self, module: ModuleInfo, sends: List[_Site],
                 receives: List[_Site],
                 wrappers: Dict[str, int]) -> None:
        param_stack: List[Tuple[str, List[str]]] = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                param_stack.append((node.name, _param_names(node)))
                for child in ast.iter_child_nodes(node):
                    visit(child)
                param_stack.pop()
                return
            if isinstance(node, ast.Call):
                self._visit_call(module, node, param_stack, sends,
                                 receives, wrappers)
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(module.tree)

    def _visit_call(self, module: ModuleInfo, node: ast.Call,
                    param_stack: List[Tuple[str, List[str]]],
                    sends: List[_Site], receives: List[_Site],
                    wrappers: Dict[str, int]) -> None:
        fname = terminal_name(node.func)
        if (fname in _SEND_MTYPE_INDEX
                and isinstance(node.func, ast.Attribute)):
            arg = _mtype_arg(node, _SEND_MTYPE_INDEX[fname])
            if arg is None:
                return
            mtype = _resolve_mtype(arg, module.constants)
            if mtype is not None:
                sends.append(_Site(mtype, module.dotted, node.lineno))
            elif isinstance(arg, ast.Name) and param_stack:
                func_name, params = param_stack[-1]
                if (arg.id in params
                        and func_name not in _SEND_MTYPE_INDEX):
                    wrappers[func_name] = params.index(arg.id)
        elif fname == WAIT_STATE_CALL:
            # every argument after the check closure is a
            # ``(tag, mtype, oid)`` bucket the closure waits on
            for key in node.args[1:]:
                if isinstance(key, ast.Tuple) and len(key.elts) == 3:
                    mtype = _resolve_mtype(key.elts[1], module.constants)
                    if mtype is not None:
                        receives.append(
                            _Site(mtype, module.dotted, node.lineno))
        elif fname in _RECEIVE_MTYPE_INDEX:
            if fname in _INBOX_ONLY:
                receiver = (node.func.value
                            if isinstance(node.func, ast.Attribute)
                            else None)
                if receiver is None or terminal_name(receiver) != "inbox":
                    return
            arg = _mtype_arg(node, _RECEIVE_MTYPE_INDEX[fname])
            if arg is None:
                return
            mtype = _resolve_mtype(arg, module.constants)
            if mtype is not None:
                receives.append(_Site(mtype, module.dotted, node.lineno))

    def _collect_wrapper_calls(self, module: ModuleInfo,
                               wrappers: Dict[str, int],
                               sends: List[_Site]) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            fname = terminal_name(node.func)
            if fname not in wrappers:
                continue
            index = wrappers[fname]
            if len(node.args) <= index:
                continue
            mtype = _resolve_mtype(node.args[index], module.constants)
            if mtype is not None:
                sends.append(_Site(mtype, module.dotted, node.lineno))
