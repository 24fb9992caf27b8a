"""The interprocedural taint-flow engine behind the ``taint`` pack.

Per module, the engine

1. builds a function index (module functions plus methods, keyed by
   terminal name) and discovers the *taint roots*: message handlers
   registered via ``on(mtype, handler)`` (also by a subclass that
   inherits it) and ``where=`` predicates — their message parameter
   carries a Byzantine-controlled payload;
2. runs a statement-ordered abstract interpretation over every
   function: names are tracked through one of four taint states
   (``CLEAN``, ``CARRIER`` — a message whose ``.payload`` is tainted,
   ``CARRIER_LIST`` — a collection of carriers, ``TAINTED``), and
   propagate through assignments, tuple unpacking, containers,
   comprehensions, and returns;
3. cleanses names at verification guards: registered sanitizer calls,
   ``isinstance`` checks, equality pins against trusted values, and
   calls resolved (bounded depth) to *validating* helpers;
4. follows taint through direct intra-package calls (``self.m(...)``
   also up and down the class hierarchy) using per-parameter function
   summaries — "does parameter ``i`` flow to a sink, and does
   it flow to the return value (per tuple slot)?" — bounded at
   :data:`MAX_SUMMARY_DEPTH` with a conservative fallback, so deep or
   recursive call chains degrade to "tainted" rather than silence.

Deliberate scope limits (documented in ``docs/LINTING.md``): mutations
through method calls (``state.buf.append(x)``) are not state-write
sinks, routing metadata (``message.sender`` / ``.tag`` / ``.mtype``)
is trusted channel information, and a sanitizer result stored in a
variable and tested later (``ok = verify(...); if ok:``) is not
recognized as a guard — verify inline or restructure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.astutil import FUNC_NODES, terminal_name
from repro.lint.engine import ModuleInfo, Project
from repro.lint.findings import Finding
from repro.lint.flow.registry import (
    CLEAN_RESULT_CALLS,
    COMPLETION_SINKS,
    CONDITION_CALLS,
    DECLARED_OID_KEYWORD,
    DECODE_SINKS,
    DISPATCH_SINKS,
    INBOX_QUERY_CALLS,
    SANITIZERISH_RE,
    SEND_SINKS,
    WAIT_STATE_CALL,
    TaintRegistry,
)

RULE_UNVERIFIED_SINK = "taint-unverified-sink"
RULE_UNKNOWN_SANITIZER = "taint-unknown-sanitizer"
RULE_DEAD_SANITIZER = "taint-dead-sanitizer"

#: Taint states.  ``CARRIER`` is a message object: reading ``.payload``
#: off it yields ``TAINTED``; its other attributes (sender, tag, depth)
#: are channel metadata and stay clean.
CLEAN = 0
CARRIER = 1
CARRIER_LIST = 2
TAINTED = 3

#: Summary recursion bound: beyond this depth unresolved flows degrade
#: to the conservative "returns tainted, no sink attribution" summary.
MAX_SUMMARY_DEPTH = 3


def _element_taint(taint: int) -> int:
    """Taint of one element drawn from a value of taint ``taint``."""
    if taint == CARRIER_LIST:
        return CARRIER
    if taint == TAINTED:
        return TAINTED
    return CLEAN


def _param_names(func: ast.AST) -> List[str]:
    args = func.args
    return [a.arg for a in args.posonlyargs + args.args]


def _message_seeds(func: ast.AST) -> Dict[str, int]:
    """A handler's or ``where=`` predicate's message parameter (the
    first after ``self``), seeded as a Byzantine carrier."""
    params = _param_names(func)
    params = params[1:] if params[:1] == ["self"] else params
    return {params[0]: CARRIER} if params else {}


def _where_names(tree: ast.AST) -> Set[str]:
    """Names passed as ``where=`` predicates in ``tree``."""
    return {kw.value.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) for kw in node.keywords
            if kw.arg == "where" and isinstance(kw.value, ast.Name)}


@dataclass
class FuncSummary:
    """Effect of calling a function with one tainted parameter.

    ``returns`` is either a bool (scalar: the return value is tainted)
    or a tuple of bools (per tuple slot, when every value-returning
    ``return`` statement is a tuple literal of one common length).
    ``sinks`` lists ``(line, description)`` pairs for sinks the
    parameter reaches inside the callee without sanitization.
    """

    returns: Union[bool, Tuple[bool, ...]] = False
    sinks: List[Tuple[int, str]] = field(default_factory=list)


CONSERVATIVE_SUMMARY = FuncSummary(returns=True, sinks=[])


def _on_names(tree: ast.AST) -> Set[str]:
    """Names of the functions ``on(mtype, f)`` calls register in
    ``tree``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and terminal_name(node.func) == "on"
                and len(node.args) == 2):
            name = terminal_name(node.args[1])
            if name is not None:
                names.add(name)
    return names


class FlowContext:
    """Cross-module state shared by all per-function analyses; names
    and calls resolve through the project index (:class:`Project`)."""

    def __init__(self, project: Project, registry: TaintRegistry,
                 in_scope=None):
        self.project = project
        self.registry = registry
        #: dotted-name predicate: modules outside the taint scope still
        #: propagate return taint through summaries, but sinks inside
        #: them are not reported (e.g. ``repro.common`` memo caches are
        #: not protocol state).
        self.in_scope = in_scope if in_scope is not None \
            else (lambda dotted: True)
        self._handlers = {m.dotted: _on_names(m.tree) for m in project.modules}
        for key, (_, node, _) in project.classes.items():
            for name in _on_names(node):
                for base in project.lineage(key, up=True):
                    if project.methods(base, name):
                        self._handlers[base[0]].add(name)
        self._summaries: Dict[Tuple[int, int], FuncSummary] = {}
        self._in_flight: Set[Tuple[int, int]] = set()
        self._validators: Dict[int, bool] = {}

    def handler_names(self, module: ModuleInfo) -> Set[str]:
        """Functions registered as message handlers via ``on(mtype, f)``
        in this module, or in a subclass inheriting ``f`` from a class
        of this module."""
        return self._handlers.get(module.dotted, set())

    # -- summaries ----------------------------------------------------------

    def summary(self, module: ModuleInfo, func: ast.AST,
                param_index: int) -> FuncSummary:
        """Effect of taint entering ``func`` at ``param_index``.

        Cycles and chains deeper than :data:`MAX_SUMMARY_DEPTH` return
        the conservative summary (taint propagates, no sink claims), so
        the engine over-approximates rather than misses flows — and
        never fabricates a sink finding it cannot attribute.
        """
        key = (id(func), param_index)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if key in self._in_flight or len(self._in_flight) >= \
                MAX_SUMMARY_DEPTH:
            return CONSERVATIVE_SUMMARY
        params = _param_names(func)
        if param_index >= len(params):
            return CONSERVATIVE_SUMMARY
        self._in_flight.add(key)
        try:
            seeds = {params[param_index]: TAINTED}
            analysis = FunctionAnalysis(self, module, func, seeds,
                                        summary_mode=True)
            analysis.run()
            sinks = analysis.sink_hits if self.in_scope(module.dotted) \
                else []
            summary = FuncSummary(returns=analysis.return_taint(),
                                  sinks=sinks)
        finally:
            self._in_flight.discard(key)
        self._summaries[key] = summary
        return summary

    # -- validator classification ------------------------------------------

    def is_validator(self, module: ModuleInfo, func: ast.AST,
                     depth: int = 0) -> bool:
        """Whether a predicate *validates* the values it admits.

        A validator contains, on data derived from its parameters, at
        least one of: an ``isinstance`` check, a registered sanitizer
        call, or an equality pin against a value the caller controls.
        Bare ``len(...)`` shape checks do not qualify — tuple arity
        says nothing about field contents.  Calls to other functions
        are followed (bounded) so helpers like ``_valid_ts_reply``
        classify through one level of indirection.
        """
        cached = self._validators.get(id(func))
        if cached is not None:
            return cached
        if depth > 2:
            return False
        self._validators[id(func)] = False  # cycle guard
        derived = self._param_derived_names(func)
        result = self._body_validates(module, func, derived, depth)
        self._validators[id(func)] = result
        return result

    @staticmethod
    def _param_derived_names(func: ast.AST) -> Set[str]:
        names = set(_param_names(func))
        body = func.body if isinstance(func.body, list) else [func.body]
        for node in body:
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(leaf, ast.Name) and leaf.id in names
                        for target in [stmt.value]
                        for leaf in ast.walk(target)):
                    for target in stmt.targets:
                        for leaf in ast.walk(target):
                            if isinstance(leaf, ast.Name):
                                names.add(leaf.id)
        return names

    def _body_validates(self, module: ModuleInfo, func: ast.AST,
                        derived: Set[str], depth: int) -> bool:
        def touches_param(node: ast.AST) -> bool:
            return any(isinstance(leaf, ast.Name) and leaf.id in derived
                       for leaf in ast.walk(node))

        body = func.body if isinstance(func.body, list) else [func.body]
        for node in body:
            for expr in ast.walk(node):
                if isinstance(expr, ast.Call):
                    name = terminal_name(expr.func)
                    if name == "isinstance" and expr.args and \
                            touches_param(expr.args[0]):
                        return True
                    if name is not None and name != "len" and \
                            self.registry.is_sanitizer(name) and \
                            touches_param(expr):
                        return True
                    if name is not None and touches_param(expr):
                        for other, resolved in self.project.resolve(
                                module, name):
                            if self.is_validator(other, resolved,
                                                 depth + 1):
                                return True
                elif isinstance(expr, ast.Compare):
                    if any(isinstance(op, (ast.Eq, ast.NotEq))
                           for op in expr.ops):
                        sides = [expr.left] + list(expr.comparators)
                        for side in sides:
                            if touches_param(side) and not (
                                    isinstance(side, ast.Call)
                                    and terminal_name(side.func) == "len"):
                                return True
        return False


class FunctionAnalysis:
    """Statement-ordered taint interpretation of one function body."""

    def __init__(self, ctx: FlowContext, module: ModuleInfo,
                 func: ast.AST, seeds: Dict[str, int],
                 summary_mode: bool = False,
                 outer_env: Optional[Dict[str, int]] = None,
                 outer_roots: Optional[Set[str]] = None):
        self.ctx = ctx
        self.module = module
        self.func = func
        self.summary_mode = summary_mode
        self.env: Dict[str, int] = dict(outer_env or {})
        #: names aliasing protocol instance state (writes are sinks)
        self.state_roots: Set[str] = set(outer_roots or ()) | {"self"}
        for param in _param_names(func):
            self.env[param] = seeds.get(param, CLEAN)
            if summary_mode:
                # In summary mode, parameters alias caller state: a
                # write into them is a state write at the call site.
                self.state_roots.add(param)
        self.findings: List[Finding] = []
        self.sink_hits: List[Tuple[int, str]] = []
        self._returns: List[Tuple[ast.expr, int]] = []
        #: nested defs referenced as ``where=`` predicates
        self._predicate_names: Set[str] = set()
        #: per-tuple-slot taint for names bound to multi-value returns
        #: (``parsed = self._gossip(m)`` then ``a, b, c = parsed``), so
        #: slot precision survives one level of variable indirection.
        self.slots: Dict[str, Tuple[bool, ...]] = {}

    # -- entry points -------------------------------------------------------

    def run(self) -> None:
        """Interpret the function body, populating findings/sink hits."""
        body = self.func.body
        if isinstance(body, list):
            self._predicate_names = _where_names(self.func)
            self._process_body(body)
        else:  # Lambda
            self._eval(body)

    def return_taint(self) -> Union[bool, Tuple[bool, ...]]:
        """Aggregate return taint (per tuple slot when possible)."""
        slot_lists: List[List[bool]] = []
        scalar = False
        for expr, taint in self._returns:
            if isinstance(expr, ast.Tuple):
                slots = [self._eval_readonly(e) > CLEAN
                         for e in expr.elts]
                slot_lists.append(slots)
            elif expr is not None:
                scalar = scalar or taint > CLEAN
        if slot_lists and not scalar and len(
                {len(slots) for slots in slot_lists}) == 1:
            width = len(slot_lists[0])
            return tuple(any(slots[i] for slots in slot_lists)
                         for i in range(width))
        for slots in slot_lists:
            scalar = scalar or any(slots)
        return scalar

    def _finding(self, line: int, message: str,
                 rule: str = RULE_UNVERIFIED_SINK,
                 severity: str = "error") -> None:
        if self.summary_mode:
            if rule == RULE_UNVERIFIED_SINK:
                self.sink_hits.append((line, message))
            return
        self.findings.append(Finding(
            rule=rule, path=self.module.display_path, line=line,
            message=message, severity=severity))

    # -- statements ---------------------------------------------------------

    def _process_body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._process_stmt(stmt)

    def _process_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, taint, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taint = self._eval(stmt.value)
                self._assign(stmt.target, taint, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = max(taint,
                             self.env.get(stmt.target.id, CLEAN))
                self.env[stmt.target.id] = merged
            else:
                self._assign(stmt.target, taint, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.Expr):
            self._process_expr_stmt(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self._eval(stmt.value)
                self._returns.append((stmt.value, taint))
        elif isinstance(stmt, (ast.If, ast.While)):
            self._guard(stmt.test)
            self._process_body(stmt.body)
            self._process_body(stmt.orelse)
        elif isinstance(stmt, ast.Assert):
            self._guard(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._eval(stmt.iter)
            self._assign(stmt.target, _element_taint(taint), None,
                         stmt.lineno)
            self._process_body(stmt.body)
            self._process_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taint,
                                 item.context_expr, stmt.lineno)
            self._process_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._process_body(stmt.body)
            for handler in stmt.handlers:
                self._process_body(handler.body)
            self._process_body(stmt.orelse)
            self._process_body(stmt.finalbody)
        elif isinstance(stmt, FUNC_NODES):
            self._process_nested(stmt)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, (ast.Delete, ast.Global, ast.Nonlocal,
                               ast.Pass, ast.Break, ast.Continue,
                               ast.Import, ast.ImportFrom,
                               ast.ClassDef)):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)

    def _process_expr_stmt(self, stmt: ast.Expr) -> None:
        value = stmt.value
        if isinstance(value, ast.Call):
            name = terminal_name(value.func)
            sanitizer = (self.ctx.registry.sanitizer(name)
                         if name is not None else None)
            if sanitizer is not None:
                # The verification verdict is computed and discarded:
                # nothing downstream is actually protected by it.
                self._finding(
                    stmt.lineno,
                    f"result of sanitizer '{name}()' is discarded — the "
                    "verification gates nothing; use it in a guard or "
                    "remove the call",
                    rule=RULE_DEAD_SANITIZER, severity="warning")
                # Evaluate arguments for sink checks, but do NOT
                # cleanse: a dead check sanitizes nothing.
                for arg in value.args:
                    self._eval(arg)
                return
        self._eval(value)

    def _process_nested(self, func: ast.AST) -> None:
        """Closures run with the enclosing bindings; a nested def used
        as a ``where=`` predicate gets a Byzantine message parameter."""
        seeded = func.name in self._predicate_names or \
            func.name in self.ctx.handler_names(self.module)
        nested = FunctionAnalysis(
            self.ctx, self.module, func,
            _message_seeds(func) if seeded else {},
            summary_mode=self.summary_mode,
            outer_env=self.env, outer_roots=self.state_roots)
        nested.run()
        self.findings.extend(nested.findings)
        self.sink_hits.extend(nested.sink_hits)
        # Yielded-check closures (``yield check``) feed their returns to
        # the enclosing thread; surface their taint through the def name.
        self.env[func.name] = CLEAN

    # -- assignment and state-write sinks -----------------------------------

    def _assign(self, target: ast.expr, taint, value: Optional[ast.expr],
                lineno: int) -> None:
        if isinstance(target, ast.Name):
            self.slots.pop(target.id, None)
            if isinstance(taint, tuple):  # per-slot summary result
                self.slots[target.id] = taint
                taint = TAINTED if any(taint) else CLEAN
            self.env[target.id] = taint
            if value is not None and self._is_state_rooted(value):
                self.state_roots.add(target.id)
            return
        if isinstance(target, ast.Starred):
            self._assign(target.value, taint, None, lineno)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elements = target.elts
            if isinstance(value, ast.Tuple) and \
                    len(value.elts) == len(elements):
                for element, sub in zip(elements, value.elts):
                    self._assign(element, self._eval_readonly(sub), sub,
                                 lineno)
                return
            if not isinstance(taint, tuple) and \
                    isinstance(value, ast.Name):
                stored = self.slots.get(value.id)
                if stored is not None and len(stored) == len(elements):
                    taint = stored
            if isinstance(taint, tuple) and len(taint) == len(elements):
                for element, slot in zip(elements, taint):
                    self._assign(element, TAINTED if slot else CLEAN,
                                 None, lineno)
                return
            if isinstance(taint, tuple):
                taint = TAINTED if any(taint) else CLEAN
            for element in elements:
                self._assign(element, _element_taint(taint) if
                             taint in (CARRIER_LIST,) else
                             (TAINTED if taint in (TAINTED, CARRIER)
                              else CLEAN), None, lineno)
            return
        # Attribute / Subscript target: a write into protocol state.
        if isinstance(taint, tuple):
            taint = TAINTED if any(taint) else CLEAN
        root = self._root_name(target)
        if root is not None and root in self.state_roots and \
                taint in (TAINTED, CARRIER):
            self._finding(
                lineno,
                "byzantine payload data is written into protocol state "
                f"('{ast.unparse(target)}') without sanitization — "
                "verify or type-check it first")

    @staticmethod
    def _root_name(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _is_state_rooted(self, node: ast.AST) -> bool:
        """Whether an expression aliases protocol instance state: an
        attribute chain or accessor call rooted at ``self`` (or at a
        name already known to be state)."""
        if isinstance(node, ast.Call):
            return self._is_state_rooted(node.func)
        root = self._root_name(node)
        return root is not None and root in self.state_roots

    # -- guards and cleansing ----------------------------------------------

    def _guard(self, test: ast.expr) -> None:
        if isinstance(test, ast.BoolOp):
            for value in test.values:
                self._guard(value)
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._guard(test.operand)
            return
        if isinstance(test, ast.Call):
            self._guard_call(test)
            return
        if isinstance(test, ast.Compare):
            self._eval(test.left)
            for comparator in test.comparators:
                self._eval(comparator)
            if any(isinstance(op, (ast.Eq, ast.NotEq, ast.In))
                   for op in test.ops):
                # Equality pins a value against something the caller
                # controls (an oid, a round number): cleanse names.
                sides = [test.left] + list(test.comparators)
                tainted_sides = [s for s in sides if isinstance(s, ast.Name)
                                 and self.env.get(s.id, CLEAN) == TAINTED]
                clean_sides = [s for s in sides
                               if self._eval_readonly(s) == CLEAN]
                if tainted_sides and clean_sides:
                    for side in tainted_sides:
                        self.env[side.id] = CLEAN
            return
        self._eval(test)

    def _guard_call(self, call: ast.Call) -> None:
        name = terminal_name(call.func)
        arg_taints = [self._eval(arg) for arg in call.args]
        for kw in call.keywords:
            self._eval(kw.value)
        if name is None:
            return
        if name == "isinstance" and call.args:
            self._cleanse_expr(call.args[0])
            return
        sanitizer = self.ctx.registry.sanitizer(name)
        if sanitizer is not None:
            positions = sanitizer.cleanses
            for index, arg in enumerate(call.args):
                if positions is None or index in positions:
                    self._cleanse_expr(arg)
            if sanitizer.receiver and isinstance(call.func, ast.Attribute):
                self._cleanse_expr(call.func.value)
            return
        has_taint = any(t > CLEAN for t in arg_taints)
        if not has_taint:
            return
        resolved = self.ctx.project.callees(self.module, self.func, call)
        if any(self.ctx.is_validator(mod, fn) for mod, fn in resolved):
            for arg in call.args:
                self._cleanse_expr(arg)
            return
        if not resolved and SANITIZERISH_RE.search(name):
            self._finding(
                call.lineno,
                f"'{name}()' guards byzantine data but is not a "
                "registered sanitizer — register it in "
                "repro.lint.flow.registry (with the argument positions "
                "it cleanses) or rename it",
                rule=RULE_UNKNOWN_SANITIZER, severity="warning")
            for arg in call.args:
                self._cleanse_expr(arg)

    def _cleanse_expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Name):
            self.env[node.id] = CLEAN

    # -- expressions --------------------------------------------------------

    def _eval_readonly(self, node: ast.expr) -> int:
        """Taint of an already-processed expression (no re-checking of
        sinks, so repeated evaluation cannot duplicate findings)."""
        return self._eval(node, check_sinks=False)

    def _eval(self, node: ast.expr, check_sinks: bool = True) -> int:
        if node is None:
            return CLEAN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, CLEAN)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value, check_sinks)
            if base == CARRIER:
                return TAINTED if node.attr == "payload" else CLEAN
            if base == TAINTED:
                return TAINTED
            return CLEAN
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, check_sinks)
            self._eval(node.slice, check_sinks)
            return _element_taint(base) if base == CARRIER_LIST else \
                (TAINTED if base == TAINTED else CLEAN)
        if isinstance(node, ast.Call):
            return self._eval_call(node, check_sinks)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            taints = [self._eval(e, check_sinks) for e in node.elts]
            if any(t in (TAINTED, CARRIER, CARRIER_LIST)
                   for t in taints):
                if all(t in (CARRIER, CLEAN) for t in taints) and \
                        any(t == CARRIER for t in taints):
                    return CARRIER_LIST
                return TAINTED
            return CLEAN
        if isinstance(node, ast.Dict):
            taints = [self._eval(v, check_sinks)
                      for v in list(node.keys) + list(node.values)
                      if v is not None]
            return TAINTED if any(t > CLEAN for t in taints) else CLEAN
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, check_sinks)
            right = self._eval(node.right, check_sinks)
            return TAINTED if TAINTED in (left, right) else CLEAN
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value, check_sinks)
            return CLEAN
        if isinstance(node, ast.Compare):
            self._eval(node.left, check_sinks)
            for comparator in node.comparators:
                self._eval(comparator, check_sinks)
            return CLEAN
        if isinstance(node, ast.UnaryOp):
            taint = self._eval(node.operand, check_sinks)
            return CLEAN if isinstance(node.op, ast.Not) else taint
        if isinstance(node, ast.IfExp):
            self._eval(node.test, check_sinks)
            return max(self._eval(node.body, check_sinks),
                       self._eval(node.orelse, check_sinks))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._eval_comprehension(node, check_sinks)
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            return self._eval_yield(node, check_sinks)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, check_sinks)
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, check_sinks)
        if isinstance(node, ast.JoinedStr):
            taints = [self._eval(v, check_sinks) for v in node.values]
            return TAINTED if any(t > CLEAN for t in taints) else CLEAN
        if isinstance(node, ast.Lambda):
            return CLEAN
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value, check_sinks)
            self._assign(node.target, taint, node.value, node.lineno)
            return taint
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self._eval(part, check_sinks)
            return CLEAN
        return CLEAN

    def _eval_comprehension(self, node: ast.expr,
                            check_sinks: bool) -> int:
        saved = dict(self.env)
        try:
            for generator in node.generators:
                iter_taint = self._eval(generator.iter, check_sinks)
                self._assign(generator.target, _element_taint(iter_taint),
                             None, node.lineno)
                for condition in generator.ifs:
                    self._guard(condition)
            if isinstance(node, ast.DictComp):
                taint = max(self._eval(node.key, check_sinks),
                            self._eval(node.value, check_sinks))
            else:
                taint = self._eval(node.elt, check_sinks)
            if taint == CARRIER:
                return CARRIER_LIST
            return TAINTED if taint > CLEAN else CLEAN
        finally:
            self.env = saved

    def _eval_yield(self, node: ast.expr, check_sinks: bool) -> int:
        """``yield <condition>`` hands control to the scheduler and
        resumes with the condition's result: a collection of messages
        from other parties, sanitized only when the ``where=``
        predicate validates payloads.  Yields of locally-built check
        closures — bare, or wrapped in ``WaitState(check, keys...)`` to
        declare the buckets they read — resume with whatever the
        closure returned: those closures are analyzed inline, so their
        own sinks are covered, and their results are treated as clean
        here."""
        inner = getattr(node, "value", None)
        if inner is None:
            return CLEAN
        if isinstance(inner, ast.Call):
            name = terminal_name(inner.func)
            if name in CONDITION_CALLS:
                self._eval_call(inner, check_sinks)
                return CLEAN if self._where_validates(inner) \
                    else CARRIER_LIST
            if name == WAIT_STATE_CALL and inner.args:
                inner = inner.args[0]
        return self._eval(inner, check_sinks)

    def _where_validates(self, call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == DECLARED_OID_KEYWORD and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is None):
                return True  # the index pins payload[0] to the oid
        for kw in call.keywords:
            if kw.arg != "where":
                continue
            predicate = kw.value
            if isinstance(predicate, ast.Lambda):
                return self.ctx.is_validator(self.module, predicate)
            name = terminal_name(predicate)
            if name is None:
                return False
            local = self._local_def(name)
            if local is not None:
                return self.ctx.is_validator(self.module, local)
            resolved = self.ctx.project.resolve(self.module, name)
            return any(self.ctx.is_validator(mod, fn)
                       for mod, fn in resolved)
        return False

    def _local_def(self, name: str) -> Optional[ast.AST]:
        for stmt in ast.walk(self.func):
            if isinstance(stmt, FUNC_NODES) and stmt.name == name:
                return stmt
        return None

    # -- calls and call-site sinks ------------------------------------------

    def _eval_call(self, call: ast.Call, check_sinks: bool = True) -> int:
        name = terminal_name(call.func)
        receiver_taint = CLEAN
        if isinstance(call.func, ast.Attribute):
            receiver_taint = self._eval(call.func.value, check_sinks)
        arg_taints = [self._eval(arg, check_sinks) for arg in call.args]
        kw_taints = {kw.arg: self._eval(kw.value, check_sinks)
                     for kw in call.keywords}

        if check_sinks and name is not None:
            self._check_sinks(call, name, arg_taints, kw_taints)

        if name is None:
            return TAINTED if any(t > CLEAN for t in arg_taints) else CLEAN
        if name in CLEAN_RESULT_CALLS:
            return CLEAN
        if name in self.ctx.registry.source_calls:
            return TAINTED
        if self.ctx.registry.is_sanitizer(name):
            return CLEAN  # a boolean verdict
        if name in INBOX_QUERY_CALLS and \
                isinstance(call.func, ast.Attribute) and \
                terminal_name(call.func.value) == "inbox":
            return CLEAN if self._where_validates(call) else CARRIER_LIST
        if name in CONDITION_CALLS:
            return CLEAN  # the condition object; taint appears at yield

        any_taint = any(t > CLEAN for t in arg_taints) or \
            any(t > CLEAN for t in kw_taints.values())

        resolved = self.ctx.project.callees(self.module, self.func, call)
        if resolved and (any_taint or receiver_taint == CLEAN):
            return self._apply_summaries(call, name, resolved, arg_taints,
                                         kw_taints, check_sinks)

        if receiver_taint == TAINTED:
            return TAINTED
        if receiver_taint == CARRIER_LIST:
            return CARRIER_LIST
        return TAINTED if any_taint else CLEAN

    def _apply_summaries(self, call: ast.Call, name: str,
                         resolved, arg_taints, kw_taints,
                         check_sinks: bool) -> Union[int, tuple]:
        """Follow taint through a resolved intra-package call."""
        returns: Union[bool, Tuple[bool, ...]] = False
        for target_module, func in resolved:
            params = _param_names(func)
            offset = 1 if params[:1] == ["self"] and \
                isinstance(call.func, ast.Attribute) else 0
            tainted_params: List[int] = []
            for index, taint in enumerate(arg_taints):
                if taint > CLEAN:
                    tainted_params.append(index + offset)
            for kw_name, taint in kw_taints.items():
                if taint > CLEAN and kw_name in params:
                    tainted_params.append(params.index(kw_name))
            for param_index in tainted_params:
                summary = self.ctx.summary(target_module, func,
                                           param_index)
                if check_sinks:
                    for sink_line, description in summary.sinks:
                        self._finding(
                            call.lineno,
                            f"byzantine data flows into '{name}()' "
                            f"({target_module.dotted}:{sink_line}), "
                            f"where it reaches a sink unsanitized: "
                            f"{description}")
                returns = self._merge_returns(returns, summary.returns)
        if isinstance(returns, tuple):
            return returns
        return TAINTED if returns else CLEAN

    @staticmethod
    def _merge_returns(left, right):
        if isinstance(left, tuple) and isinstance(right, tuple) and \
                len(left) == len(right):
            return tuple(a or b for a, b in zip(left, right))
        if left is False:
            return right
        if right is False:
            return left
        if isinstance(left, tuple):
            left = any(left)
        if isinstance(right, tuple):
            right = any(right)
        return left or right

    def _check_sinks(self, call: ast.Call, name: str,
                     arg_taints: List[int],
                     kw_taints: Dict[str, int]) -> None:
        payload_start = SEND_SINKS.get(name)
        if payload_start is not None and len(call.args) > payload_start:
            for index in range(payload_start, len(call.args)):
                if arg_taints[index] > CLEAN:
                    self._finding(
                        call.args[index].lineno,
                        "byzantine payload data is re-sent to other "
                        f"parties via '{name}()' without sanitization "
                        f"(argument {index})")
                    return
        if name in DECODE_SINKS:
            if any(t > CLEAN for t in arg_taints) or \
                    any(t > CLEAN for t in kw_taints.values()):
                self._finding(
                    call.lineno,
                    "unverified blocks reach the erasure decoder via "
                    f"'{name}()' — check them against the commitment "
                    "(cross-checksum / Merkle proof) first")
            return
        if name in COMPLETION_SINKS or name in DISPATCH_SINKS:
            if any(t > CLEAN for t in arg_taints) or \
                    any(t > CLEAN for t in kw_taints.values()):
                kind = ("completes a client operation"
                        if name in COMPLETION_SINKS
                        else "is dispatched into a process")
                self._finding(
                    call.lineno,
                    f"byzantine payload data {kind} via '{name}()' "
                    "without sanitization")


def analyze_module(ctx: FlowContext,
                   module: ModuleInfo) -> Iterable[Finding]:
    """Entry analysis of every function in ``module``.

    Handlers (and ``where=`` predicates) get a Byzantine message
    parameter; everything else starts clean and only picks up taint
    from inbox queries, condition yields, and registered source calls.
    """
    seeded = ctx.handler_names(module) | _where_names(module.tree)

    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()

    def entry_functions():
        for node in module.tree.body:
            if isinstance(node, FUNC_NODES):
                yield node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNC_NODES):
                        yield item

    for func in entry_functions():
        seeds = _message_seeds(func) if func.name in seeded else {}
        analysis = FunctionAnalysis(ctx, module, func, seeds)
        analysis.run()
        for finding in analysis.findings:
            key = (finding.rule, finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    return findings
