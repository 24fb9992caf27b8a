"""Quorum-arithmetic rule pack.

Threshold expressions are extracted from wait sites —
``condition_quorum(tag, mtype, count)`` and ``condition_agreeing(tag,
mtype, count, key)`` calls and comparisons whose threshold side is
built from the protocol symbols ``n``, ``t``, ``k`` (plus the derived
``quorum = n - t``, ``ready_amplify = t + 1``, ``deliver_quorum =
2t + 1``) — and checked symbolically over every valid configuration
with ``n > 3t`` and ``1 <= k <= n - t`` (paper, Section 2):

* ``quorum-literal`` — a bare integer literal where a threshold
  expression is expected; literals silently break for other ``(n, t)``.
* ``quorum-unreachable`` — a wait threshold exceeding ``n - t``: the
  ``t`` Byzantine servers can refuse to answer, so the wait can block
  forever in some valid configuration.
* ``quorum-intersection`` — a quorum-sized wait whose two instances
  may intersect in fewer than ``t + 1`` parties in some valid
  configuration, so two quorums need not share an honest party and
  reads can miss the latest timestamp (the classic off-by-one,
  e.g. ``n - t - 1``).

A comparison is only treated as a wait when exactly one side resolves
symbolically — ``config.n <= 4 * config.t`` resilience preconditions
(both sides symbolic) and plain index arithmetic (no symbols) are
skipped.  Locals assigned exactly once propagate
(``quorum = self.config.quorum`` then ``len(acks) >= quorum``), while
counters with multiple assignments stay opaque.
"""

from __future__ import annotations

import ast
import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import (
    FUNC_NODES,
    int_constant,
    iter_functions,
    locally_bound_names,
    single_assignment_table,
    terminal_name,
)
from repro.lint.engine import ModuleInfo, Project
from repro.lint.findings import Finding
from repro.lint.flow.registry import CONDITION_CALLS

RULE_LITERAL = "quorum-literal"
RULE_UNREACHABLE = "quorum-unreachable"
RULE_INTERSECTION = "quorum-intersection"

#: Symbol table: terminal attribute/name -> evaluator over (n, t, k).
_SYMBOLS: Dict[str, Callable[[int, int, int], int]] = {
    "n": lambda n, t, k: n,
    "num_servers": lambda n, t, k: n,
    "t": lambda n, t, k: t,
    "f": lambda n, t, k: t,
    "num_faulty": lambda n, t, k: t,
    "k": lambda n, t, k: k,
    "quorum": lambda n, t, k: n - t,
    "ready_amplify": lambda n, t, k: t + 1,
    "deliver_quorum": lambda n, t, k: 2 * t + 1,
}

#: Canonical thresholds that are correct by construction under n > 3t.
_CANONICAL: Tuple[Tuple[str, Callable[[int, int, int], int]], ...] = (
    ("n - t", lambda n, t, k: n - t),
    ("t + 1", lambda n, t, k: t + 1),
    ("2t + 1", lambda n, t, k: 2 * t + 1),
    ("k", lambda n, t, k: k),
    ("n", lambda n, t, k: n),
    ("1", lambda n, t, k: 1),
)


def _sample_grid() -> List[Tuple[int, int, int]]:
    """Valid ``(n, t, k)`` configurations: ``n > 3t``, ``1 <= k <= n - t``.

    ``t`` starts at 1: with no faults every positive wait is
    satisfiable and threshold mistakes are invisible, so degenerate
    ``t = 0`` systems would only produce noise verdicts.
    """
    samples: List[Tuple[int, int, int]] = []
    for t, extra in itertools.product(range(1, 5), range(1, 6)):
        n = 3 * t + extra
        quorum = n - t
        for k in {1, max(1, quorum // 2), quorum}:
            samples.append((n, t, k))
    return samples


_GRID = _sample_grid()


class _Resolved:
    """A threshold expression resolved to an evaluator over (n, t, k)."""

    __slots__ = ("evaluate", "has_symbol", "is_literal")

    def __init__(self, evaluate: Callable[[int, int, int], int],
                 has_symbol: bool, is_literal: bool = False) -> None:
        self.evaluate = evaluate
        self.has_symbol = has_symbol
        self.is_literal = is_literal


def _resolve(node: ast.expr, locals_table: Dict[str, ast.expr],
             bound: Dict[str, bool],
             depth: int = 0) -> Optional[_Resolved]:
    """Resolve an expression into a symbolic evaluator, or ``None``."""
    if depth > 8:
        return None
    value = int_constant(node)
    if value is not None:
        return _Resolved(lambda n, t, k, v=value: v,
                         has_symbol=False, is_literal=True)
    if isinstance(node, ast.Name):
        if node.id in locals_table:
            # One level of single-assignment propagation, with the
            # binding removed to cut self-referential chains.
            inner = {key: expr for key, expr in locals_table.items()
                     if key != node.id}
            resolved = _resolve(locals_table[node.id], inner, bound,
                                depth + 1)
            if resolved is not None:
                return resolved
        if node.id in bound:
            # A shadowing local (loop var, parameter) is not the
            # protocol symbol of the same name.
            return None
    name = terminal_name(node)
    if name in _SYMBOLS:
        return _Resolved(_SYMBOLS[name], has_symbol=True)
    if isinstance(node, ast.BinOp):
        left = _resolve(node.left, locals_table, bound, depth + 1)
        right = _resolve(node.right, locals_table, bound, depth + 1)
        if left is None or right is None:
            return None
        op = node.op
        if isinstance(op, ast.Add):
            combine = lambda a, b: a + b  # noqa: E731
        elif isinstance(op, ast.Sub):
            combine = lambda a, b: a - b  # noqa: E731
        elif isinstance(op, ast.Mult):
            combine = lambda a, b: a * b  # noqa: E731
        elif isinstance(op, ast.FloorDiv):
            combine = lambda a, b: a // b if b else 0  # noqa: E731
        else:
            return None
        le, re_ = left.evaluate, right.evaluate
        return _Resolved(
            lambda n, t, k: combine(le(n, t, k), re_(n, t, k)),
            has_symbol=left.has_symbol or right.has_symbol)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner_r = _resolve(node.operand, locals_table, bound, depth + 1)
        if inner_r is None:
            return None
        ie = inner_r.evaluate
        return _Resolved(lambda n, t, k: -ie(n, t, k),
                         has_symbol=inner_r.has_symbol,
                         is_literal=inner_r.is_literal)
    return None


def _is_canonical(resolved: _Resolved) -> bool:
    return any(
        all(resolved.evaluate(n, t, k) == canon(n, t, k)
            for (n, t, k) in _GRID)
        for _, canon in _CANONICAL)


def _check_threshold(resolved: _Resolved) -> Optional[Tuple[str, str]]:
    """Classify a symbolic threshold; ``None`` means it is sound."""
    if _is_canonical(resolved):
        return None
    for (n, t, k) in _GRID:
        value = resolved.evaluate(n, t, k)
        if value > n - t:
            return (
                RULE_UNREACHABLE,
                f"threshold evaluates to {value} > n - t = {n - t} at "
                f"n={n}, t={t}: the n - t honest parties alone can never "
                "satisfy this wait")
    for (n, t, k) in _GRID:
        value = resolved.evaluate(n, t, k)
        if value < 1:
            return (
                RULE_UNREACHABLE,
                f"threshold evaluates to {value} < 1 at n={n}, t={t}")
    for (n, t, k) in _GRID:
        value = resolved.evaluate(n, t, k)
        # Non-canonical thresholds must behave like quorums: two waits
        # of this size must always share at least t + 1 parties, so
        # any two satisfied waits share an honest one.  Canonical
        # sub-quorum witnesses (t + 1, k, 1) were accepted above.
        if 2 * value - n < t + 1:
            return (
                RULE_INTERSECTION,
                f"two waits of size {value} intersect in only "
                f"{max(0, 2 * value - n)} < t + 1 = {t + 1} parties at "
                f"n={n}, t={t}; quorums must intersect in at least t + 1 "
                "so any two share an honest party")
    return None


class QuorumArithmeticRule:
    """Check wait thresholds against the ``n > 3t`` resilience model."""

    pack = "quorum"
    rule_ids: Tuple[str, ...] = (
        RULE_LITERAL, RULE_UNREACHABLE, RULE_INTERSECTION)

    def run(self, project: Project) -> Iterable[Finding]:
        """Yield quorum-arithmetic findings over the scoped modules."""
        for module in project.scoped(self.pack):
            yield from self._check_module(module)

    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for func in iter_functions(module.tree):
            locals_table = single_assignment_table(func)
            bound = locally_bound_names(func)
            seen: Set[int] = set()
            for node in ast.walk(func):
                if id(node) in seen:
                    continue
                if isinstance(node, FUNC_NODES) and node is not func:
                    # Nested defs are visited as their own functions.
                    for inner in ast.walk(node):
                        seen.add(id(inner))
                    continue
                if isinstance(node, ast.Call):
                    yield from self._check_counted_wait(
                        module, node, locals_table, bound)
                elif isinstance(node, ast.Compare):
                    yield from self._check_compare(
                        module, node, locals_table, bound)

    def _check_counted_wait(
            self, module: ModuleInfo, node: ast.Call,
            locals_table: Dict[str, ast.expr],
            bound: Dict[str, bool]) -> Iterator[Finding]:
        if terminal_name(node.func) not in CONDITION_CALLS:
            return
        count: Optional[ast.expr] = None
        if len(node.args) >= 3:
            count = node.args[2]
        else:
            for kw in node.keywords:
                if kw.arg == "count":
                    count = kw.value
        if count is None:
            return
        resolved = _resolve(count, locals_table, bound)
        if resolved is None:
            return
        if resolved.is_literal and not resolved.has_symbol:
            yield self._finding(
                module, count, RULE_LITERAL,
                "bare integer literal as a quorum count; derive the "
                "threshold from SystemConfig (n, t, k)")
            return
        if not resolved.has_symbol:
            return
        verdict = _check_threshold(resolved)
        if verdict is not None:
            rule, message = verdict
            yield self._finding(module, count, rule, message)

    def _check_compare(
            self, module: ModuleInfo, node: ast.Compare,
            locals_table: Dict[str, ast.expr],
            bound: Dict[str, bool]) -> Iterator[Finding]:
        if len(node.ops) != 1 or len(node.comparators) != 1:
            return
        if not isinstance(node.ops[0], (ast.Gt, ast.GtE, ast.Lt, ast.LtE)):
            return
        left = _resolve(node.left, locals_table, bound)
        right = _resolve(node.comparators[0], locals_table, bound)
        left_sym = left is not None and left.has_symbol
        right_sym = right is not None and right.has_symbol
        # Exactly one symbolic side = a wait comparing a count against
        # a threshold.  Both symbolic = a configuration precondition
        # (e.g. n <= 4t guards); neither = ordinary arithmetic.
        if left_sym == right_sym:
            return
        threshold = left if left_sym else right
        other = right if left_sym else left
        if other is not None and other.is_literal:
            # Constant-vs-threshold comparisons are config checks, not
            # waits over message counts.
            return
        assert threshold is not None
        verdict = _check_threshold(threshold)
        if verdict is not None:
            rule, message = verdict
            node_at = node.left if left_sym else node.comparators[0]
            yield self._finding(module, node_at, rule, message)

    @staticmethod
    def _finding(module: ModuleInfo, node: ast.AST, rule: str,
                 message: str) -> Finding:
        return Finding(rule=rule, path=module.display_path,
                       line=getattr(node, "lineno", 1), message=message)
