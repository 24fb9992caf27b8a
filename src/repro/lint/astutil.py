"""Shared AST helpers for :mod:`repro.lint` rule packs.

Everything here operates on :mod:`ast` trees only — scanned code is
never imported, so violation fixtures are safe to lint and the tier-1
gate has no side effects.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last segment of a Name/Attribute chain (``c`` in ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def str_constant(node: ast.AST) -> Optional[str]:
    """The value of a string literal, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def int_constant(node: ast.AST) -> Optional[int]:
    """The value of a non-bool integer literal, else ``None``."""
    if (isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)):
        return node.value
    return None


def iter_functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Every function/async-function definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, FUNC_NODES):
            yield node


def module_string_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments.

    This is how protocol modules declare message types
    (``MSG_ECHO = "avid-echo"``); rules use the table to resolve
    ``Name``/``Attribute`` references back to tag strings.
    """
    table: Dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = str_constant(stmt.value)
            if isinstance(target, ast.Name) and value is not None:
                table[target.id] = value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = str_constant(stmt.value)
            if isinstance(stmt.target, ast.Name) and value is not None:
                table[stmt.target.id] = value
    return table


def module_imports(tree: ast.Module) -> List[Tuple[str, str, str]]:
    """``from X import Y as Z`` bindings as ``(local, source_module,
    source_name)`` triples.  Star imports are ignored."""
    out: List[Tuple[str, str, str]] = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out.append((local, stmt.module, alias.name))
    return out


def single_assignment_table(func: ast.AST) -> Dict[str, ast.expr]:
    """Locals assigned exactly once in ``func`` (including nested
    defs), mapped to their value expression.

    Variables with multiple assignments, augmented assignments, or
    loop-target bindings resolve to nothing — this deliberately keeps
    counters (``missing = 0; missing += 1``) unresolvable so quorum
    rules treat them as count sides, not thresholds.
    """
    counts: Dict[str, int] = {}
    values: Dict[str, ast.expr] = {}

    def bump(name: str, value: Optional[ast.expr]) -> None:
        counts[name] = counts.get(name, 0) + 1
        if value is not None:
            values[name] = value

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bump(target.id, node.value)
                else:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            bump(leaf.id, None)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bump(node.target.id, node.value)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                bump(node.target.id, None)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bump(leaf.id, None)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            for leaf in ast.walk(node.optional_vars):
                if isinstance(leaf, ast.Name):
                    bump(leaf.id, None)
        elif isinstance(node, ast.comprehension):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bump(leaf.id, None)

    return {name: expr for name, expr in values.items()
            if counts.get(name) == 1}


def locally_bound_names(func: ast.AST) -> Dict[str, bool]:
    """Every name bound inside ``func`` (params, assignments, loop
    targets, comprehension targets), mapped to ``True``.  Used to stop
    symbol resolution from treating a shadowing local (``for k in
    d:``) as a protocol symbol."""
    bound: Dict[str, bool] = {}
    for node in ast.walk(func):
        if isinstance(node, FUNC_NODES):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                bound[arg.arg] = True
            if args.vararg:
                bound[args.vararg.arg] = True
            if args.kwarg:
                bound[args.kwarg.arg] = True
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        bound[leaf.id] = True
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bound[leaf.id] = True
        elif isinstance(node, ast.comprehension):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bound[leaf.id] = True
        elif isinstance(node, ast.withitem) and node.optional_vars:
            for leaf in ast.walk(node.optional_vars):
                if isinstance(leaf, ast.Name):
                    bound[leaf.id] = True
    return bound


def contains_name(node: ast.AST, identifier: str) -> bool:
    """Whether any Name or Attribute leaf in ``node`` is ``identifier``."""
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name) and leaf.id == identifier:
            return True
        if isinstance(leaf, ast.Attribute) and leaf.attr == identifier:
            return True
    return False
