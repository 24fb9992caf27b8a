"""Reach gate: every definition under ``src/repro`` is reached from an
entry point.

The entry points are the program's own modules, ``benchmarks/``,
``tools/``, ``examples/`` and the ``[project.scripts]`` of
``pyproject.toml``.  Tests are not entry points: a definition that only
tests use is either moved under ``tests/`` or deleted with the tests
that check nothing else.

A definition is every top-level function or class and every method of
a top-level class; dunders run implicitly and are not counted.  It is
reached when its name appears in reached code outside itself — as a
name, an attribute, an import alias, or a string that spells an
identifier or a dotted path (``getattr`` tables, the perf harness's
wrapped names, ``module:function`` scripts).  Three exceptions:

- in a package ``__init__``, an import is a re-export, not a use;
- an ``__all__`` entry is a re-export, not a use;
- a string inside ``repro.lint`` is not a use: the linter names code
  to check it, not to run it.

Reach is a fixpoint: module-level code and the entry-point trees are
reached, a definition whose name is used by reached code is reached,
and its body then counts as reached code.  So code that only
unreached code uses is unreached too.  Name matching merges every
definition that shares a name, so the gate is a lower bound on what
could go.

Imports are held to the same rule: a module-level import whose bound
name the importing module never uses (as a name, or in a string that
spells an identifier or dotted path, such as a quoted annotation or an
``__all__`` entry) is flagged, in ``src/repro``, ``tests/`` (not the
lint fixtures under ``tests/fixtures/``, which import on purpose),
``tools/`` and the top-level ``benchmarks/*.py``.  A package
``__init__``'s imports are re-exports and are not checked.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ENTRY_TREES = ("benchmarks", "tools", "examples")

#: The test oracles, kept as safety code although no entry point runs
#: them.  Each entry is ``module:qualname`` -> reason.
KEEP: Dict[str, str] = {
    "repro.analysis.invariants:make_register_invariant":
        "test oracle: the register invariant checked after every step",
    "repro.analysis.invariants:install_commit_invariant":
        "test oracle: the kv commit invariant checked after every step",
    "repro.net.simulator:Simulator.add_invariant":
        "test oracle: how the two invariants attach to a run",
    "repro.analysis.consistency:check_regularity":
        "test oracle: DESIGN.md's consistency hierarchy (regular)",
    "repro.analysis.consistency:check_safety":
        "test oracle: DESIGN.md's consistency hierarchy (safe)",
    "repro.analysis.history:HistoryRecorder.record_byzantine_write":
        "test oracle: declares a crashed writer's write to the checker",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*\Z")
_PART = re.compile(r"[A-Za-z_]\w*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign,
                                                       ast.AnnAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def _uses(nodes, strings: bool) -> Iterator[str]:
    """Every identifier the ``nodes`` subtrees name."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield from node.name.split(".")
                if node.asname:
                    yield node.asname
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and _DOTTED.match(node.value)):
                yield from _PART.findall(node.value)


class _Definition:
    __slots__ = ("key", "name", "line", "body", "strings")

    def __init__(self, key, name, line, body, strings):
        self.key, self.name, self.line = key, name, line
        self.body, self.strings = body, strings


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _scan_module(path: Path, definitions: List[_Definition],
                 roots: List[Tuple[list, bool]]) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    module = _module_name(path)
    strings = not (module == "repro.lint" or module.startswith("repro.lint."))
    is_init = path.name == "__init__.py"
    top: list = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definitions.append(_Definition(
                f"{module}:{node.name}", node.name, node.lineno, [node],
                strings))
        elif isinstance(node, ast.ClassDef):
            own: list = list(node.bases) + list(node.keywords) \
                + list(node.decorator_list)
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    definitions.append(_Definition(
                        f"{module}:{node.name}.{item.name}", item.name,
                        item.lineno, [item], strings))
                else:
                    own.append(item)
            definitions.append(_Definition(
                f"{module}:{node.name}", node.name, node.lineno, own,
                strings))
        elif _is_all(node) or (is_init and isinstance(
                node, (ast.Import, ast.ImportFrom))):
            continue
        else:
            top.append(node)
    roots.append((top, strings))


def _script_targets() -> List[str]:
    """The ``module:function`` values of ``[project.scripts]``."""
    targets, inside = [], False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            targets.append(line.split("=", 1)[1].strip().strip("\"'"))
    return targets


def reach(keep=KEEP) -> Tuple[List[_Definition], Dict[str, _Definition]]:
    """``(unreached definitions, definitions on the keep list)``."""
    definitions: List[_Definition] = []
    roots: List[Tuple[list, bool]] = []
    for path in sorted(SRC.rglob("*.py")):
        _scan_module(path, definitions, roots)
    used: Set[str] = set()
    for nodes, strings in roots:
        used.update(_uses(nodes, strings))
    for tree in ENTRY_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            used.update(_uses([ast.parse(path.read_text())], True))
    for target in _script_targets():
        used.update(_PART.findall(target))
    kept = {d.key: d for d in definitions if d.key in keep}
    for definition in kept.values():
        used.update(_uses(definition.body, definition.strings))
    pending = [d for d in definitions if d.key not in keep]
    while True:
        reached = [d for d in pending if d.name in used]
        if not reached:
            break
        pending = [d for d in pending if d.name not in used]
        for definition in reached:
            used.update(_uses(definition.body, definition.strings))
    return pending, kept


def _import_scope() -> Iterator[Path]:
    """The modules whose imports are checked."""
    for tree in ("src/repro", "tests", "tools"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            if (ROOT / "tests" / "fixtures") not in path.parents \
                    and path.name != "__init__.py":
                yield path
    yield from sorted((ROOT / "benchmarks").glob("*.py"))


def unused_imports(path: Path) -> List[str]:
    """``name (line N)`` for each module-level import in ``path`` whose
    bound name the module never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.split(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno)
                      for alias in node.names if alias.name != "*"]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.match(node.value)):
            used.update(_PART.findall(node.value))
    return [f"{name} (line {line})" for name, line in bound
            if name not in used]


def test_every_definition_is_reached_from_an_entry_point():
    unreached, _ = reach()
    listing = "\n".join(
        f"  {d.key} (line {d.line})" for d in unreached)
    assert not unreached, (
        f"{len(unreached)} definition(s) under src/repro that no entry "
        f"point reaches:\n{listing}\nMove a helper only tests need "
        f"under tests/; delete the rest with the tests that check "
        f"only them.")


def test_the_keep_list_names_only_otherwise_unreached_definitions():
    """Each kept oracle exists, and nothing but the keep list keeps it:
    an entry that an entry point reaches, or that names nothing, is
    stale."""
    _, kept = reach()
    assert sorted(kept) == sorted(KEEP)
    unreached, _ = reach(keep={})
    assert set(KEEP) <= {d.key for d in unreached}


def test_every_module_level_import_is_used():
    unused = [f"  {path.relative_to(ROOT)}: {name}"
              for path in _import_scope() for name in unused_imports(path)]
    assert not unused, (
        f"{len(unused)} import(s) that the importing module never uses:\n"
        + "\n".join(unused))
