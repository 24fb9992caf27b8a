"""Lint engine: module discovery, waiver parsing, and rule dispatch.

The engine parses every scanned file into a :class:`ModuleInfo`
(AST + source + per-line waivers), bundles them into a
:class:`Project` — the one cross-module index of functions, import
bindings, classes and constants — and runs each registered
:class:`Rule` over the project.  Rules see the whole
project, so cross-module checks (wire registry, handler completeness)
are ordinary rules rather than special cases.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Set, Tuple

from repro.lint.astutil import (
    FUNC_NODES,
    module_imports,
    module_string_constants,
    terminal_name,
)
from repro.lint.config import in_scope
from repro.lint.findings import Finding, LintReport

_WAIVER_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")


@dataclass
class ModuleInfo:
    """A parsed source module: path, dotted name, AST, and waivers."""

    path: Path
    dotted: str
    tree: ast.Module
    source_lines: List[str]
    waivers: Dict[int, Set[str]] = field(default_factory=dict)
    constants: Dict[str, str] = field(default_factory=dict)

    @property
    def display_path(self) -> str:
        return str(self.path)

    def waived_rules(self, line: int) -> Set[str]:
        """Waivers covering ``line``: the line itself or, when the
        preceding line is a standalone waiver comment, that line."""
        rules = set(self.waivers.get(line, ()))
        prev = line - 1
        if prev in self.waivers:
            text = self.source_lines[prev - 1].strip()
            if text.startswith("#"):
                rules |= self.waivers[prev]
        return rules


class Rule(Protocol):
    """A pluggable lint rule.

    ``pack`` names the rule pack for scoping (``determinism``,
    ``quorum``, ``wire``, ``handlers``); ``rule_ids`` lists every
    finding identifier the rule can emit (used by ``--list-rules`` and
    ``--rules`` filtering); ``run`` yields findings over the whole
    project and must itself respect ``in_scope(pack, dotted)``.
    """

    pack: str
    rule_ids: Tuple[str, ...]

    def run(self, project: "Project") -> Iterable[Finding]:
        """Yield findings over the whole project."""
        ...  # pragma: no cover - protocol signature


#: A class by ``(module dotted name, class name)``.
ClassKey = Tuple[str, str]


@dataclass
class Project:
    """All scanned modules plus the one cross-module index every rule
    pack reads.

    Built once per run: per module, its functions and methods by name
    (nested defs excluded) and its ``from X import Y as Z`` bindings;
    every top-level class with its bases resolved to project classes
    (an earlier class of the module, else an imported one) and the
    class owning each method; and each module's string constants with
    the imported ones folded in.
    """

    modules: List[ModuleInfo]
    by_dotted: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, Dict[str, List[ast.AST]]] = field(
        default_factory=dict, init=False)
    #: per module, ``Z -> (X, Y)`` for each ``from X import Y as Z``
    imports: Dict[str, Dict[str, Tuple[str, str]]] = field(
        default_factory=dict, init=False)
    classes: Dict[ClassKey, Tuple[ModuleInfo, ast.ClassDef,
                                  List[ClassKey]]] = field(
        default_factory=dict, init=False)
    #: ``id`` of a method's def -> the class defining it
    owner: Dict[int, ClassKey] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        self.by_dotted = {m.dotted: m for m in self.modules}
        for module in self.modules:
            self._index(module)
        self._resolve_imported_constants()

    def _index(self, module: ModuleInfo) -> None:
        """Add one module's import bindings, functions and classes."""
        imports = self.imports[module.dotted] = {
            local: (source, name)
            for local, source, name in module_imports(module.tree)}
        index = self.functions[module.dotted] = {}
        for node in module.tree.body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                key = (module.dotted, node.name)
                self.classes[key] = (module, node, [
                    (module.dotted, base.id)
                    if (module.dotted, base.id) in self.classes
                    else imports.get(base.id)
                    for base in node.bases if isinstance(base, ast.Name)])
                self.owner.update((id(item), key) for item in node.body)
                members = node.body
            for item in members:
                if isinstance(item, FUNC_NODES):
                    index.setdefault(item.name, []).append(item)

    def _resolve_imported_constants(self) -> None:
        """Fold ``from mod import MSG_X [as Y]`` string constants into
        each importer's constant table, so tag references resolve
        module-qualified (two modules may both define ``MSG_SEND``
        with different strings)."""
        own: Dict[str, Dict[str, str]] = {
            m.dotted: dict(m.constants) for m in self.modules}
        for module in self.modules:
            for local, (source, name) in self.imports[module.dotted].items():
                value = own.get(source, {}).get(name)
                if value is not None and local not in module.constants:
                    module.constants[local] = value

    def scoped(self, pack: str) -> List[ModuleInfo]:
        """The modules a rule pack applies to."""
        return [m for m in self.modules if in_scope(pack, m.dotted)]

    # -- call resolution ------------------------------------------------------

    def lineage(self, key: ClassKey, up: bool) -> List[ClassKey]:
        """The transitive bases (``up``) or subclasses of a class."""
        seen: List[ClassKey] = []
        frontier = [key]
        while frontier:
            current = frontier.pop()
            for other, (_, _, bases) in self.classes.items():
                if other not in seen and (other in self.classes[current][2]
                                          if up else current in bases):
                    seen.append(other)
                    frontier.append(other)
        return seen

    def resolve(self, module: ModuleInfo,
                name: str) -> List[Tuple[ModuleInfo, ast.AST]]:
        """Resolve a called name to candidate defs: the module's own
        functions first, then explicit ``from X import name`` bindings
        into other scanned modules."""
        own = self.functions[module.dotted].get(name)
        if own:
            return [(module, node) for node in own]
        source, source_name = self.imports[module.dotted].get(
            name, (None, None))
        other = self.by_dotted.get(source)
        if other is None:
            return []
        return [(other, node)
                for node in self.functions[other.dotted].get(source_name, ())]

    def callees(self, module: ModuleInfo, func: ast.AST,
                call: ast.Call) -> List[Tuple[ModuleInfo, ast.AST]]:
        """The defs a call inside ``func`` may reach: :meth:`resolve`
        of its name and, for ``self.name(...)`` in a method, ``name``
        as the classes above and below the method's class define it in
        other modules."""
        name = terminal_name(call.func)
        if name is None:
            return []
        resolved = self.resolve(module, name)
        receiver = getattr(call.func, "value", None)
        key = self.owner.get(id(func))
        if key is None or not (isinstance(receiver, ast.Name)
                               and receiver.id == "self"):
            return resolved
        related = self.lineage(key, True) + self.lineage(key, False)
        return resolved + [(self.classes[other][0], item)
                           for other in related if other[0] != key[0]
                           for item in self.methods(other, name)]

    def methods(self, key: ClassKey, name: str) -> List[ast.AST]:
        """The defs of method ``name`` in the body of class ``key``."""
        return [item for item in self.classes[key][1].body
                if isinstance(item, FUNC_NODES) and item.name == name]


def _parse_waivers(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    waivers: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _WAIVER_RE.search(text)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            waivers[lineno] = {r for r in rules if r}
    return waivers


def _dotted_for(path: Path, root: Path, package: Optional[str]) -> str:
    rel = path.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    if package:
        parts.insert(0, package)
    return ".".join(parts) if parts else (package or path.stem)


def load_module(path: Path, dotted: Optional[str] = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    info = ModuleInfo(
        path=path,
        dotted=dotted or path.stem,
        tree=tree,
        source_lines=lines,
        waivers=_parse_waivers(lines),
    )
    info.constants = module_string_constants(tree)
    return info


def discover_sources(
        paths: Sequence[Path]) -> List[Tuple[Path, Optional[str]]]:
    """Find every ``.py`` file under ``paths`` without parsing it.

    Returns ``(path, dotted name)`` pairs in deterministic (sorted)
    order.  The incremental cache hashes file contents and decides on
    a hit *before* paying for any AST parse.
    """
    sources: List[Tuple[Path, Optional[str]]] = []
    seen: Set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.resolve() not in seen:
                seen.add(root.resolve())
                sources.append((root, None))
            continue
        if not root.is_dir():
            raise FileNotFoundError(f"no such file or directory: {root}")
        package = root.name if (root / "__init__.py").exists() else None
        for path in sorted(root.rglob("*.py")):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            sources.append((path, _dotted_for(path, root, package)))
    return sources


def _waiver_lines_for(module: ModuleInfo, line: int) -> List[int]:
    """The waiver-comment lines whose tokens cover ``line``: the line
    itself plus, when the preceding line is a standalone comment
    waiver, that line (mirrors :meth:`ModuleInfo.waived_rules`)."""
    lines = []
    if line in module.waivers:
        lines.append(line)
    prev = line - 1
    if prev in module.waivers and \
            module.source_lines[prev - 1].strip().startswith("#"):
        lines.append(prev)
    return lines


def _apply_waivers(module_index: Dict[str, ModuleInfo],
                   finding: Finding,
                   used: Set[Tuple[str, int, str]]) -> Finding:
    module = module_index.get(finding.path)
    if module is None:
        return finding
    waived = module.waived_rules(finding.line)
    if finding.rule in waived or "all" in waived:
        for waiver_line in _waiver_lines_for(module, finding.line):
            for token in module.waivers[waiver_line]:
                if token == finding.rule or token == "all":
                    used.add((module.dotted, waiver_line, token))
        return Finding(rule=finding.rule, path=finding.path,
                       line=finding.line, message=finding.message,
                       severity=finding.severity, waived=True)
    return finding


RULE_WAIVER_DEAD = "waiver-dead"


def _dead_waiver_findings(
        modules: Sequence[ModuleInfo],
        used: Set[Tuple[str, int, str]],
        known_ids: Set[str]) -> Iterable[Finding]:
    """One ``waiver-dead`` finding per waiver token that suppressed
    nothing in a full run.

    The meta-token ``waiver-dead`` itself is exempt (waiving the dead
    check is a reviewed decision, not debt), and tokens that are not
    rule ids at all get a distinct message so typos are obvious.
    """
    for module in modules:
        for line in sorted(module.waivers):
            for token in sorted(module.waivers[line]):
                if token == RULE_WAIVER_DEAD:
                    continue
                if (module.dotted, line, token) in used:
                    continue
                if token != "all" and token not in known_ids:
                    message = (f"waiver names unknown rule id '{token}' "
                               "(see --list-rules) — fix the id or "
                               "delete the comment")
                else:
                    message = (f"waiver '{token}' suppresses nothing — "
                               "the finding it covered is gone; delete "
                               "the comment")
                yield Finding(rule=RULE_WAIVER_DEAD,
                              path=module.display_path, line=line,
                              message=message, severity="warning")


def run_lint(paths: Sequence[Path],
             only: Optional[Set[str]] = None,
             cache_dir: Optional[Path] = None) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    ``only`` restricts the run to rules whose pack name or any rule id
    matches; ``None`` runs everything.  Full runs additionally report
    ``waiver-dead`` for waiver comments that suppressed nothing —
    partial runs skip the check, since a waiver for an unselected rule
    is not dead, merely unexercised.

    ``cache_dir`` enables the whole-run incremental cache: when every
    scanned file's content hash and the rule selection match the
    stored entry, the cached report is returned without parsing a
    single file (``report.from_cache`` is then true); it keys runs by
    file content and rule selection.
    """
    from repro.lint import cache as lint_cache
    from repro.lint.rules import all_rules

    active_rules = all_rules()
    if only:
        active_rules = [
            r for r in active_rules
            if r.pack in only or any(rid in only for rid in r.rule_ids)]

    sources = discover_sources(paths)
    cache_key = None
    if cache_dir is not None:
        entries = [(dotted or path.stem, lint_cache.file_digest(path))
                   for path, dotted in sources]
        cache_key = lint_cache.cache_key(
            entries, [r.pack for r in active_rules])
        cached = lint_cache.load(cache_dir, cache_key)
        if cached is not None:
            return cached

    project = Project(modules=[load_module(path, dotted)
                               for path, dotted in sources])
    module_index = {m.display_path: m for m in project.modules}

    findings: List[Finding] = []
    seen: Set[Finding] = set()
    used_waivers: Set[Tuple[str, int, str]] = set()
    for rule in active_rules:
        for finding in rule.run(project):
            finding = _apply_waivers(module_index, finding, used_waivers)
            if finding not in seen:
                seen.add(finding)
                findings.append(finding)
    if only is None:
        known_ids: Set[str] = {r.pack for r in active_rules}
        for rule in active_rules:
            known_ids.update(rule.rule_ids)
        for finding in _dead_waiver_findings(project.modules,
                                             used_waivers, known_ids):
            finding = _apply_waivers(module_index, finding, used_waivers)
            if finding not in seen:
                seen.add(finding)
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    report = LintReport(
        findings=findings,
        modules_checked=len(project.modules),
        rules_run=tuple(r.pack for r in active_rules),
    )
    if cache_dir is not None and cache_key is not None:
        lint_cache.store(cache_dir, cache_key, report)
    return report
