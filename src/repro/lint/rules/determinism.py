"""Determinism rule pack.

The simulator replays protocol runs under a logical clock and seeded
adversarial schedulers; any entropy source, wall-clock read, or
iteration order that varies between interpreter runs breaks replay and
invalidates every scheduling experiment.  This pack flags:

* ``det-entropy`` — OS/global randomness: ``secrets``/``uuid``
  imports, ``os.urandom``, module-level ``random.<fn>()`` calls,
  unseeded ``random.Random()`` (seeded ``random.Random(seed)`` is the
  sanctioned idiom and stays legal).
* ``det-wallclock`` — real-time reads: ``import time``,
  ``time.time``/``monotonic``/``perf_counter`` family,
  ``datetime.now``/``utcnow``/``today``.
* ``det-set-order`` — iteration over ``set``/``frozenset`` values
  (literals, comprehensions, constructor calls, or locals/attributes
  annotated or assigned as sets) in ``for`` loops, comprehensions, or
  order-materialising calls (``list``/``tuple``/``enumerate``)
  without ``sorted(...)``.
* ``det-id-order`` — ordering derived from interpreter identity:
  ``id(...)`` anywhere, or ``sorted``/``min``/``max`` keyed on
  ``id``/``hash``.
* ``det-cache-order`` — memoization through ``functools.lru_cache`` /
  ``functools.cache``: those hang hidden state off module-level
  functions (so a "fresh" component silently reuses a previous run's
  cache) and their eviction bookkeeping is not replayable state.  The
  sanctioned alternative is :class:`repro.common.lru.LruCache` —
  insertion-ordered by language guarantee, explicitly owned by the
  component that uses it, and therefore deterministic; the rule
  exempts ``repro.common.lru`` itself, where that cache lives.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.lint.astutil import dotted_name, terminal_name
from repro.lint.engine import ModuleInfo, Project
from repro.lint.findings import Finding

RULE_ENTROPY = "det-entropy"
RULE_WALLCLOCK = "det-wallclock"
RULE_SET_ORDER = "det-set-order"
RULE_ID_ORDER = "det-id-order"
RULE_CACHE_ORDER = "det-cache-order"

#: ``functools`` memoizers with hidden, non-replayable cache state.
_FUNCTOOLS_CACHES = {"lru_cache", "cache"}
#: Modules exempt from ``det-cache-order``: the sanctioned
#: insertion-ordered cache implementation itself.
_SANCTIONED_CACHE_MODULES = {"repro.common.lru"}

_ENTROPY_MODULES = {"secrets", "uuid"}
_WALLCLOCK_MODULES = {"time"}
_GLOBAL_RNG_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "seed", "betavariate", "gauss",
    "normalvariate", "triangular", "expovariate",
}
_WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime",
}
_WALLCLOCK_METHODS = {"now", "utcnow", "today"}
_ENTROPY_CALLS = {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "MutableSet"}
_ORDER_MATERIALISERS = {"list", "tuple", "enumerate"}


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    name = terminal_name(node)
    return name in _SET_ANNOTATIONS


def _is_set_constructor(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"})


class _SetTracker:
    """Names and attributes known to hold sets within one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.set_attrs: Set[str] = set()
        self.set_locals: Set[Tuple[int, str]] = set()
        self._collect(tree)

    def _collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                if not _annotation_is_set(node.annotation):
                    continue
                if isinstance(node.target, ast.Attribute):
                    self.set_attrs.add(node.target.attr)
                elif isinstance(node.target, ast.Name):
                    self.set_attrs.add(node.target.id)
            elif isinstance(node, ast.Assign):
                if not (_is_set_constructor(node.value)
                        or isinstance(node.value, (ast.Set, ast.SetComp))):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self.set_attrs.add(target.attr)
                    elif isinstance(target, ast.Name):
                        self.set_attrs.add(target.id)

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if _is_set_constructor(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_attrs
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self.is_set_expr(node.left)
                    or self.is_set_expr(node.right))
        return False


class DeterminismRule:
    """Flag nondeterminism hazards in protocol modules."""

    pack = "determinism"
    rule_ids: Tuple[str, ...] = (
        RULE_ENTROPY, RULE_WALLCLOCK, RULE_SET_ORDER, RULE_ID_ORDER,
        RULE_CACHE_ORDER)

    def run(self, project: Project) -> Iterable[Finding]:
        """Yield determinism findings over the scoped modules."""
        for module in project.scoped(self.pack):
            yield from self._check_module(module)

    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        tracker = _SetTracker(module.tree)
        tainted_names: Dict[str, str] = {}
        check_caches = module.dotted not in _SANCTIONED_CACHE_MODULES
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(module, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(
                    module, node, tainted_names, check_caches)
            elif check_caches and isinstance(node, ast.Attribute):
                if dotted_name(node) in ("functools.lru_cache",
                                         "functools.cache"):
                    yield self._finding(
                        module, node, RULE_CACHE_ORDER,
                        f"{dotted_name(node)} keeps hidden cache state "
                        "with non-replayable eviction; use the "
                        "insertion-ordered repro.common.lru.LruCache")
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, tainted_names)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if tracker.is_set_expr(node.iter):
                    yield self._finding(
                        module, node.iter, RULE_SET_ORDER,
                        "iteration over an unordered set; wrap the "
                        "iterable in sorted(...)")
            elif isinstance(node, ast.comprehension):
                if tracker.is_set_expr(node.iter):
                    yield self._finding(
                        module, node.iter, RULE_SET_ORDER,
                        "comprehension over an unordered set; wrap the "
                        "iterable in sorted(...)")
        yield from self._check_materialisers(module, tracker)

    def _check_import(self, module: ModuleInfo,
                      node: ast.Import) -> Iterator[Finding]:
        for alias in node.names:
            top = alias.name.split(".")[0]
            if top in _ENTROPY_MODULES:
                yield self._finding(
                    module, node, RULE_ENTROPY,
                    f"import of entropy module '{alias.name}' in a "
                    "protocol module")
            elif top in _WALLCLOCK_MODULES:
                yield self._finding(
                    module, node, RULE_WALLCLOCK,
                    f"import of wall-clock module '{alias.name}'; use "
                    "the simulator's logical clock")

    def _check_import_from(self, module: ModuleInfo, node: ast.ImportFrom,
                           tainted: Dict[str, str],
                           check_caches: bool = True) -> Iterator[Finding]:
        source = (node.module or "").split(".")[0]
        for alias in node.names:
            local = alias.asname or alias.name
            if (check_caches and source == "functools"
                    and alias.name in _FUNCTOOLS_CACHES):
                tainted[local] = RULE_CACHE_ORDER
                yield self._finding(
                    module, node, RULE_CACHE_ORDER,
                    f"import of functools.{alias.name}: hidden cache "
                    "state with non-replayable eviction; use the "
                    "insertion-ordered repro.common.lru.LruCache")
            elif source in _ENTROPY_MODULES:
                tainted[local] = RULE_ENTROPY
                yield self._finding(
                    module, node, RULE_ENTROPY,
                    f"import of '{alias.name}' from entropy module "
                    f"'{node.module}'")
            elif source in _WALLCLOCK_MODULES:
                tainted[local] = RULE_WALLCLOCK
                yield self._finding(
                    module, node, RULE_WALLCLOCK,
                    f"import of '{alias.name}' from wall-clock module "
                    f"'{node.module}'")
            elif source == "os" and alias.name in {"urandom", "getrandom"}:
                tainted[local] = RULE_ENTROPY
                yield self._finding(
                    module, node, RULE_ENTROPY,
                    f"import of os.{alias.name}")
            elif source == "random" and alias.name != "Random":
                tainted[local] = RULE_ENTROPY
                yield self._finding(
                    module, node, RULE_ENTROPY,
                    f"import of 'random.{alias.name}'; only seeded "
                    "random.Random instances are deterministic")

    def _check_call(self, module: ModuleInfo, node: ast.Call,
                    tainted: Dict[str, str]) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        term = terminal_name(node.func)
        if dotted in _ENTROPY_CALLS:
            yield self._finding(module, node, RULE_ENTROPY,
                                f"call to {dotted}()")
        elif dotted in _WALLCLOCK_CALLS:
            yield self._finding(
                module, node, RULE_WALLCLOCK,
                f"call to {dotted}(); use the simulator's logical clock")
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr in _WALLCLOCK_METHODS
              and terminal_name(node.func.value) in {"datetime", "date"}):
            yield self._finding(
                module, node, RULE_WALLCLOCK,
                f"call to {dotted or node.func.attr}(); wall-clock "
                "timestamps are nondeterministic")
        elif dotted == "random.SystemRandom":
            yield self._finding(module, node, RULE_ENTROPY,
                                "random.SystemRandom draws OS entropy")
        elif dotted == "random.Random" and not node.args and not node.keywords:
            yield self._finding(
                module, node, RULE_ENTROPY,
                "unseeded random.Random(); pass an explicit seed")
        elif (isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "random"
              and node.func.attr in _GLOBAL_RNG_FNS):
            yield self._finding(
                module, node, RULE_ENTROPY,
                f"call to the process-global RNG random.{node.func.attr}(); "
                "use a seeded random.Random instance")
        elif isinstance(node.func, ast.Name) and node.func.id in tainted:
            yield self._finding(
                module, node, tainted[node.func.id],
                f"call to nondeterministic import '{node.func.id}'")
        elif isinstance(node.func, ast.Name) and node.func.id == "id":
            yield self._finding(
                module, node, RULE_ID_ORDER,
                "id() depends on interpreter memory layout")
        elif (isinstance(node.func, ast.Name)
              and node.func.id in {"sorted", "min", "max"}):
            yield from self._check_sort_key(module, node)

    def _check_sort_key(self, module: ModuleInfo,
                        node: ast.Call) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            key = kw.value
            if isinstance(key, ast.Name) and key.id in {"id", "hash"}:
                yield self._finding(
                    module, node, RULE_ID_ORDER,
                    f"ordering keyed on {key.id}() is interpreter-dependent")
            elif isinstance(key, ast.Lambda):
                for leaf in ast.walk(key.body):
                    if (isinstance(leaf, ast.Call)
                            and isinstance(leaf.func, ast.Name)
                            and leaf.func.id in {"id", "hash"}):
                        yield self._finding(
                            module, node, RULE_ID_ORDER,
                            f"ordering keyed on {leaf.func.id}() is "
                            "interpreter-dependent")
                        break

    def _check_materialisers(self, module: ModuleInfo,
                             tracker: _SetTracker) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_MATERIALISERS
                    and node.args):
                continue
            if tracker.is_set_expr(node.args[0]):
                yield self._finding(
                    module, node, RULE_SET_ORDER,
                    f"{node.func.id}() over an unordered set fixes an "
                    "arbitrary order; wrap the set in sorted(...)")

    @staticmethod
    def _finding(module: ModuleInfo, node: ast.AST, rule: str,
                 message: str) -> Finding:
        return Finding(rule=rule, path=module.display_path,
                       line=getattr(node, "lineno", 1), message=message)
