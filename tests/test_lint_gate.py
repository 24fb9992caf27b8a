"""Tier-1 lint gate: the full rule suite over ``src/repro`` is clean.

This is the machine-checked version of the invariants the reproduction
rests on: protocol determinism, quorum arithmetic under ``n > 3t``,
wire-registry completeness, handler completeness, and Byzantine taint
flow (every ``Message.payload`` field verified before it reaches a
sink).  A failure here means a protocol module regressed — fix it or
add an explicit ``# lint: disable=<rule>`` waiver with a justification
(unused waivers are themselves flagged by ``waiver-dead``).

The gate also exercises the CI surface end to end: the SARIF export
and the committed baseline (``benchmarks/LINT_baseline.json``) must
round-trip — baselined findings pass, new findings fail.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.astutil import str_constant, terminal_name
from repro.lint.engine import Project, discover_sources, load_module
from repro.net.simulator import OBSERVER_HOOKS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BASELINE = ROOT / "benchmarks" / "LINT_baseline.json"


def discover(paths):
    """Every module under ``paths``, parsed, in sorted order."""
    return [load_module(path, dotted)
            for path, dotted in discover_sources(paths)]


def _src_env():
    """The environment with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    return env


def _lint_subprocess(*arguments):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *arguments],
        capture_output=True, text=True, cwd=ROOT, env=_src_env())


@pytest.fixture(scope="module")
def full_report():
    return run_lint([SRC])


def test_source_tree_exists():
    assert (SRC / "lint" / "engine.py").exists()


def test_full_suite_zero_unwaived_findings(full_report):
    rendered = "\n".join(f.render() for f in full_report.active)
    assert not full_report.active, \
        f"unwaived lint findings:\n{rendered}"
    assert full_report.exit_code == 0


def test_gate_covers_all_rule_packs(full_report):
    assert set(full_report.rules_run) == {
        "determinism", "quorum", "wire", "handlers", "taint"}


def test_gate_scans_protocol_modules(full_report):
    # The whole package tree is parsed, not a subset.
    assert full_report.modules_checked >= 90


def test_no_dead_waivers_in_source_tree(full_report):
    dead = [f for f in full_report.findings if f.rule == "waiver-dead"]
    rendered = "\n".join(f.render() for f in dead)
    assert not dead, f"stale waiver comments:\n{rendered}"


def test_sarif_baseline_ci_invocation(tmp_path):
    """The documented CI command line succeeds against the committed
    baseline and produces a well-formed SARIF file."""
    sarif_path = tmp_path / "out.sarif"
    result = _lint_subprocess(str(SRC), "--sarif", str(sarif_path),
                              "--baseline", str(BASELINE))
    assert result.returncode == 0, \
        f"baseline gate failed:\n{result.stdout}\n{result.stderr}"
    document = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert document["version"] == "2.1.0"
    [run] = document["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    # Active findings are all baselined-or-absent; waived ones appear
    # as suppressed results.
    assert all("suppressions" in r or r["ruleId"]
               for r in run["results"])


def test_committed_baseline_matches_clean_tree():
    """The committed baseline records zero accepted findings: the tree
    is clean, so any future finding is 'new' and fails the gate."""
    document = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert document["version"] == 1
    assert document["findings"] == {}


def test_baseline_gate_fails_on_new_finding(tmp_path):
    """End-to-end ratchet check: a fresh violation on top of the
    committed baseline exits nonzero."""
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\n\ndef now():\n"
                   "    return time.time()\n")
    result = _lint_subprocess(str(SRC), str(bad),
                              "--baseline", str(BASELINE))
    assert result.returncode == 1
    assert "det-wallclock" in result.stdout


def _call_sites(callee):
    """``module.function`` of every call of ``callee`` under
    ``src/repro``, by AST (the linter's own project loader)."""
    sites = []
    for module in discover([SRC]):
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) \
                        and terminal_name(node.func) == callee:
                    sites.append(f"{module.dotted}.{scope.name}")
    return sorted(sites)


def _compare_sites(constant):
    """``module.function`` of every comparison with the string
    ``constant`` under ``src/repro``."""
    sites = set()
    for module in discover([SRC]):
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.Compare) and any(
                        isinstance(operand, ast.Constant)
                        and operand.value == constant
                        for operand in (node.left, *node.comparators)):
                    sites.add(f"{module.dotted}.{scope.name}")
    return sorted(sites)


def _raise_sites(fragment):
    """``module.function`` of every ``raise`` under ``src/repro`` whose
    message text contains ``fragment``."""
    sites = set()
    for module in discover([SRC]):
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.Raise) and any(
                        isinstance(part, ast.Constant)
                        and isinstance(part.value, str)
                        and fragment in part.value
                        for part in ast.walk(node)):
                    sites.add(f"{module.dotted}.{scope.name}")
    return sorted(sites)


def test_one_runner_builds_kv_deployments_and_wires_their_faults():
    """The harness ratchet: one runner per plane.  One function under
    ``src/repro`` builds a kv deployment, one drives the register
    plane's random workload (experiments with bespoke overrides or
    invocation density aside), a ``FaultInjector`` is constructed only
    in those two runners, and one function rejects an unknown protocol.
    A second runner (or a third way to turn a plan into faults) has to
    show up here first."""
    runner = "repro.cluster.run_register_case"
    assert _call_sites("build_kv_cluster") == ["repro.kv.bench.run_kv_case"]
    for callee in ("random_workload", "run_workload"):
        assert [site for site in _call_sites(callee)
                if not site.startswith("repro.experiments.")] == [runner]
    assert _call_sites("FaultInjector") == [
        runner, "repro.kv.bench.run_kv_case"]
    assert _raise_sites("unknown protocol") == [
        "repro.cluster.protocol_classes"]


def test_one_field_class_and_one_reed_solomon_code():
    """The erasure ratchet: one field class holds the block kernel and
    one class decodes.  Nothing under ``src/repro`` imports numpy, and
    exactly one class defines ``decode_blocks``.  A second kernel stack
    (or a second code) has to show up here first."""
    numpy_importers = set()
    decoders = []
    for module in discover([SRC]):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            if any(name.split(".")[0] == "numpy" for name in imported):
                numpy_importers.add(module.dotted)
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef)
                    and item.name == "decode_blocks" for item in node.body):
                decoders.append(f"{module.dotted}.{node.name}")
    assert numpy_importers == set()
    assert decoders == ["repro.erasure.reed_solomon.ReedSolomonCode"]


def test_wall_clock_reads_live_in_one_module():
    """The wall-clock ratchet: ``repro.obs.clock`` is the only module
    under ``src/repro`` that imports ``time``; every other timer calls
    its ``wall_seconds``."""
    importers = []
    for module in discover([SRC]):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            if "time" in imported:
                importers.append(f"{module.dotted}:{node.lineno}")
    assert [site for site in importers
            if not site.startswith("repro.obs.clock:")] == []
    assert len(importers) == 1


def test_a_kv_run_never_loads_numpy():
    """The footprint ratchet the AST check cannot see: a fresh
    interpreter that runs a small kv case has not imported numpy, not
    even through a dependency."""
    script = ("import sys\n"
              "from repro.kv.bench import run_kv_case\n"
              "row, _ = run_kv_case(2, protocol='atomic', ops=24)\n"
              "assert row.completed == row.ops, row\n"
              "print(sorted(name for name in sys.modules\n"
              "             if name.split('.')[0] == 'numpy'))\n")
    result = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_observers_are_reached_only_through_the_simulator():
    """The observation ratchet: one path from a run to its observers.
    Under ``src/repro`` nothing reads an ``obs`` attribute, directly or
    by ``getattr``, and an observer hook (``on_send`` ...
    ``on_count``) is called, or looked up by name, only in
    ``repro.net.simulator``: processes, kv sessions and the repair
    coordinator report to their simulator, and the kv mux reports its
    inner traffic to the same ``on_send`` / ``on_deliver`` observers,
    one report per flush and per envelope, through
    ``Simulator.report_send_batch``/``report_deliver_batch``.
    """
    obs_reads, hook_calls = [], []
    for module in discover([SRC]):
        for node in ast.walk(module.tree):
            site = f"{module.dotted}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and node.attr == "obs":
                obs_reads.append(site)
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in OBSERVER_HOOKS:
                hook_calls.append(site)
            if terminal_name(node.func) == "getattr" \
                    and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                if node.args[1].value == "obs":
                    obs_reads.append(site)
                if node.args[1].value in OBSERVER_HOOKS:
                    hook_calls.append(site)
    assert obs_reads == []
    assert [site for site in hook_calls
            if not site.startswith("repro.net.simulator:")] == []


def test_a_traced_run_matches_its_operations_once():
    """The matcher ratchet: one operation matcher per traced run.  An
    ``OperationMatcher`` is constructed only by the trace recorder,
    which matches operations as they complete, and by
    ``match_operations``, which runs the same matcher over a whole log.
    The health monitor reads its recorder's matches; a second live
    matcher has to show up here first."""
    assert _call_sites("OperationMatcher") == [
        "repro.analysis.trace.match_operations",
        "repro.obs.recorder.__init__"]


def test_a_run_has_one_source_of_plane_totals():
    """The plane ratchet: a run's plane totals are computed in one
    place.  A ``PlaneTraffic`` is constructed only in
    ``repro.obs.planes``, whose ``plane_traffic`` reads the recorder's
    ``wire.bytes[mtype]`` histograms for the kv-bench row and the
    health monitor alike; a second running total has to show up here
    first."""
    sites = _call_sites("PlaneTraffic")
    assert sites and all(site.startswith("repro.obs.planes.")
                         for site in sites), sites


def test_faulty_servers_are_mixins_derived_in_one_place():
    """The fault ratchet: one way to make a faulty server.  No class
    under ``repro.faults`` subclasses an honest server class (a
    register server of :data:`repro.cluster.PROTOCOLS` or the kv host)
    — a fault is a mixin — and a class is built with three-argument
    ``type(...)`` only in :func:`repro.faults.variants.derive`, which
    ``fail_stop`` and ``byzantine`` call."""
    import importlib

    from repro.cluster import PROTOCOLS
    from repro.kv import KvServer
    honest = (KvServer, *(server for server, _ in PROTOCOLS.values()))
    subclasses, derivations = [], []
    for module in discover([SRC]):
        if module.dotted.startswith("repro.faults."):
            loaded = importlib.import_module(module.dotted)
            subclasses += [
                f"{module.dotted}.{node.name}" for node in module.tree.body
                if isinstance(node, ast.ClassDef)
                and issubclass(getattr(loaded, node.name), honest)]
        scopes = [(module.dotted, module.tree)]
        while scopes:
            site, scope = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    scopes.append((f"{site}.{node.name}", node))
                    continue
                scopes.append((site, node))
                if isinstance(node, ast.Call) \
                        and terminal_name(node.func) == "type" \
                        and len(node.args) == 3:
                    derivations.append(site)
    assert subclasses == []
    assert derivations == ["repro.faults.variants.derive"]


def test_register_runs_are_judged_in_one_place():
    """The verdict ratchet: each claim about a register run is decided
    once.  Under ``src/repro`` an event's action is compared with
    ``"write-accepted"`` only in the takes-effect rule
    (``effected_writes``) and in the two incremental observers
    (``repro.analysis.invariants``, ``repro.obs.recorder``); a
    ``HistoryRecorder`` is built only by the run verdict and by the
    CLI's strict simulate/trace checks; and no experiment turns an
    error into a verdict with ``except Exception``."""
    observers = ("repro.analysis.invariants.", "repro.obs.recorder.")
    assert [site for site in _compare_sites("write-accepted")
            if not site.startswith(observers)] == [
        "repro.analysis.history.effected_writes"]
    assert _call_sites("HistoryRecorder") == [
        "repro.analysis.history.run_verdict",
        "repro.cli._cmd_simulate", "repro.cli._cmd_trace"]
    broad = []
    for module in discover([SRC]):
        if not module.dotted.startswith("repro.experiments."):
            continue
        broad += [f"{module.dotted}:{node.lineno}"
                  for node in ast.walk(module.tree)
                  if isinstance(node, ast.ExceptHandler)
                  and (node.type is None
                       or terminal_name(node.type) in ("Exception",
                                                       "BaseException"))]
    assert broad == []


def test_register_servers_share_one_skeleton():
    """The register-server ratchet: the listener read path and the
    initial register are written once, in ``repro.core.register``.
    Under ``src/repro`` a ``ListenerSet`` is built (called, or handed
    over as a factory) once, in ``repro.core.register``; a
    listener set's ``add`` / ``knows`` / ``retire`` / ``below`` — the
    tombstones included — is called only by the base's handlers; and
    the initial value is encoded (``encode`` of ``_initial_value`` or of
    a constant) and committed in one function only."""
    built, listener_calls, initial_commits = [], [], []
    for module in discover([SRC]):
        built += [module.dotted for call in ast.walk(module.tree)
                  if isinstance(call, ast.Call) and any(
                      isinstance(value, ast.Name)
                      and value.id == "ListenerSet"
                      for value in (call.func, *call.args, *(
                          keyword.value for keyword in call.keywords)))]
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            site = f"{module.dotted}.{scope.name}"
            calls = [node for node in ast.walk(scope)
                     if isinstance(node, ast.Call)]
            for call in calls:
                name = terminal_name(call.func)
                if name in ("add", "knows", "retire", "below") \
                        and isinstance(call.func, ast.Attribute) \
                        and terminal_name(call.func.value) == "listeners":
                    listener_calls.append(f"{site}:{name}")
            encodes_initial = any(
                terminal_name(call.func) == "encode" and call.args
                and (isinstance(call.args[0], ast.Constant)
                     or terminal_name(call.args[0]) == "_initial_value")
                for call in calls)
            if encodes_initial and any(terminal_name(call.func) == "commit"
                                       for call in calls):
                initial_commits.append(site)
    assert built == ["repro.core.register"]
    assert sorted(listener_calls) == [
        "repro.core.register._forward:below",
        "repro.core.register._listen:add",
        "repro.core.register._listen:knows",
        "repro.core.register._on_read_complete:retire"]
    assert initial_commits == ["repro.core.register._initial_block"]


def test_register_clients_share_one_timestamp_round():
    """The register-client ratchet: the first phase of every write is
    written once, in ``repro.core.register``.  Under ``src/repro`` no
    ``send_to_servers`` names a get-ts type and no ``condition_quorum``
    waits on a ts type (constants resolved as the linter resolves them,
    imports included); one function sends and waits on types it takes
    as parameters, ``RegisterClientBase._ts_round``; and the five
    register clients with a timestamp round call it."""
    from repro.baselines import goodson, martin
    from repro.core import atomic, atomic_md
    protocols = (atomic, atomic_md, goodson, martin)
    named = {"send_to_servers": {p.MSG_GET_TS for p in protocols},
             "condition_quorum": {p.MSG_TS for p in protocols}}
    by_constant, by_parameter = [], {}
    for module in Project(modules=discover([SRC])).modules:
        for scope in ast.walk(module.tree):
            if not isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            params = {arg.arg for arg in scope.args.args}
            for node in ast.walk(scope):
                name = isinstance(node, ast.Call) \
                    and terminal_name(node.func)
                if name not in named or len(node.args) < 2:
                    continue
                mtype = node.args[1]
                if module.constants.get(terminal_name(mtype),
                                        str_constant(mtype)) in named[name]:
                    by_constant.append(f"{module.dotted}.{scope.name}")
                elif terminal_name(mtype) in params:
                    by_parameter.setdefault(
                        f"{module.dotted}.{scope.name}", set()).add(name)
    assert by_constant == []
    assert [site for site, calls in by_parameter.items()
            if calls == set(named)] == ["repro.core.register._ts_round"]
    assert _call_sites("_ts_round") == [
        "repro.baselines.goodson._write_thread",
        "repro.baselines.martin._write_thread",
        "repro.baselines.phalanx._write_thread",
        "repro.core.atomic._write_thread",
        "repro.core.atomic_md._write_thread"]



def test_register_reads_share_one_agreeing_condition():
    """The register-read ratchet: the read's "``n - t`` servers agree on
    one version" wait is grouped in one place, and wait-state
    predicates are memoized in one place — ``agreeing_groups`` and
    ``once_per_message`` in ``repro.net.process``.  Under
    ``repro.core``, ``repro.baselines`` and ``repro.agreement`` no
    function keys a memo by ``msg_id`` except ``atomic_md``'s lazy
    block check (it verifies only members of an agreeing group), none
    groups messages with its own ``groups.setdefault``, and the seven
    agreeing reads reach the shared grouping."""
    shared_calls = {"condition_agreeing", "agreeing_groups",
                    "first_agreeing"}
    memos, groupings, shared = set(), set(), set()

    def visit(node, site):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{site}.{child.name}")
                continue
            keyed = isinstance(child, ast.Subscript) and child.slice
            if isinstance(child, ast.Call) and child.args \
                    and terminal_name(child.func) == "get":
                keyed = child.args[0]
            if isinstance(keyed, ast.Attribute) and keyed.attr == "msg_id":
                memos.add(site)
            name = isinstance(child, ast.Call) and terminal_name(child.func)
            if name == "setdefault" and (
                    terminal_name(child.func.value) == "groups"
                    or terminal_name(getattr(child.func.value, "func",
                                             None)) == "setdefault"):
                groupings.add(site)
            if name in shared_calls:
                shared.add(site)
            visit(child, site)

    for module in discover([SRC]):
        if module.dotted.startswith(("repro.core.", "repro.baselines.",
                                     "repro.agreement.")):
            visit(module.tree, module.dotted)
    assert sorted(memos) == [
        "repro.core.atomic_md.AtomicMdClient._read_condition.block_valid"]
    assert groupings == set()
    assert sorted(shared) == [
        "repro.baselines.abc_register.AbcRegisterClient._read_thread",
        "repro.baselines.martin.MartinClient._read_thread",
        "repro.baselines.phalanx.PhalanxClient._read_thread",
        "repro.core.atomic.AtomicClient._read_thread",
        "repro.core.atomic.AtomicClient._read_thread.check",
        "repro.core.atomic_md.AtomicMdClient._read_condition.check",
        "repro.core.no_listeners.NoListenersClient._read_thread"]

def _first_sends(protocol, client_cls):
    """What client 1, a ``client_cls``, sends the moment it is asked to
    write in a ``protocol`` cluster: ``(recipient, tag, type, payload)``
    per message."""
    from repro.cluster import build_cluster
    from repro.config import SystemConfig

    class Sends:
        def __init__(self):
            self.seen = []

        def on_send(self, sender, sends, pending):
            if sender.is_client:
                self.seen.extend((recipient, message.tag, message.mtype,
                                  message.payload)
                                 for message, recipient, _, _ in sends)

    cluster = build_cluster(SystemConfig(n=5, t=1), protocol=protocol,
                            num_clients=1, client_overrides={1: client_cls})
    sends = Sends()
    cluster.simulator.add_observer(sends)
    handle = cluster.client(1).invoke_write("reg", "w1", b"value")
    assert handle.kind == "write" and not handle.done
    return sends.seen


def test_byzantine_clients_are_one_hook_variants():
    """The Byzantine-client ratchet: a corrupted client deviates from an
    honest one at a write-path hook, not through a second write path.
    Every attack of ``BYZANTINE_CLIENTS`` is a mixin carrying
    ``ByzantineClient`` that defines no whole operation thread.  Derived
    on each protocol's client class it deviates from, it is ``class
    (mixin, honest)``, its methods all override hooks of that client (so
    no mixin carries a scripted attack method of its own), and, built in
    that protocol's cluster, it answers ``invoke_write`` by sending
    exactly the ``get-ts`` messages its honest base sends."""
    from repro.cluster import PROTOCOLS
    from repro.core.register import ByzantineClient
    from repro.faults.byzantine_clients import (
        BYZANTINE_CLIENTS,
        byzantine_client,
    )
    assert BYZANTINE_CLIENTS
    for attack, (mixin, deviates_from) in BYZANTINE_CLIENTS.items():
        assert issubclass(mixin, ByzantineClient)
        methods = {name for cls in mixin.__mro__[:-2]
                   for name, member in vars(cls).items()
                   if callable(member)}
        assert not methods & {"_write_thread", "_read_thread"}, attack
        mounted = [(protocol, client_cls)
                   for protocol, (_, client_cls) in PROTOCOLS.items()
                   if issubclass(client_cls, deviates_from)]
        assert mounted, attack
        for protocol, honest in mounted:
            variant = byzantine_client(honest, attack)
            assert variant.__bases__ == (mixin, honest)
            assert methods <= set(dir(honest)), (attack, protocol)
            honest_sends = _first_sends(protocol, honest)
            assert {mtype for _, _, mtype, _ in honest_sends} == {"get-ts"}
            assert _first_sends(protocol, variant) == honest_sends


def test_lint_packs_share_one_project_index():
    """The lint ratchet: every pack resolves imported names through the
    one project index.  ``module_imports`` is called only by
    ``Project``, and under ``repro.lint`` only it and the determinism
    pack's import check read an import alias's ``asname`` — no other
    function can build a table of ``from X import Y as Z`` bindings."""
    assert _call_sites("module_imports") == ["repro.lint.engine._index"]
    readers = set()
    for module in discover([SRC]):
        if not module.dotted.startswith("repro.lint."):
            continue
        for scope in ast.walk(module.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(isinstance(node, ast.Attribute)
                            and node.attr == "asname"
                            for node in ast.walk(scope)):
                readers.add(f"{module.dotted}.{scope.name}")
    assert sorted(readers) == [
        "repro.lint.astutil.module_imports",
        "repro.lint.rules.determinism._check_import_from"]
