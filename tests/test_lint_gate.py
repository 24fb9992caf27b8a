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
from repro.lint.astutil import terminal_name
from repro.lint.engine import discover
from repro.net.simulator import OBSERVER_HOOKS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BASELINE = ROOT / "benchmarks" / "LINT_baseline.json"


def _lint_subprocess(*arguments):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *arguments],
        capture_output=True, text=True, cwd=ROOT, env=env)


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
    """The erasure ratchet: one field class holds the block kernels and
    one class decodes.  Under ``src/repro`` only ``repro.erasure.field``
    imports numpy, and exactly one class defines ``decode_blocks``.  A
    second kernel stack (or a second code) has to show up here first."""
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
    assert numpy_importers == {"repro.erasure.field"}
    assert decoders == ["repro.erasure.reed_solomon.ReedSolomonCode"]


def test_observers_are_reached_only_through_the_simulator():
    """The observation ratchet: one path from a run to its observers.
    Under ``src/repro`` nothing reads an ``obs`` attribute, directly or
    by ``getattr``, and an observer hook (``on_send`` ...
    ``on_count``) is called, or looked up by name, only in
    ``repro.net.simulator``: processes, kv sessions and the repair
    coordinator report to their simulator, and the kv mux reports its
    inner traffic through ``Simulator.report_send``/``report_deliver``.
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
