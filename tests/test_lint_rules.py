"""Rule-pack tests for :mod:`repro.lint` against violation fixtures.

The fixtures under ``tests/fixtures/lint/`` are scanned as ASTs only —
they are never imported — and each carries deliberate violations whose
rule ids and line numbers are pinned here.
"""

from pathlib import Path

from repro.lint import run_lint
from repro.lint.config import in_scope
from repro.lint.runner import main as lint_main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def findings_for(filename, only=None):
    report = run_lint([FIXTURES / filename], only=only)
    return report


def locate(report, rule):
    return sorted((f.path, f.line) for f in report.findings
                  if f.rule == rule and not f.waived)


def test_determinism_pack_detects_seeded_violations():
    report = findings_for("det_violations.py", only={"determinism"})
    path = str(FIXTURES / "det_violations.py")
    assert locate(report, "det-entropy") == [
        (path, 6), (path, 19), (path, 34)]
    assert locate(report, "det-wallclock") == [(path, 7), (path, 22)]
    assert locate(report, "det-set-order") == [(path, 26)]
    assert locate(report, "det-id-order") == [(path, 31)]


def test_quorum_pack_detects_seeded_violations():
    report = findings_for("quorum_violations.py", only={"quorum"})
    path = str(FIXTURES / "quorum_violations.py")
    assert locate(report, "quorum-literal") == [(path, 14)]
    assert locate(report, "quorum-intersection") == [(path, 20)]
    assert locate(report, "quorum-unreachable") == [(path, 24)]
    # The canonical n - t wait in the same fixture stays quiet.
    assert len(report.active) == 3


def test_quorum_pack_checks_agreeing_waits():
    """``condition_agreeing``'s count is checked as
    ``condition_quorum``'s is."""
    report = findings_for("quorum_agreeing.py", only={"quorum"})
    path = str(FIXTURES / "quorum_agreeing.py")
    assert locate(report, "quorum-literal") == [(path, 16)]
    assert locate(report, "quorum-intersection") == [(path, 21)]
    # the canonical n - t agreeing wait stays quiet
    assert len(report.active) == 2


def test_wire_pack_detects_unregistered_payload():
    # wire_alias.py imports the class as ``Body``: the alias resolves
    # through the project's import bindings to the class it names
    report = run_lint([FIXTURES / "wire_violations.py",
                       FIXTURES / "wire_alias.py"], only={"wire"})
    path = str(FIXTURES / "wire_violations.py")
    alias = str(FIXTURES / "wire_alias.py")
    assert locate(report, "wire-unregistered") == [
        (alias, 16), (path, 21), (path, 25)]


def test_wire_pack_detects_dead_registration():
    report = run_lint([FIXTURES / "wire_dead.py"], only={"wire"})
    path = str(FIXTURES / "wire_dead.py")
    assert locate(report, "wire-dead") == [(path, 13)]
    [finding] = report.active
    assert finding.severity == "warning"


def test_handler_pack_detects_orphans_and_unhandled():
    report = run_lint([FIXTURES / "handler_violations.py"],
                      only={"handlers"})
    path = str(FIXTURES / "handler_violations.py")
    # a bucket a WaitState declares is a receive site like any other:
    # it matches the reply sent on line 36 and is an orphan on line 38
    assert locate(report, "handler-orphan") == [(path, 14), (path, 38)]
    assert locate(report, "handler-unhandled") == [(path, 19)]
    # The matched ping send/handler pair stays quiet.
    assert len(report.active) == 3


def test_handler_pack_sees_enqueue_sends_and_agreeing_waits():
    """``simulator.enqueue`` is a send site (mtype at index 3) and
    ``condition_agreeing`` a receive site; an ``enqueue`` or
    ``messages`` call on any other receiver is neither."""
    report = run_lint([FIXTURES / "handler_sites.py"], only={"handlers"})
    assert report.active == []


def test_handler_pack_follows_receive_wrappers_across_the_hierarchy(
        tmp_path):
    """A base-class helper sends and waits on message types it takes as
    parameters; a subclass in another module passes the constants, and
    the handler and the reply sit in a third class.  The helper's sites
    come from that call, so no handler finding remains — and a call
    passing a reply type nothing sends is an orphan at the call, while
    the same call in a class outside the hierarchy reaches no helper."""
    wrapper = [FIXTURES / "handler_wrapper_base.py",
               FIXTURES / "handler_wrapper_sub.py"]
    report = run_lint(wrapper, only={"handlers"})
    assert report.active == []
    orphan = tmp_path / "handler_wrapper_orphan.py"
    orphan.write_text(
        "from handler_wrapper_base import RoundClientBase\n"
        "\n"
        "MSG_ASK = 'wrapped-ask'\n"
        "MSG_UNSENT = 'wrapped-unsent'\n"
        "\n"
        "\n"
        "class SilentClient(RoundClientBase):\n"
        "    def ask(self, tag, oid):\n"
        "        yield from self._round(tag, oid, MSG_ASK, MSG_UNSENT)\n"
        "\n"
        "\n"
        "class Unrelated:\n"
        "    def ask(self, tag, oid):\n"
        "        yield from self._round(tag, oid, MSG_ASK, MSG_UNSENT)\n")
    report = run_lint(wrapper + [orphan], only={"handlers"})
    assert locate(report, "handler-orphan") == [(str(orphan), 9)]
    assert len(report.active) == 1


def test_waiver_comments_suppress_findings():
    report = run_lint([FIXTURES / "waiver_example.py"],
                      only={"determinism"})
    path = str(FIXTURES / "waiver_example.py")
    # Same-line waiver (line 6) and standalone previous-line waiver
    # (line 10) are honoured; line 7 stays active.
    assert sorted((f.line, f.waived) for f in report.findings) == [
        (6, True), (7, False), (10, True)]
    assert locate(report, "det-wallclock") == [(path, 7)]
    assert report.exit_code == 1


def test_fixture_directory_exits_nonzero():
    report = run_lint([FIXTURES])
    assert report.exit_code == 1
    assert len(report.active) >= 14


def test_runner_cli_on_fixture(capsys):
    code = lint_main([str(FIXTURES / "det_violations.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "det_violations.py:6: error: [det-entropy]" in out


def test_runner_cli_json_output(capsys):
    code = lint_main([str(FIXTURES / "quorum_violations.py"),
                      "--rules", "quorum", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    import json

    payload = json.loads(out)
    assert payload["active"] == 3
    rules = {f["rule"] for f in payload["findings"]}
    assert rules == {"quorum-literal", "quorum-intersection",
                     "quorum-unreachable"}


def test_runner_lists_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for pack in ("determinism", "quorum", "wire", "handlers", "taint"):
        assert pack in out
    assert "waiver-dead" in out


def test_rule_filter_limits_packs():
    report = run_lint([FIXTURES / "det_violations.py"], only={"quorum"})
    assert report.findings == []


def test_scoping_exempts_non_protocol_repro_modules(tmp_path):
    # A module whose dotted name falls outside the protocol prefixes
    # (e.g. repro.workloads) may seed RNGs freely.
    package = tmp_path / "repro"
    (package / "workloads").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "workloads" / "__init__.py").write_text("")
    (package / "workloads" / "gen.py").write_text(
        "import random\n\n\ndef draw():\n    return random.random()\n")
    report = run_lint([package], only={"determinism"})
    assert report.findings == []
    # The same file inside a protocol prefix is flagged.
    (package / "core").mkdir()
    (package / "core" / "__init__.py").write_text("")
    (package / "core" / "gen.py").write_text(
        "import random\n\n\ndef draw():\n    return random.random()\n")
    report = run_lint([package], only={"determinism"})
    assert [f.rule for f in report.active] == ["det-entropy"]


def test_seeded_rng_and_canonical_thresholds_stay_quiet(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text(
        "import random\n"
        "\n"
        "\n"
        "class Fine:\n"
        "    def __init__(self, config, process, seed):\n"
        "        self.config = config\n"
        "        self.process = process\n"
        "        self.rng = random.Random(seed)\n"
        "\n"
        "    def wait(self, tag, acks):\n"
        "        quorum = self.config.quorum\n"
        "        ok = len(acks) >= 2 * self.config.t + 1\n"
        "        amplify = len(acks) >= self.config.t + 1\n"
        "        coded = len(acks) >= self.config.k\n"
        "        cond = self.process.condition_quorum(tag, 'ack', quorum)\n"
        "        self.process.send(None, tag, 'ack', b'')\n"
        "        for item in sorted({'a', 'b'}):\n"
        "            pass\n"
        "        return ok, amplify, coded, cond\n")
    report = run_lint([clean], only={"determinism", "quorum"})
    assert report.findings == []


def test_lint_config_scope_defaults():
    assert in_scope("determinism", "repro.core.atomic")
    assert not in_scope("determinism", "repro.workloads.generator")
    assert in_scope("wire", "repro.workloads.generator")
    assert in_scope("determinism", "some_fixture_module")
    # The linter exempts itself from protocol-only packs.
    assert not in_scope("determinism", "repro.lint.engine")


def test_determinism_pack_flags_functools_caches():
    report = findings_for("cache_violations.py", only={"determinism"})
    path = str(FIXTURES / "cache_violations.py")
    assert locate(report, "det-cache-order") == [
        (path, 8), (path, 11), (path, 16)]
    # The sanctioned repro.common.lru.LruCache usage stays quiet: the
    # only findings in the fixture are the functools memoizers.
    assert {f.rule for f in report.active} == {"det-cache-order"}


def test_cache_rule_exempts_sanctioned_lru_module():
    """The one place allowed to implement caching is repro.common.lru —
    the rule exempts it by dotted name, not by waiver comments."""
    import ast as _ast

    from repro.lint.engine import ModuleInfo, Project
    from repro.lint.rules.determinism import (
        _SANCTIONED_CACHE_MODULES,
        DeterminismRule,
    )

    assert "repro.common.lru" in _SANCTIONED_CACHE_MODULES
    source = "import functools\n\n@functools.lru_cache\ndef f(x):\n    return x\n"

    def module_named(dotted):
        return ModuleInfo(path=Path(f"{dotted}.py"), dotted=dotted,
                          tree=_ast.parse(source),
                          source_lines=source.splitlines())

    rule = DeterminismRule()
    flagged = list(rule.run(
        Project(modules=[module_named("repro.net.example")])))
    assert [f.rule for f in flagged] == ["det-cache-order"]
    exempt = list(rule.run(
        Project(modules=[module_named("repro.common.lru")])))
    assert exempt == []


def test_determinism_scope_covers_kernel_and_common_modules():
    assert in_scope("determinism", "repro.erasure.reed_solomon")
    assert in_scope("determinism", "repro.crypto.hashing")
    assert in_scope("determinism", "repro.common.lru")
    # The quorum/handler packs keep their protocol-only scope.
    assert not in_scope("quorum", "repro.erasure.reed_solomon")


def test_determinism_scope_covers_health_plane():
    """The health/SLO/time-series plane runs entirely on the logical
    clock, so it is held to the protocol determinism bar; wall-clock
    reads stay quarantined in ``repro.obs.clock`` behind its waivers."""
    for dotted in ("repro.obs.health", "repro.obs.slo",
                   "repro.obs.timeseries", "repro.obs.export",
                   "repro.obs.clock"):
        assert in_scope("determinism", dotted)


def test_health_plane_modules_lint_clean():
    src = Path(__file__).resolve().parent.parent / "src" / "repro" / "obs"
    report = run_lint(
        [src / "health.py", src / "slo.py", src / "timeseries.py"],
        only={"determinism", "handlers", "quorum"})
    assert report.findings == []
