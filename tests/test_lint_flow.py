"""Tests for the Byzantine taint-flow pack and its supporting
machinery: fixtures per rule id, the waiver-dead engine pass, SARIF
export, baseline gating, and the incremental cache.

Fixtures under ``tests/fixtures/lint/`` are scanned as ASTs only and
carry deliberate violations whose rule ids and line numbers are pinned
here.
"""

import json
from pathlib import Path

from repro.lint import run_lint
from repro.lint.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    normalized_path,
    write_baseline,
)
from repro.lint.findings import Finding, LintReport
from repro.lint.runner import main as lint_main
from repro.lint.sarif import to_sarif

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def taint_report(filename):
    return run_lint([FIXTURES / filename], only={"taint"})


def locate(report, rule):
    return sorted((f.path, f.line) for f in report.findings
                  if f.rule == rule and not f.waived)


# -- the taint pack over fixtures -----------------------------------------


def test_taint_pack_detects_seeded_violations():
    report = taint_report("taint_violations.py")
    path = str(FIXTURES / "taint_violations.py")
    assert locate(report, "taint-unverified-sink") == [
        (path, 21), (path, 26), (path, 30), (path, 31), (path, 36),
        (path, 43)]
    assert locate(report, "taint-dead-sanitizer") == [(path, 35)]


def test_taint_pack_sources_agreeing_groups():
    """An agreeing group carries Byzantine payloads unless the wait
    names its operation (``oid=``)."""
    report = taint_report("taint_agreeing.py")
    path = str(FIXTURES / "taint_agreeing.py")
    assert locate(report, "taint-unverified-sink") == [(path, 17)]
    assert len(report.active) == 1


def test_taint_pack_quiet_on_sanitized_module():
    report = taint_report("taint_clean.py")
    assert report.findings == []


def test_taint_waivers_suppress_and_count_as_used():
    report = taint_report("taint_waived.py")
    assert report.active == []
    assert len(report.waived) == 2
    assert all(f.rule == "taint-unverified-sink" for f in report.waived)
    # Full run over the same file: the waivers suppressed findings, so
    # the waiver-dead pass stays silent about them.
    full = run_lint([FIXTURES / "taint_waived.py"])
    assert locate(full, "waiver-dead") == []


def test_taint_helper_validator_and_unknown_sanitizer():
    report = taint_report("taint_helper.py")
    path = str(FIXTURES / "taint_helper.py")
    # valid_entry() resolves to a type-checking validator: clean.
    # check_freshness() is sanitizer-ish but unknown: one warning,
    # and the optimistic cleanse leaves no downstream sink findings.
    assert locate(report, "taint-unknown-sanitizer") == [(path, 31)]
    assert locate(report, "taint-unverified-sink") == []
    [finding] = report.active
    assert finding.severity == "warning"


def test_taint_pack_seeds_a_handler_a_subclass_inherits():
    """A handler defined in a base class and registered by a subclass
    in another module still gets a Byzantine message parameter."""
    base = FIXTURES / "taint_inherit_base.py"
    report = run_lint([base, FIXTURES / "taint_inherit_sub.py"],
                      only={"taint"})
    assert locate(report, "taint-unverified-sink") == [(str(base), 13)]
    assert taint_report("taint_inherit_base.py").findings == []


def test_src_repro_lints_clean_under_taint_pack():
    report = run_lint([SRC], only={"taint"})
    rendered = "\n".join(f.render() for f in report.active)
    assert report.active == [], f"taint findings:\n{rendered}"
    # The two deliberate relay/buffering flows are waived in-source.
    assert len(report.waived) >= 2


# -- waiver-dead ----------------------------------------------------------


def test_waiver_dead_reported_on_full_runs():
    report = run_lint([FIXTURES / "waiver_dead.py"])
    path = str(FIXTURES / "waiver_dead.py")
    assert locate(report, "waiver-dead") == [(path, 10), (path, 14)]
    by_line = {f.line: f for f in report.active}
    assert "suppresses nothing" in by_line[10].message
    assert "unknown rule id" in by_line[14].message
    assert all(f.severity == "warning" for f in report.active)


def test_waiver_dead_skipped_on_partial_runs():
    report = run_lint([FIXTURES / "waiver_dead.py"],
                      only={"determinism"})
    assert report.findings == []


# -- deterministic ordering -----------------------------------------------


def test_findings_sorted_and_stable():
    report = run_lint([FIXTURES], only={"taint"})
    keys = [f.sort_key() for f in report.findings]
    assert keys == sorted(keys)
    again = run_lint([FIXTURES], only={"taint"})
    assert [f.sort_key() for f in again.findings] == keys


# -- SARIF ----------------------------------------------------------------


def test_sarif_document_shape():
    report = taint_report("taint_violations.py")
    document = to_sarif(report)
    assert document["version"] == "2.1.0"
    [run] = document["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert len(run["results"]) == len(report.findings)
    first = run["results"][0]
    assert first["locations"][0]["physicalLocation"][
        "region"]["startLine"] == 21
    assert first["partialFingerprints"]["reproLint/v1"] == fingerprint(
        report.findings[0])


def test_sarif_marks_waived_as_suppressed():
    report = taint_report("taint_waived.py")
    [run] = to_sarif(report)["runs"]
    assert all(r["suppressions"] == [{"kind": "inSource"}]
               for r in run["results"])


def test_sarif_cli_writes_file(tmp_path):
    out = tmp_path / "report.sarif"
    code = lint_main([str(FIXTURES / "taint_violations.py"),
                      "--rules", "taint", "--sarif", str(out)])
    assert code == 1  # findings still fail the run
    document = json.loads(out.read_text())
    assert document["version"] == "2.1.0"


# -- baseline gating ------------------------------------------------------


def test_fingerprint_ignores_checkout_root_and_lines():
    a = Finding(rule="r", path="/ci/build/src/repro/core/x.py", line=10,
                message="m")
    b = Finding(rule="r", path="src/repro/core/x.py", line=99,
                message="m")
    assert normalized_path(a.path) == "repro/core/x.py"
    assert fingerprint(a) == fingerprint(b)


def test_baseline_roundtrip_gates_only_new_findings(tmp_path):
    report = taint_report("taint_violations.py")
    baseline_path = tmp_path / "baseline.json"
    write_baseline(report, baseline_path)
    assert load_baseline(baseline_path)
    # Same findings: everything baselined, gate passes.
    fresh, exit_code = apply_baseline(report, baseline_path)
    assert fresh == [] and exit_code == 0
    # A new finding beyond the snapshot fails the gate.
    extra = Finding(rule="taint-unverified-sink", path="new.py", line=1,
                    message="brand new")
    grown = LintReport(findings=report.findings + [extra],
                       modules_checked=report.modules_checked,
                       rules_run=report.rules_run)
    fresh, exit_code = apply_baseline(grown, baseline_path)
    assert [f.message for f in fresh] == ["brand new"]
    assert exit_code == 1


def test_baseline_counts_duplicate_fingerprints(tmp_path):
    finding = Finding(rule="r", path="x.py", line=1, message="dup")
    one = LintReport(findings=[finding])
    baseline_path = tmp_path / "baseline.json"
    write_baseline(one, baseline_path)
    twice = LintReport(findings=[
        finding, Finding(rule="r", path="x.py", line=5, message="dup")])
    fresh, exit_code = apply_baseline(twice, baseline_path)
    assert len(fresh) == 1 and exit_code == 1


def test_baseline_cli_write_then_gate(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    target = str(FIXTURES / "taint_violations.py")
    assert lint_main([target, "--rules", "taint",
                      "--write-baseline", str(baseline_path)]) == 0
    assert lint_main([target, "--rules", "taint",
                      "--baseline", str(baseline_path)]) == 0


# -- incremental cache ----------------------------------------------------


def test_cache_replays_unchanged_runs(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import time\n\n\ndef f():\n"
                      "    return time.time()\n")
    cache_dir = tmp_path / "cache"
    cold = run_lint([source], cache_dir=cache_dir)
    assert not cold.from_cache
    assert any(f.rule == "det-wallclock" for f in cold.findings)
    warm = run_lint([source], cache_dir=cache_dir)
    assert warm.from_cache
    assert [f.to_json() for f in warm.findings] == \
        [f.to_json() for f in cold.findings]
    assert warm.exit_code == cold.exit_code


def test_cache_misses_on_content_change(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import time\n\n\ndef f():\n"
                      "    return time.time()\n")
    cache_dir = tmp_path / "cache"
    run_lint([source], cache_dir=cache_dir)
    source.write_text("def f():\n    return 1\n")
    after = run_lint([source], cache_dir=cache_dir)
    assert not after.from_cache
    assert after.findings == []


def test_cache_misses_on_rule_selection_change(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import time\n")
    cache_dir = tmp_path / "cache"
    full = run_lint([source], cache_dir=cache_dir)
    assert not full.from_cache
    partial = run_lint([source], only={"taint"}, cache_dir=cache_dir)
    assert not partial.from_cache
    assert partial.rules_run == ("taint",)


def test_cache_keeps_single_entry(tmp_path):
    cache_dir = tmp_path / "cache"
    source = tmp_path / "mod.py"
    for body in ("x = 1\n", "x = 2\n", "x = 3\n"):
        source.write_text(body)
        run_lint([source], cache_dir=cache_dir)
    assert len(list(cache_dir.glob("lint-*.json"))) == 1
