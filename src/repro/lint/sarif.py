"""SARIF 2.1.0 export for :mod:`repro.lint` reports.

SARIF (Static Analysis Results Interchange Format) is the
machine-readable format CI platforms ingest for code-scanning
annotations.  The export here is deliberately minimal — one run, one
result per finding, waived findings carried as suppressed results —
and deterministic: findings are already sorted by
:meth:`repro.lint.findings.Finding.sort_key` and the JSON is dumped
with sorted keys, so the file is byte-stable across runs.

Each result carries the same ``partialFingerprints`` value the
``--baseline`` gate uses (see :mod:`repro.lint.baseline`), so baseline
tooling and SARIF consumers agree on finding identity.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.baseline import fingerprint
from repro.lint.findings import Finding, LintReport

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: repro.lint severities -> SARIF result levels
_LEVELS = {"error": "error", "warning": "warning"}


def _result(finding: Finding) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {"startLine": finding.line},
            },
        }],
        "partialFingerprints": {
            "reproLint/v1": fingerprint(finding),
        },
    }
    if finding.waived:
        # Inline ``# lint: disable=`` waivers map to in-source
        # suppressions, so CI dashboards show them as reviewed.
        result["suppressions"] = [{"kind": "inSource"}]
    return result


def to_sarif(report: LintReport) -> Dict[str, object]:
    """The SARIF document for ``report`` as a JSON-ready dict."""
    rule_ids = sorted({f.rule for f in report.findings})
    rules: List[Dict[str, object]] = [
        {"id": rule_id} for rule_id in rule_ids]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://example.invalid/repro-lint",
                    "rules": rules,
                },
            },
            "results": [_result(f) for f in report.findings],
        }],
    }


def render_sarif(report: LintReport) -> str:
    """The SARIF document as deterministic, indented JSON text."""
    return json.dumps(to_sarif(report), indent=2, sort_keys=True) + "\n"
