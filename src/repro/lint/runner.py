"""Command-line front end for :mod:`repro.lint`.

Invoked as ``python -m repro.lint``, via the ``repro-lint`` console
script, or through ``repro lint`` (see :mod:`repro.cli`).  Exit code 0
means zero unwaived findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import RULE_WAIVER_DEAD, run_lint
from repro.lint.findings import LintReport
from repro.lint.rules import all_rules


def default_target() -> Path:
    """The installed ``repro`` package — what ``repro-lint`` with no
    arguments scans."""
    import repro

    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    """Standalone argument parser for the ``repro-lint`` script."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=("Protocol-aware static analysis: determinism, "
                     "quorum arithmetic, wire-registry and handler "
                     "completeness, and Byzantine taint flow."))
    add_lint_arguments(parser)
    return parser


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach lint options to ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or package roots to scan (default: the installed "
             "repro package)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule packs or rule ids to run "
             "(default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list available rule packs and rule ids, then exit")
    parser.add_argument(
        "--show-waived", action="store_true",
        help="include waived findings in the text report")
    parser.add_argument(
        "--sarif", type=Path, default=None, metavar="FILE",
        help="additionally write the report as SARIF 2.1.0 to FILE")
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="gate against a baseline snapshot: exit nonzero only for "
             "findings not recorded in FILE")
    parser.add_argument(
        "--write-baseline", type=Path, default=None, metavar="FILE",
        help="write the current active findings as a baseline "
             "snapshot to FILE and exit 0")
    parser.add_argument(
        "--cache", type=Path, default=None, metavar="DIR",
        help="incremental cache directory: replay the previous report "
             "when no scanned file changed")


def list_rules() -> str:
    """Human-readable listing of rule packs and their rule ids."""
    lines: List[str] = []
    for rule in all_rules():
        lines.append(f"{rule.pack}: {', '.join(rule.rule_ids)}")
    lines.append(f"engine: {RULE_WAIVER_DEAD}")
    return "\n".join(lines)


def render_text(report: LintReport, show_waived: bool = False) -> str:
    """Text report: one line per finding plus a summary line."""
    lines: List[str] = []
    for finding in report.findings:
        if finding.waived and not show_waived:
            continue
        lines.append(finding.render())
    lines.append(
        f"{len(report.active)} finding(s), {len(report.waived)} waived, "
        f"{report.modules_checked} module(s) checked")
    return "\n".join(lines)


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns exit code."""
    if args.list_rules:
        print(list_rules())
        return 0
    paths: Sequence[Path] = args.paths or [default_target()]
    only = None
    if args.rules:
        only = {part.strip() for part in args.rules.split(",")
                if part.strip()}
        known = {RULE_WAIVER_DEAD}
        for rule in all_rules():
            known.add(rule.pack)
            known.update(rule.rule_ids)
        unknown = sorted(only - known)
        if unknown:
            print(f"repro-lint: unknown rule(s): {', '.join(unknown)} "
                  f"(see --list-rules)", file=sys.stderr)
            return 2
    try:
        report = run_lint(paths, only=only,
                          cache_dir=getattr(args, "cache", None))
    except FileNotFoundError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "sarif", None) is not None:
        from repro.lint.sarif import render_sarif

        args.sarif.parent.mkdir(parents=True, exist_ok=True)
        args.sarif.write_text(render_sarif(report), encoding="utf-8")
    if getattr(args, "write_baseline", None) is not None:
        from repro.lint.baseline import write_baseline

        write_baseline(report, args.write_baseline)
        print(f"repro-lint: baseline written to {args.write_baseline} "
              f"({len(report.active)} finding(s))")
        return 0
    if getattr(args, "baseline", None) is not None:
        from repro.lint.baseline import apply_baseline

        try:
            fresh, exit_code = apply_baseline(report, args.baseline)
        except FileNotFoundError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
        for finding in fresh:
            print(finding.render())
        print(f"{len(fresh)} new finding(s) beyond baseline, "
              f"{len(report.active)} active total, "
              f"{report.modules_checked} module(s) checked")
        return exit_code
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(render_text(report, show_waived=args.show_waived))
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-lint`` console-script entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_from_args(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
