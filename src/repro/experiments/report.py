"""Markdown report generation: every experiment as a markdown document.

``python -m repro.experiments.report [--fast] [-o FILE]`` runs the full
evaluation and renders each experiment's structured rows as markdown
tables — the machine-written counterpart of the hand-annotated
EXPERIMENTS.md.  Useful for regenerating results after protocol changes
and diffing against the committed narrative.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Sequence, Tuple

from repro.experiments import battery


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def rows_to_markdown(rows: Sequence) -> str:
    """Render a list of flat dataclass instances as a markdown table.

    Nested dataclass fields (e.g. measured costs) are flattened one
    level with dotted column names.
    """
    if not rows:
        return "*(no rows)*"

    def flatten(row, prefix: str = "") -> List[Tuple[str, object]]:
        items: List[Tuple[str, object]] = []
        for field in dataclasses.fields(row):
            value = getattr(row, field.name)
            name = f"{prefix}{field.name}"
            if dataclasses.is_dataclass(value):
                items.extend(flatten(value, prefix=f"{name}."))
            else:
                items.append((name, value))
        return items

    first = flatten(rows[0])
    headers = [name for name, _ in first]
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(
            _cell(value) for _, value in flatten(row)) + " |")
    return "\n".join(lines)


def generate(fast: bool = False) -> str:
    """Run every experiment and return the full markdown report."""
    parts = ["# Measured results", "",
             "*Generated by `python -m repro.experiments.report`.*", ""]
    for experiment in battery.EXPERIMENTS:
        results, _ = battery.run_experiment(experiment, fast)
        parts += [f"## {experiment.id} — {experiment.heading}", ""]
        for index, step in enumerate(experiment.steps):
            result = results[step.key]
            if index:
                parts += [f"### {step.key}", ""]
            parts += [rows_to_markdown(result) if isinstance(result, list)
                      else str(result), ""]
    return "\n".join(parts)


def main(argv=None) -> None:
    """CLI entry: write the report to stdout or a file."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("-o", "--output", default=None,
                        help="write to a file instead of stdout")
    args = parser.parse_args(argv)
    report = generate(fast=args.fast)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(report)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report)


if __name__ == "__main__":
    main()
