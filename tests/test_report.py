"""The markdown report generator."""

import dataclasses

from repro.experiments import battery, report


@dataclasses.dataclass
class Inner:
    count: int
    share: float


@dataclasses.dataclass
class Row:
    name: str
    ok: bool
    inner: Inner


def test_rows_to_markdown_flattens_nested_dataclasses():
    rows = [Row(name="a", ok=True, inner=Inner(count=3, share=0.5)),
            Row(name="b", ok=False, inner=Inner(count=7, share=1.25))]
    table = report.rows_to_markdown(rows)
    lines = table.splitlines()
    assert lines[0] == "| name | ok | inner.count | inner.share |"
    assert "| a | yes | 3 | 0.50 |" in lines
    assert "| b | no | 7 | 1.25 |" in lines


def test_rows_to_markdown_empty():
    assert report.rows_to_markdown([]) == "*(no rows)*"


def test_sections_cover_all_experiments():
    """The report has one section per battery entry, in order."""
    headings = [line.split()[1]
                for line in report.generate(fast=True).splitlines()
                if line.startswith("## ")]
    assert headings == ["T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6",
                        "F7", "F8", "F9", "F10", "F11", "F12", "F13"]


def test_single_section_generates(tmp_path):
    results, _ = battery.run_experiment(battery.select(["F4"])[0],
                                        fast=True)
    table = report.rows_to_markdown(results["rows"])
    assert "non_skipping" in table


def test_main_writes_file(tmp_path, capsys, monkeypatch):
    # One tiny experiment keeps the test fast.
    monkeypatch.setattr(battery, "EXPERIMENTS", battery.select(["F4"]))
    output = tmp_path / "results.md"
    report.main(["-o", str(output)])
    content = output.read_text()
    assert content.startswith("# Measured results")
    assert "## F4" in content
