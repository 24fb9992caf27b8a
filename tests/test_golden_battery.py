"""Golden battery tables: every experiment prints and records what it did.

Replays each experiment of the battery at both scales and compares its
rendered tables and the sha256 of its results with the records pinned
in ``tests/fixtures/golden_battery.json`` (generated by
``tools/gen_golden_battery.py``).  A mismatch means a harness change
moved a printed table or a BENCH document; regenerate the fixture only
when that change is intended.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import gen_golden_battery  # noqa: E402

from repro.experiments.battery import EXPERIMENTS  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "fixtures" / "golden_battery.json"


def test_fixture_pins_every_experiment_but_f8_at_both_scales():
    entries = json.loads(FIXTURE.read_text(encoding="utf-8"))["entries"]
    expected = [(experiment.id, fast) for fast in (False, True)
                for experiment in EXPERIMENTS if experiment.id != "F8"]
    assert [(entry["id"], entry["fast"]) for entry in entries] == expected


def test_regenerated_battery_matches_the_fixture():
    fresh = gen_golden_battery.records()
    committed = FIXTURE.read_text(encoding="utf-8")
    moved = gen_golden_battery.moved_fields(
        fresh, json.loads(committed)["entries"])
    assert moved == [], f"battery output moved: {moved}"
    assert gen_golden_battery.render_document(fresh) == committed


def test_moved_fields_names_the_entry_and_field():
    entries = json.loads(FIXTURE.read_text(encoding="utf-8"))["entries"]
    tampered = [dict(entry) for entry in entries]
    target = next(entry for entry in tampered
                  if entry["id"] == "F4" and entry["fast"])
    target["text"] += "\n"
    assert gen_golden_battery.moved_fields(entries, tampered) == [
        "F4 --fast: text"]
