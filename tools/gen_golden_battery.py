"""Regenerate the golden battery tables (tests/fixtures/golden_battery.json).

The fixture pins, for every experiment of
:data:`repro.experiments.battery.EXPERIMENTS` at both scales (full and
``--fast``), the rendered text of :func:`~repro.experiments.battery.
run_experiment` and a sha256 of its results as JSON
(:func:`repro.obs.bench.to_jsonable`, the form BENCH documents carry).
F8 is left out: it times threshold signatures on the wall clock, so
no two runs agree.  The golden-battery test replays every entry and
asserts both pins, which proves a harness refactor leaves each printed
table and each BENCH document as it was.

Run from the repo root::

    PYTHONPATH=src python tools/gen_golden_battery.py

``--check`` regenerates in memory and exits 1, writing nothing, when
any record differs from the committed fixture, and names each entry
and field that moved.

Only regenerate when an experiment's output is *meant* to change; note
the reason in the commit message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.battery import EXPERIMENTS, run_experiment  # noqa: E402
from repro.obs.bench import to_jsonable  # noqa: E402

FIXTURE = REPO / "tests" / "fixtures" / "golden_battery.json"

#: experiments whose output depends on the wall clock
UNPINNED = ("F8",)


def run_entry(experiment, fast: bool) -> dict:
    """Run one experiment at one scale and return its pinned record."""
    results, text = run_experiment(experiment, fast)
    data = json.dumps(to_jsonable(results), sort_keys=True)
    return {
        "id": experiment.id,
        "fast": fast,
        "text": text,
        "results_sha256": hashlib.sha256(data.encode()).hexdigest(),
    }


def records() -> list:
    """Every pinned record: each experiment but F8, full then fast."""
    return [run_entry(experiment, fast)
            for fast in (False, True) for experiment in EXPERIMENTS
            if experiment.id not in UNPINNED]


def _name(record: dict) -> str:
    return f"{record['id']}{' --fast' if record['fast'] else ''}"


def moved_fields(fresh, committed) -> list:
    """``"entry: field"`` for every pinned field that differs between
    ``fresh`` records and the ``committed`` ones (an entry on one side
    only moves as a whole)."""
    pinned = {_name(record): record for record in committed}
    moved = []
    for record in fresh:
        name = _name(record)
        old = pinned.pop(name, None)
        if old is None:
            moved.append(f"{name}: new entry")
            continue
        moved.extend(f"{name}: {key}" for key in sorted(record)
                     if record[key] != old.get(key))
    moved.extend(f"{name}: entry removed" for name in pinned)
    return moved


def render_document(fresh) -> str:
    """The fixture's text for ``fresh`` records."""
    document = {
        "comment": "golden battery tables; regenerate with "
                   "tools/gen_golden_battery.py only when an experiment's "
                   "output is meant to change",
        "entries": fresh,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed fixture; "
                             "write nothing")
    args = parser.parse_args(argv)
    fresh = records()
    text = render_document(fresh)
    for record in fresh:
        print(f"{_name(record):>10}: {record['results_sha256'][:16]}")
    if args.check:
        committed = FIXTURE.read_text(encoding="utf-8")
        if text != committed:
            for field in moved_fields(fresh,
                                      json.loads(committed)["entries"]):
                print(f"moved: {field}")
            print(f"{FIXTURE} is out of date")
            return 1
        print(f"{FIXTURE} unchanged")
        return 0
    FIXTURE.write_text(text, encoding="utf-8")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
