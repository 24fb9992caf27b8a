"""Regenerate the golden-attribution fixtures (tests/fixtures/golden_spans.json).

The fixtures pin, for a handful of small seeded runs, a sha256 over the
canonical JSON of everything post-run attribution derives from a trace:
the operation/phase span tree (``build_spans``), the per-operation-kind
plane totals (``operation_plane_traffic``) and, for kv cases, the whole
bench row.  The golden-attribution regression test replays the same runs
and asserts the digests match, which proves changes to how the trace is
stored or queried (the recorder's per-operation index, the one-pass row
collection) are *attribution-preserving*: not one record may move between
operations, phases or planes.

Run from the repo root::

    PYTHONPATH=src python tools/gen_golden_spans.py

Beside each digest set the fixture pins ``shape_sha256``: the same span
tree, planes and row with every byte-valued field (``message_bytes``, the
plane byte totals, the ``*_bytes`` row columns) dropped.  A change that
resizes a payload but sends the same messages in the same order moves
``spans/planes/row_sha256`` and leaves ``shape_sha256`` alone, which is
what makes a byte-only re-pin provable.

``--check`` regenerates in memory and exits 1, writing nothing, when
any record differs from the committed fixture.

Only regenerate when an attribution change is *intended* (a new phase, a
new row column, a resized payload); note the reason in the commit message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cluster import run_register_case  # noqa: E402
from repro.kv.bench import run_kv_case  # noqa: E402
from repro.obs import (  # noqa: E402
    TraceRecorder,
    build_spans,
    operation_plane_traffic,
)
from repro.repair.bench import (  # noqa: E402
    CHURN_CASE,
    churn_columns,
    churn_storm_plan,
)

FIXTURE = REPO / "tests" / "fixtures" / "golden_spans.json"


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _shape(value):
    """``value`` with every ``*bytes`` key dropped, at any depth."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()
                if not key.endswith("bytes")}
    if isinstance(value, list):
        return [_shape(item) for item in value]
    return value


def span_json(span) -> dict:
    """One span (and its children) as plain JSON: every field, parties
    by name."""
    return {
        "name": span.name, "kind": span.kind, "tag": span.tag,
        "open_time": span.open_time, "close_time": span.close_time,
        "party": None if span.party is None else str(span.party),
        "messages": span.messages, "message_bytes": span.message_bytes,
        "annotations": span.annotations,
        "children": [span_json(child) for child in span.children],
    }


def _run_register(spec: dict):
    recorder = TraceRecorder()
    run_register_case(spec["protocol"], spec["n"], spec["t"],
                      clients=spec["clients"], writes=spec["writes"],
                      reads=spec["reads"], seed=spec["seed"],
                      tracer=recorder)
    return recorder, None


def _run_kv(spec: dict):
    row, cluster = run_kv_case(
        spec["shards"], n=spec["n"], t=spec["t"],
        protocol=spec["protocol"], sessions=spec["sessions"],
        keys=spec["keys"], ops=spec["ops"],
        write_ratio=spec["write_ratio"], seed=spec["seed"],
        cache_size=spec.get("cache_size", 0),
        lease_ticks=spec.get("lease_ticks", 0))
    (recorder,) = cluster.simulator.observers
    return recorder, row.to_json()


def _run_churn(spec: dict):
    plan = churn_storm_plan(spec["n"], spec["t"], seed=spec["seed"],
                            first_crash=spec["first_crash"],
                            stagger=spec["stagger"],
                            replace_after=spec["replace_after"])
    row, cluster = run_kv_case(
        spec["shards"], n=spec["n"], t=spec["t"],
        sessions=spec["sessions"], keys=spec["keys"], ops=spec["ops"],
        write_ratio=spec["write_ratio"], seed=spec["seed"],
        value_size=spec["value_size"], plan=plan, batch_size=2,
        **CHURN_CASE)
    (recorder,) = cluster.simulator.observers
    return recorder, {
        **churn_columns("churn+repair", cluster, stalled=False),
        **row.to_json()}


_RUNNERS = {"register": _run_register, "kv": _run_kv, "churn": _run_churn}


def run_case(spec: dict) -> dict:
    """Run one seeded case and return its canonical attribution record."""
    recorder, row = _RUNNERS[spec["kind"]](spec)
    spans = [span_json(span) for span in build_spans(recorder)]
    planes = {kind: totals.to_json() for kind, totals
              in operation_plane_traffic(recorder).items()}
    record = {
        "spec": spec,
        "records": len(recorder.messages),
        "spans": len(spans),
        "spans_sha256": _digest(spans),
        "planes_sha256": _digest(planes),
        "shape_sha256": _digest(_shape([spans, planes, row])),
    }
    if row is not None:
        record["row_sha256"] = _digest(row)
    return record


CASES = [
    {"name": "register_atomic", "kind": "register", "protocol": "atomic",
     "n": 4, "t": 1, "clients": 2, "writes": 3, "reads": 3, "seed": 5},
    {"name": "register_atomic_ns", "kind": "register",
     "protocol": "atomic_ns",
     "n": 4, "t": 1, "clients": 2, "writes": 3, "reads": 3, "seed": 11},
    {"name": "register_atomic_md", "kind": "register",
     "protocol": "atomic_md",
     "n": 4, "t": 1, "clients": 2, "writes": 3, "reads": 3, "seed": 13},
    {"name": "kv_atomic_4shards", "kind": "kv", "protocol": "atomic",
     "shards": 4, "n": 4, "t": 1, "sessions": 4, "keys": 16, "ops": 48,
     "write_ratio": 0.5, "seed": 3},
    {"name": "kv_atomic_md_cached", "kind": "kv", "protocol": "atomic_md",
     "shards": 2, "n": 4, "t": 1, "sessions": 2, "keys": 8, "ops": 96,
     "write_ratio": 0.1, "seed": 9, "cache_size": 4, "lease_ticks": 64},
    {"name": "kv_churn_repair_smoke", "kind": "churn", "shards": 2,
     "n": 7, "t": 2, "sessions": 2, "keys": 4, "ops": 48,
     "write_ratio": 0.5, "seed": 0, "value_size": 32,
     "first_crash": 20, "stagger": 80, "replace_after": 30},
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed fixture; "
                             "write nothing")
    args = parser.parse_args(argv)
    records = [run_case(dict(spec)) for spec in CASES]
    document = {
        "comment": "golden attribution digests; regenerate with "
                   "tools/gen_golden_spans.py only when an attribution "
                   "change is intended",
        "cases": records,
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    for record in records:
        print(f"{record['spec']['name']:>24}: {record['records']:6d} records "
              f"{record['spans']:4d} spans {record['spans_sha256'][:16]}")
    if args.check:
        if text != FIXTURE.read_text(encoding="utf-8"):
            print(f"{FIXTURE} is out of date")
            return 1
        print(f"{FIXTURE} unchanged")
        return 0
    FIXTURE.write_text(text, encoding="utf-8")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
