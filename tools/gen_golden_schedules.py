"""Regenerate the golden-schedule fixtures (tests/fixtures/golden_schedules.json).

The fixtures pin, for a handful of seeded workloads, a canonical digest of
the simulator's full event log (deliveries included).  The golden-schedule
regression tests replay the same workloads and assert the digests match,
which proves scheduling-core refactors (the pending-bag, scheduler
incrementalisation) are *schedule-preserving*: for a fixed seed the refactor
may not change a single delivery choice.

Run from the repo root::

    PYTHONPATH=src python tools/gen_golden_schedules.py

Beside ``sha256`` each case pins ``order_sha256``: the same digest over
``(time, party, kind, tag, action)`` with every payload dropped.  A change
that resizes payloads but delivers the same messages to the same parties
in the same order moves ``sha256`` and leaves ``order_sha256`` alone,
which is what makes a payload-only re-pin provable.

``--check`` regenerates in memory and exits 1, writing nothing, when
any record differs from the committed fixture, and names each case and
field that moved.

Only regenerate when a schedule change is *intended* (e.g. a new scheduler
feature that legitimately alters delivery order); note the reason in the
commit message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.chaos import FaultPlan, SchedulerSpec  # noqa: E402
from repro.chaos.plan import ByzantineSpec  # noqa: E402
from repro.cluster import PROTOCOLS, run_register_case  # noqa: E402
from repro.faults.byzantine_servers import BYZANTINE_BEHAVIOURS  # noqa: E402

FIXTURE = REPO / "tests" / "fixtures" / "golden_schedules.json"


def empty_plan(spec: dict) -> FaultPlan:
    """A plan with no message rules, carrying the case's scheduler
    (seeded, like the workload, by ``seed``; every case pins
    ``scheduler_seed`` to the same value) and, when the case names a
    ``byzantine`` behaviour, that behaviour at server ``n``."""
    byzantine = ()
    if "byzantine" in spec:
        byzantine = (ByzantineSpec(server=spec["n"],
                                   behaviour=spec["byzantine"]),)
    return FaultPlan(
        name="none", faulty=tuple(entry.server for entry in byzantine),
        byzantine=byzantine, scheduler=SchedulerSpec(
            name=spec["scheduler"],
            slow_servers=tuple(spec.get("slow_servers", ()))))


def run_case(spec: dict, plan=None) -> dict:
    """Run one seeded workload and return its canonical schedule record.

    ``plan`` defaults to :func:`empty_plan` for every case not under the
    runner's own random scheduler or naming a Byzantine server, so the
    other random cases run with no fault injector at all; the chaos
    determinism tests pass ``empty_plan`` explicitly to prove the
    injector is byte-identical to no injector.
    """
    if plan is None and (spec["scheduler"] != "random"
                         or "byzantine" in spec):
        plan = empty_plan(spec)
    # Log every delivery, not just input/output actions: the golden digest
    # must pin the exact delivery order, not merely its observable effects.
    _, cluster = run_register_case(
        spec["protocol"], spec["n"], spec["t"], clients=spec["clients"],
        writes=spec["writes"], reads=spec["reads"], seed=spec["seed"],
        plan=plan, record_deliveries=True)
    events = cluster.simulator.event_log
    lines = [repr(event) for event in events]
    order = [repr((event.time, event.party, event.kind, event.tag,
                   event.action)) for event in events]
    return {
        "spec": spec,
        "events": len(lines),
        "sha256": _digest(lines),
        "order_sha256": _digest(order),
        "head": lines[:2],
        "tail": lines[-2:],
    }


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def moved_fields(records, committed) -> list:
    """``"case: field"`` for every pinned field that differs between
    fresh ``records`` and the ``committed`` ones (a case is matched by
    name; a case on one side only moves as a whole)."""
    pinned = {case["spec"]["name"]: case for case in committed}
    moved = []
    for record in records:
        name = record["spec"]["name"]
        old = pinned.pop(name, None)
        if old is None:
            moved.append(f"{name}: new case")
            continue
        moved.extend(f"{name}: {key}" for key in sorted(record)
                     if record[key] != old.get(key))
    moved.extend(f"{name}: case removed" for name in pinned)
    return moved


CASES = [
    {"name": "fifo_atomic_ns", "scheduler": "fifo", "protocol": "atomic_ns",
     "n": 4, "t": 1, "clients": 2, "writes": 3, "reads": 3, "seed": 7},
    {"name": "random_atomic_ns", "scheduler": "random",
     "scheduler_seed": 11, "protocol": "atomic_ns",
     "n": 4, "t": 1, "clients": 2, "writes": 3, "reads": 3, "seed": 11},
    {"name": "random_atomic", "scheduler": "random",
     "scheduler_seed": 5, "protocol": "atomic",
     "n": 7, "t": 2, "clients": 2, "writes": 2, "reads": 2, "seed": 5},
    {"name": "priority_atomic_ns", "scheduler": "slow-parties",
     "scheduler_seed": 13, "slow_servers": [1], "protocol": "atomic_ns",
     "n": 4, "t": 1, "clients": 2, "writes": 3, "reads": 3, "seed": 13},
]

#: Protocols that need ``n > 4t``; every other case runs at ``n = 4``.
_NEEDS_N_GT_4T = ("bazzi_ding", "goodson", "phalanx")


def _random_case(name: str, protocol: str, seed: int, **extra) -> dict:
    n = 5 if protocol in _NEEDS_N_GT_4T else 4
    return {"name": name, "scheduler": "random", "scheduler_seed": seed,
            "protocol": protocol, "n": n, "t": 1, "clients": 2,
            "writes": 2, "reads": 2, "seed": seed, **extra}


# One seeded random run per register server the atomic cases above do
# not already pin.
CASES += [_random_case(f"random_{protocol}", protocol, seed)
          for seed, protocol in enumerate(
              ("atomic_md", "martin", "bazzi_ding", "goodson", "phalanx",
               "no_listeners"), start=21)]

# One run per Byzantine behaviour and protocol it deviates from, the
# behaviour at server n: nothing else pins these schedules.
CASES += [_random_case(f"byz_{behaviour}_{protocol}", protocol, seed,
                       byzantine=behaviour)
          for seed, (behaviour, protocol) in enumerate(
              ((behaviour, protocol)
               for behaviour, (_, honest) in sorted(
                   BYZANTINE_BEHAVIOURS.items())
               for protocol, (server_cls, _) in sorted(PROTOCOLS.items())
               if issubclass(server_cls, honest)), start=31)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed fixture; "
                             "write nothing")
    args = parser.parse_args(argv)
    records = [run_case(dict(spec)) for spec in CASES]
    document = {
        "comment": "golden schedule digests; regenerate with "
                   "tools/gen_golden_schedules.py only when a schedule "
                   "change is intended",
        "cases": records,
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    for record in records:
        print(f"{record['spec']['name']:>34}: {record['events']:5d} events "
              f"{record['sha256'][:16]}")
    if args.check:
        committed = FIXTURE.read_text(encoding="utf-8")
        if text != committed:
            for field in moved_fields(records,
                                      json.loads(committed)["cases"]):
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
