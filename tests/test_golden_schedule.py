"""Golden-schedule regression tests: the delivery core is schedule-preserving.

The pending-message bag, the incremental scheduler bookkeeping, and every
hot-path cache in the kernels are *pure* performance changes: for a fixed
seed they must not alter a single scheduler decision.  These tests replay
the seeded workloads pinned in ``tests/fixtures/golden_schedules.json``
(generated by ``tools/gen_golden_schedules.py``) and assert the full event
log — deliveries included — hashes to the recorded digest, byte for byte.

A digest mismatch means a refactor changed either what messages are sent,
the order they are enqueued, or the scheduler's RNG call sequence.  That
is a correctness bug unless the schedule change was *intended*; only then
should the fixture be regenerated.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import gen_golden_schedules  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "fixtures" / "golden_schedules.json"


def _load_cases():
    document = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return document["cases"]


_CASES = _load_cases()


def test_fixture_covers_fifo_random_and_priority_schedulers():
    kinds = {case["spec"]["scheduler"] for case in _CASES}
    assert {"fifo", "random", "slow-parties"} <= kinds


@pytest.mark.parametrize("case", _CASES,
                         ids=[case["spec"]["name"] for case in _CASES])
def test_replayed_schedule_matches_golden_digest(case):
    fresh = gen_golden_schedules.run_case(dict(case["spec"]))
    assert fresh["events"] == case["events"], (
        f"event count changed: {fresh['events']} != {case['events']}")
    assert fresh["head"] == case["head"]
    assert fresh["tail"] == case["tail"]
    assert fresh["order_sha256"] == case["order_sha256"], (
        "delivery order changed — some message went to another party, "
        "at another time, or not at all")
    assert fresh["sha256"] == case["sha256"], (
        "schedule digest changed — the delivery core is no longer "
        "schedule-preserving (or an intended schedule change needs a "
        "fixture regeneration via tools/gen_golden_schedules.py)")


def test_replay_is_deterministic_within_process():
    """Two replays in one process agree — caches must not leak schedule
    state across runs (the determinism claim of the kernel caches)."""
    spec = dict(_CASES[1]["spec"])
    first = gen_golden_schedules.run_case(dict(spec))
    second = gen_golden_schedules.run_case(dict(spec))
    assert first["sha256"] == second["sha256"]
