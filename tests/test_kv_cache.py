"""Session-cached reads, leases, revalidation, and read sharing.

The load-bearing guarantees tested here:

* **Lease adjacency** — a lease-served read is an interval clone of its
  cache anchor (same invoke/complete ticks, same value) and consumes no
  wire traffic; a session-observed write invalidates the entry eagerly,
  so a session never lease-serves a value it has since overwritten.
* **Revalidation safety** — a metadata-only revalidation round either
  proves the cached pair current (quorum maximum equals the cached
  TIMESTAMP) or falls back to a full protocol read; a cross-session
  writer is always detected because every ``n - t`` validate quorum
  shares an honest server with the write's metadata quorum.
* **Byzantine metadata** — a stale-metadata server cannot lower the
  quorum maximum (revalidation still succeeds); a forged-metadata
  server can only force the full-read fallback (a performance tax,
  never a safety loss).  Both cases stay linearizable end to end.
* **Read sharing** — gets of a key whose read or write is still queued
  join that operation; one wire operation settles every joined handle.
* **Schedule preservation** — caching defaults off, and a *cached* kv
  run must not perturb the single-register golden schedules.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SystemConfig
from repro.kv import (
    KvDirectory,
    build_kv_cluster,
    check_kv_histories,
    drive,
    run_kv_case,
)
from repro.kv.session_cache import SessionCache
from repro.lint import run_lint
from repro.lint.config import in_scope
from repro.workloads.kv import KvOp
from tests.kv_support import settle

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

FLEET = SystemConfig(n=4, t=1)


def _md_cluster(num_sessions=1, cache_size=8, lease_ticks=0,
                num_shards=2):
    directory = KvDirectory(FLEET, num_shards, shard_k=2)
    return build_kv_cluster(directory, protocol="atomic_md",
                            num_sessions=num_sessions,
                            cache_size=cache_size,
                            lease_ticks=lease_ticks)


# -- leases -------------------------------------------------------------------

def test_lease_hit_is_an_interval_clone_of_its_anchor():
    cluster = _md_cluster(lease_ticks=100_000)
    session = cluster.session(1)
    write = session.put("k001", b"v1")
    settle(cluster)  # the ack seeds the cache and opens the lease
    read = session.get("k001")
    assert read.done  # served locally at submission, no settle needed
    assert read.served == "lease"
    assert read.result == b"v1"
    assert read.attempts == 0  # never touched the wire
    assert read.invoke_time == write.invoke_time
    assert read.complete_time == write.complete_time
    assert session.cache.stats["lease_hits"] == 1
    check_kv_histories([session])


def test_write_during_lease_window_invalidates_eagerly():
    cluster = _md_cluster(lease_ticks=100_000)
    session = cluster.session(1)
    session.put("k001", b"v1")
    settle(cluster)
    assert session.get("k001").result == b"v1"  # lease hit
    session.put("k001", b"v2")  # invalidates: no stale lease serves
    read = session.get("k001")
    assert not read.done  # must go through the protocol again
    settle(cluster)
    assert read.result == b"v2"
    assert session.cache.stats["invalidations"] >= 1
    check_kv_histories([session])


def test_reads_queued_behind_a_write_inherit_its_lease_at_admission():
    """A read submitted while the write is queued joins it; a read
    submitted while the write is *in flight* queues, then is served
    from the freshly seeded lease when its turn to admit comes."""
    cluster = _md_cluster(lease_ticks=100_000)
    session = cluster.session(1)
    session.put("k001", b"v1")
    session.pump()  # write in flight: the sharing window is closed
    late = session.get("k001")
    assert not late.done
    settle(cluster)
    assert late.result == b"v1"
    assert late.served == "lease"
    check_kv_histories([session])


# -- revalidation -------------------------------------------------------------

def test_revalidation_confirms_an_unchanged_key_metadata_only():
    cluster = _md_cluster(lease_ticks=0)  # revalidation-only cache
    session = cluster.session(1)
    session.put("k001", b"v1")
    settle(cluster)
    read = session.get("k001")
    settle(cluster)
    assert read.result == b"v1"
    assert read.served == "revalidate"
    assert session.cache.stats["revalidations"] == 1
    assert session.cache.stats["revalidate_hits"] == 1
    assert session.cache.stats["revalidate_fallbacks"] == 0
    check_kv_histories([session])


def test_cross_session_write_forces_full_read_fallback():
    """The staleness case revalidation exists for: another session
    wrote the key, so the quorum maximum exceeds the cached TIMESTAMP
    and the session must re-read in full — never serve its stale pair."""
    cluster = _md_cluster(num_sessions=2, lease_ticks=0)
    alice, bob = cluster.sessions
    alice.put("k001", b"v1")
    settle(cluster)
    bob.put("k001", b"v2")
    settle(cluster)
    read = alice.get("k001")
    settle(cluster)
    assert read.result == b"v2"
    assert read.served is None  # completed as a full protocol read
    assert alice.cache.stats["revalidations"] == 1
    assert alice.cache.stats["revalidate_fallbacks"] == 1
    assert read.attempts == 2  # the validate round plus the fallback
    check_kv_histories(cluster.sessions)


def test_cache_without_metadata_plane_falls_back_to_full_reads():
    """Protocol ``atomic`` exposes no validate round: cached gets must
    degrade to plain reads (and never serve unvalidated entries)."""
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1, cache_size=8,
                               lease_ticks=0)
    session = cluster.session(1)
    session.put("k001", b"v1")
    settle(cluster)
    read = session.get("k001")
    settle(cluster)
    assert read.result == b"v1"
    assert read.served is None
    assert session.cache.stats["revalidations"] == 0
    check_kv_histories([session])


# -- read sharing -------------------------------------------------------------

def test_gets_join_a_still_queued_read():
    cluster = _md_cluster(lease_ticks=0)
    session = cluster.session(1)
    session.put("k002", b"v2")
    settle(cluster)
    first = session.get("k002")
    second = session.get("k002")  # joins first's queue slot
    assert len(session._queue) == 1
    assert second.coalesced
    settle(cluster)
    assert first.result == b"v2" and second.result == b"v2"
    assert session.cache.stats["shared_reads"] == 1
    check_kv_histories([session])


def test_get_joins_a_still_queued_write_and_returns_its_value():
    cluster = _md_cluster(lease_ticks=0)
    session = cluster.session(1)
    write = session.put("k003", b"v3")
    read = session.get("k003")  # write still queued: the read joins it
    assert len(session._queue) == 1
    assert read.coalesced
    settle(cluster)
    assert write.done and read.result == b"v3"
    assert session.cache.stats["shared_reads"] == 1
    check_kv_histories([session])


# -- chaos and Byzantine metadata ---------------------------------------------

def test_cached_run_under_chaos_drops_stays_linearizable():
    row, cluster = run_kv_case(4, protocol="atomic_md", sessions=2,
                               keys=8, ops=24, write_ratio=0.1,
                               plan="drops", seed=2, cache_size=8,
                               lease_ticks=64)
    assert row.linearizable
    assert row.completed == 24
    assert row.lease_hits + row.revalidations > 0  # cache exercised
    counters = cluster.simulator.chaos.instruments.snapshot()
    assert counters["chaos.injected[drop]"]["value"] > 0


def test_byzantine_stale_metadata_cannot_defeat_revalidation():
    """An understating liar cannot lower the quorum *maximum*, so
    revalidation still succeeds against the honest majority."""
    row, _ = run_kv_case(2, protocol="atomic_md", sessions=2, keys=4,
                         ops=24, write_ratio=0.1, seed=0,
                         byzantine="stale-meta", cache_size=8,
                         lease_ticks=0)
    assert row.linearizable
    assert row.plan == "byz-stale-meta"
    assert row.revalidations > 0
    assert row.revalidate_hits > 0


def test_byzantine_forged_metadata_only_forces_the_fallback():
    """An inflated TIMESTAMP makes rounds it reaches report a mismatch:
    the session falls back to full reads (a performance tax), and every
    history still linearizes — the forgery names no decodable version."""
    row, _ = run_kv_case(2, protocol="atomic_md", sessions=2, keys=4,
                         ops=24, write_ratio=0.1, seed=0,
                         byzantine="forged-meta", cache_size=8,
                         lease_ticks=0)
    assert row.linearizable
    assert row.plan == "byz-forged-meta"
    assert row.revalidations > 0
    assert row.revalidate_fallbacks > 0


# -- configuration and hygiene ------------------------------------------------

def test_cache_rejects_negative_shapes():
    with pytest.raises(ConfigurationError):
        SessionCache(capacity=-1)
    with pytest.raises(ConfigurationError):
        SessionCache(capacity=4, lease_ticks=-1)


def test_cache_capacity_is_bounded_lru():
    cache = SessionCache(capacity=2, lease_ticks=0)
    for index, key in enumerate(("a", "b", "c")):
        cache.seed(key, b"v", index, anchor_invoke=0, anchor_complete=1)
    assert len(cache) == 2
    assert cache.lookup("a") is None  # oldest evicted
    assert cache.lookup("c") is not None


def test_golden_schedules_byte_identical_after_cached_kv_run():
    """Exercising a *cached* kv cluster (leases, sharing, revalidation
    machinery all live) must not perturb the single-register golden
    schedules — and caching stays off by default everywhere else."""
    import gen_golden_schedules
    cluster = _md_cluster(lease_ticks=100_000)
    session = cluster.session(1)
    drive(cluster, [KvOp(1, "write", "k001", b"x"),
                    KvOp(1, "read", "k001")])
    assert session.get("k001").served == "lease"  # machinery was live
    fixture = json.loads(
        (REPO_ROOT / "tests" / "fixtures" /
         "golden_schedules.json").read_text(encoding="utf-8"))
    case = fixture["cases"][0]
    fresh = gen_golden_schedules.run_case(dict(case["spec"]))
    assert fresh["sha256"] == case["sha256"]


def test_session_cache_module_is_lint_scoped_and_clean():
    """The new module sits on the kv hot path: the determinism, quorum,
    handler, and taint packs must cover it, and it must lint clean."""
    for pack in ("determinism", "quorum", "handlers", "taint"):
        assert in_scope(pack, "repro.kv.session_cache"), pack
    report = run_lint([REPO_ROOT / "src" / "repro" / "kv" /
                       "session_cache.py"])
    rendered = "\n".join(f.render() for f in report.active)
    assert not report.active, rendered
