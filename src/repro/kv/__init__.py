"""repro.kv — a sharded multi-register key-value plane.

The paper's protocols implement one atomic register.  This package
scales them out to a key-value store without touching protocol code:

* a deterministic **directory** (:mod:`repro.kv.directory`) hash-maps
  keys to register shards, each an independent ``n``/``t`` deployment
  placed on a rotated slice of the fleet;
* a **multiplexing layer** (:mod:`repro.kv.mux`) runs one lazily
  instantiated protocol instance per shard inside each fleet process
  and batches all shard traffic for one destination into a single
  ``kv-batch`` wire envelope per activation — in the logical-tick
  simulator, batch density (inner messages per delivery) is exactly
  what multi-shard throughput buys;
* a **session layer** (:mod:`repro.kv.session`) gives clients ordered
  operation queues with write coalescing, bounded in-flight admission
  (:class:`~repro.common.errors.BackpressureError` on overflow), and
  bounded retries for operations stranded by chaos faults;
* a **load harness** (:mod:`repro.kv.bench`, ``repro kv-bench``) runs
  cases — shard counts under seeded Zipf/uniform workloads and optional
  fault plans — checks every key's history with the linearizability
  checker, and emits ``BENCH_*.json`` rows with per-phase latency
  attribution; the committed comparisons are entries of one table.

See ``docs/SCALING.md`` for the design rationale.
"""

from repro.kv.bench import (
    KvBenchRow,
    check_kv_histories,
    run_comparison,
    run_kv_case,
    session_history,
)
from repro.kv.cluster import (
    FailStopKvServer,
    KvCluster,
    build_kv_cluster,
    drive,
)
from repro.kv.directory import KvDirectory, ShardSpec, validate_key
from repro.kv.envelope import KV_TAG, KvEntry, MSG_KV_BATCH
from repro.kv.mux import KvClientHost, KvServer, ShardBus
from repro.kv.session import KvOpHandle, KvSession

__all__ = [
    "FailStopKvServer",
    "KV_TAG",
    "KvBenchRow",
    "KvClientHost",
    "KvCluster",
    "KvDirectory",
    "KvEntry",
    "KvOpHandle",
    "KvServer",
    "KvSession",
    "MSG_KV_BATCH",
    "ShardBus",
    "ShardSpec",
    "build_kv_cluster",
    "check_kv_histories",
    "drive",
    "run_comparison",
    "run_kv_case",
    "session_history",
    "validate_key",
]
