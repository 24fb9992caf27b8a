"""Machine-readable benchmark emission and the ``repro bench`` harness.

The experiments print human-readable tables; performance tracking needs
the same numbers as data.  When a bench directory is configured —
``repro experiments --bench-dir DIR`` or the ``REPRO_BENCH_DIR``
environment variable — :func:`emit_bench` writes each experiment's
structured rows as ``BENCH_<name>.json`` into it; with no directory
configured it is a no-op, so experiments stay dependency- and
side-effect-free by default.

The JSON payload round-trips dataclass rows (via
``dataclasses.asdict``), :class:`~repro.common.ids.PartyId` values
(as their printed names), and byte strings (as length placeholders).

This module also hosts the ``repro bench`` runners: micro benchmarks
over the data-plane kernels (GF matrix-vector products, repeated erasure
decodes, Merkle trees, hashing, wire serialization) and macro benchmarks
running end-to-end ``Atomic`` write/read workloads at several cluster
sizes.  All workloads are seeded and deterministic, so a baseline row
and an after row measure the *same* logical schedule — only the wall
clock differs.  Wall-clock reads go through :mod:`repro.obs.clock`, the
library's only sanctioned real-time source.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.common.ids import PartyId
from repro.obs.clock import wall_seconds

#: environment variable naming the directory ``BENCH_*.json`` files go to
BENCH_ENV = "REPRO_BENCH_DIR"


def bench_dir() -> Optional[Path]:
    """The configured bench output directory, or ``None`` if benching
    is disabled."""
    configured = os.environ.get(BENCH_ENV, "").strip()
    return Path(configured) if configured else None


def to_jsonable(value: Any) -> Any:
    """Convert experiment payloads (dataclasses, PartyIds, bytes,
    containers) to JSON-serializable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    if isinstance(value, bytes):
        return {"bytes": len(value)}
    if isinstance(value, PartyId):
        return str(value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def emit_bench(name: str, payload: Any,
               directory: Optional[Path] = None) -> Optional[Path]:
    """Write ``BENCH_<name>.json`` into the bench directory.

    ``directory`` overrides the environment configuration; with neither
    set, nothing is written and ``None`` is returned.  Returns the path
    written otherwise.
    """
    target_dir = directory if directory is not None else bench_dir()
    if target_dir is None:
        return None
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"BENCH_{name}.json"
    document = {"bench": name, "data": to_jsonable(payload)}
    path.write_text(json.dumps(document, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    return path


# -- the ``repro bench`` harness ------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    """One benchmark measurement: a named kernel at fixed parameters.

    ``seconds`` is the total wall time for ``iterations`` repetitions;
    ``per_iteration_us`` is derived so rows stay self-describing when
    compared across files with different iteration counts.
    """

    name: str
    params: Dict[str, Any]
    iterations: int
    seconds: float
    per_iteration_us: float = field(init=False)

    def __post_init__(self) -> None:
        per_iter = (self.seconds / self.iterations) * 1e6 \
            if self.iterations else 0.0
        object.__setattr__(self, "per_iteration_us", per_iter)


def _timed(name: str, params: Dict[str, Any], iterations: int,
           body: Callable[[], Any]) -> BenchRow:
    """Run ``body`` ``iterations`` times under the wall clock."""
    start = wall_seconds()
    for _ in range(iterations):
        body()
    elapsed = wall_seconds() - start
    return BenchRow(name=name, params=params, iterations=iterations,
                    seconds=elapsed)


def _micro_value(size: int) -> bytes:
    """A deterministic pseudo-random-looking value of ``size`` bytes."""
    pattern = bytes((i * 131 + 17) % 256 for i in range(251))
    repeats = size // len(pattern) + 1
    return (pattern * repeats)[:size]


def run_micro_benchmarks(quick: bool = False) -> List[BenchRow]:
    """Kernel microbenchmarks: erasure coding, hashing, serialization.

    ``micro.decode_repeated`` decodes the *same* index subset over and
    over — the dominant access pattern of the F1/F2/F3 sweeps, where the
    chosen k-subsets recur constantly — so it measures the decode-plan
    cache directly.  The subset deliberately mixes systematic and parity
    indices so a matrix solve is actually exercised.
    """
    from repro.common.serialization import encoded_size
    from repro.crypto.hashing import hash_vector
    from repro.crypto.merkle import MerkleTree
    from repro.erasure.coder import ErasureCoder
    from repro.net.message import Message
    from repro.common.ids import client_id, server_id

    n, k = 16, 6
    value = _micro_value(64 * 1024)
    coder = ErasureCoder(n, k)
    blocks = coder.encode(value)
    # Half systematic, half parity (1-based indices): forces a solve.
    mixed = [1, 2, 3, 14, 15, 16]
    mixed_blocks = [(index, blocks[index - 1]) for index in mixed]
    # Distinct payloads decoded round-robin: every call sees fresh block
    # contents (so value-level memoization cannot hit) but the same index
    # subset (so a decode-plan cache can) — the kernel-speed row.
    fresh_value_bytes = 16 * 1024
    fresh = []
    for variant in range(64):
        variant_value = bytes([variant]) + _micro_value(
            fresh_value_bytes - 1)
        variant_blocks = coder.encode(variant_value)
        fresh.append([(index, variant_blocks[index - 1])
                      for index in mixed])
    fresh_cursor = [0]

    def _next_fresh():
        supplied = fresh[fresh_cursor[0] % len(fresh)]
        fresh_cursor[0] += 1
        return coder.decode(supplied)

    scale = 1 if quick else 20
    rows = [
        _timed("micro.gf_matvec_encode",
               {"n": n, "k": k, "value_bytes": len(value)},
               3 * scale, lambda: coder.encode(value)),
        _timed("micro.decode_repeated",
               {"n": n, "k": k, "indices": list(mixed),
                "value_bytes": len(value)},
               10 * scale, lambda: coder.decode(mixed_blocks)),
        _timed("micro.decode_fresh",
               {"n": n, "k": k, "indices": list(mixed),
                "value_bytes": fresh_value_bytes, "variants": len(fresh)},
               10 * scale, _next_fresh),
        _timed("micro.merkle_tree",
               {"leaves": n, "leaf_bytes": len(blocks[0])},
               25 * scale, lambda: MerkleTree(blocks).proof(0)),
        _timed("micro.hash_vector_repeated",
               {"blocks": n, "block_bytes": len(blocks[0])},
               25 * scale, lambda: hash_vector(blocks)),
    ]
    payload = ("reg|disp.oid1", "send", (7, blocks[0], tuple(
        hash_vector(blocks))))
    message = Message(tag="reg", mtype="store", sender=client_id(1),
                      recipient=server_id(1), payload=payload, msg_id=0)
    rows.append(_timed("micro.message_wire_size",
                       {"payload_blocks": 1, "digests": n},
                       200 * scale, message.wire_size))
    rows.append(_timed("micro.encoded_size_raw",
                       {"payload_blocks": 1, "digests": n},
                       20 * scale, lambda: encoded_size(payload)))
    return rows


def _macro_case(n: int, seed: int, value_size: int,
                protocol: str = "atomic") -> BenchRow:
    from repro.cluster import run_register_case

    t = (n - 1) // 3
    start = wall_seconds()
    _, cluster = run_register_case(protocol, n, t, seed=seed,
                                   value_size=value_size)
    elapsed = wall_seconds() - start
    metrics = cluster.simulator.metrics
    return BenchRow(
        name=f"macro.{protocol}_rw",
        params={"n": n, "t": t, "k": cluster.config.k, "writes": 3,
                "reads": 3,
                "value_bytes": value_size,
                "messages": metrics.total_messages,
                "message_bytes": metrics.total_bytes},
        iterations=1, seconds=elapsed)


def run_macro_benchmarks(quick: bool = False) -> List[BenchRow]:
    """End-to-end write/read workloads at several ``n``.

    Each case runs a fixed seeded workload (3 writes + 3 reads from 2
    clients under a seeded random scheduler), so schedules — and thus
    message counts — are identical across baseline/after runs.  Both
    the full-value ``atomic`` path and the metadata/data-separated
    ``atomic_md`` path run the same workload, making the per-row
    ``message_bytes`` params a deterministic communication-complexity
    comparison (``repro bench --compare`` joins rows by name+params).
    """
    sizes = [4] if quick else [4, 10, 16]
    rows = [_macro_case(n, seed=n, value_size=4096) for n in sizes]
    rows.extend(_macro_case(n, seed=n, value_size=4096,
                            protocol="atomic_md") for n in sizes)
    return rows


def run_lint_benchmarks(quick: bool = False) -> List[BenchRow]:
    """Wall time of the full ``repro lint`` suite over the package.

    Static-analysis cost rides in tier-1 (the lint gate runs every
    rule pack including interprocedural taint flow), so it is tracked
    like any other kernel: one row for a cold full run, one for a
    cache-served run, making both the analysis cost and the
    incremental-cache payoff visible in ``BENCH_*.json`` diffs.
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.lint import run_lint
    from repro.lint.runner import default_target

    target = default_target()
    report = run_lint([target])  # warm the parser-independent imports
    params = {"modules": report.modules_checked,
              "rules": sorted(set(report.rules_run))}
    iterations = 1 if quick else 3
    rows = [_timed("lint.full_suite", params, iterations,
                   lambda: run_lint([target]))]
    with tempfile.TemporaryDirectory() as scratch:
        cache_dir = _Path(scratch)
        run_lint([target], cache_dir=cache_dir)  # populate
        rows.append(_timed("lint.cached_suite", params, iterations,
                           lambda: run_lint([target],
                                            cache_dir=cache_dir)))
    return rows


def compare_rows(baseline: List[Dict[str, Any]],
                 after: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Join two row lists on ``(name, params)`` and compute speedups.

    Rows are matched by name plus the workload-shaping parameters (run
    statistics such as message counts are part of the row but identical
    across matched runs by construction).  Returns one record per match
    with the baseline/after per-iteration times and their ratio.
    """
    _RUN_STATS = {"messages", "message_bytes"}

    def key(row: Dict[str, Any]):
        params = row.get("params", {})
        shaped = {key: value for key, value in sorted(params.items())
                  if key not in _RUN_STATS
                  and not isinstance(value, (list, dict))}
        return (row["name"], tuple(shaped.items()))

    after_by_key = {key(row): row for row in after}
    comparisons = []
    for row in baseline:
        other = after_by_key.get(key(row))
        if other is None:
            continue
        base_us = row["per_iteration_us"]
        after_us = other["per_iteration_us"]
        comparisons.append({
            "name": row["name"],
            "params": row["params"],
            "baseline_us": base_us,
            "after_us": after_us,
            "speedup": (base_us / after_us) if after_us else None,
        })
    return comparisons


def regressions(comparisons: List[Dict[str, Any]],
                tolerance_pct: float) -> List[Dict[str, Any]]:
    """The comparisons whose ``after`` timing regressed beyond the
    tolerance: ``after_us > baseline_us * (1 + tolerance_pct / 100)``.

    Feeds ``repro bench --compare --check``: CI gates on an empty
    return.  Each returned record is the comparison plus its
    ``regression_pct`` (how far past baseline the after timing landed).
    """
    allowed = 1.0 + tolerance_pct / 100.0
    flagged = []
    for record in comparisons:
        base_us = record["baseline_us"]
        after_us = record["after_us"]
        if after_us is None or not base_us:
            continue
        if after_us > base_us * allowed:
            entry = dict(record)
            entry["regression_pct"] = round(
                (after_us / base_us - 1.0) * 100.0, 2)
            flagged.append(entry)
    return flagged
