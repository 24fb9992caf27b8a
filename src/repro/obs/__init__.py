"""Causal tracing and instrumentation plane.

The simulator realizes the paper's logical global clock — every delivery
is a point in time — and stamps every message with the delivery that
caused it.  This package turns those raw facts into answers to *why*
questions: why did this write take 9 rounds, which quorum wait dominated
this read, which phase of Disperse is the bottleneck under a hostile
scheduler.

Typical use::

    recorder = TraceRecorder().attach(cluster.simulator)
    ...run a workload...
    for span in build_spans(recorder):
        path = critical_path(recorder, span)
        print(span.name, path.attribution)

Modules: :mod:`~repro.obs.recorder` (causal capture),
:mod:`~repro.obs.spans` (operation/phase spans),
:mod:`~repro.obs.critical_path` (happens-before latency attribution),
:mod:`~repro.obs.instruments` (counters/gauges/histograms),
:mod:`~repro.obs.timeseries` (windowed tick-bucket rollups),
:mod:`~repro.obs.health` (per-server suspicion scoring),
:mod:`~repro.obs.slo` (declarative objectives with burn-rate alerts),
:mod:`~repro.obs.export` (Perfetto / JSONL / text / HTML /
Prometheus), :mod:`~repro.obs.bench` (``BENCH_*.json`` emission), and
:mod:`~repro.obs.clock` (the only module allowed to read wall time).
"""

from repro.obs.bench import BENCH_ENV, bench_dir, emit_bench, to_jsonable
from repro.obs.clock import WallTimer, wall_seconds
from repro.obs.critical_path import (
    CriticalPath,
    PathHop,
    attribution_summary,
    critical_path,
)
from repro.obs.export import (
    export_health_html,
    export_perfetto,
    export_prometheus,
    export_trace_jsonl,
    health_dashboard,
    operation_breakdown_lines,
    text_report,
)
from repro.obs.health import DEFAULT_WEIGHTS, HealthMonitor, shard_of_tag
from repro.obs.instruments import Counter, Gauge, Histogram, Registry
from repro.obs.planes import (
    DATA_PLANE_MTYPES,
    PLANE_DATA,
    PLANE_METADATA,
    TRANSPORT_MTYPES,
    PlaneTraffic,
    operation_plane_traffic,
    plane_of_mtype,
    plane_traffic,
)
from repro.obs.recorder import MessageRecord, QuorumRelease, TraceRecorder
from repro.obs.slo import SloSpec, SloTracker, default_slos, evaluate_slos
from repro.obs.timeseries import Digest, Series, TimeSeriesStore
from repro.obs.spans import (
    KIND_OPERATION,
    KIND_PHASE,
    PHASE_BLOCK_PUSH,
    PHASE_COMMIT,
    PHASE_DISPERSE,
    PHASE_LOCAL,
    PHASE_QUORUM_WAIT,
    PHASE_RBC,
    PHASE_RETRIEVE,
    PHASE_SIG_ROUND,
    PHASE_TS_QUERY,
    Span,
    build_spans,
    classify_phase,
    operation_records,
)

__all__ = [
    "BENCH_ENV",
    "bench_dir",
    "emit_bench",
    "to_jsonable",
    "WallTimer",
    "wall_seconds",
    "CriticalPath",
    "PathHop",
    "attribution_summary",
    "critical_path",
    "export_health_html",
    "export_perfetto",
    "export_prometheus",
    "export_trace_jsonl",
    "health_dashboard",
    "operation_breakdown_lines",
    "text_report",
    "DEFAULT_WEIGHTS",
    "HealthMonitor",
    "shard_of_tag",
    "SloSpec",
    "SloTracker",
    "default_slos",
    "evaluate_slos",
    "Digest",
    "Series",
    "TimeSeriesStore",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "MessageRecord",
    "QuorumRelease",
    "TraceRecorder",
    "DATA_PLANE_MTYPES",
    "PLANE_DATA",
    "PLANE_METADATA",
    "TRANSPORT_MTYPES",
    "PlaneTraffic",
    "operation_plane_traffic",
    "plane_of_mtype",
    "plane_traffic",
    "KIND_OPERATION",
    "KIND_PHASE",
    "PHASE_BLOCK_PUSH",
    "PHASE_COMMIT",
    "PHASE_DISPERSE",
    "PHASE_LOCAL",
    "PHASE_QUORUM_WAIT",
    "PHASE_RBC",
    "PHASE_RETRIEVE",
    "PHASE_SIG_ROUND",
    "PHASE_TS_QUERY",
    "Span",
    "build_spans",
    "classify_phase",
    "operation_records",
]
