"""Windowed time-series rollups over the logical clock.

The instrument registry keeps whole-run aggregates; SLO evaluation and
health dashboards need the *shape over time* instead: how many reads
completed in ticks 96..127, what the p99 write latency looked like over
the last eight buckets, when the in-flight gauge spiked.  This module
provides that layer: named series whose observations are rolled up into
fixed-width **tick buckets** (``bucket_index = time // bucket_ticks``),
ring-buffered so memory stays bounded no matter how long a campaign
runs.

Three series kinds mirror the instrument kinds:

* **counter** — per-bucket sums (operations completed, messages sent);
* **gauge** — per-bucket last/min/max of a sampled level;
* **digest** — per-bucket :class:`Digest` histogram digests: fixed
  power-of-two bins with exact count/sum/min/max, so per-window
  percentiles are estimated from bounded state instead of retained
  samples.

Everything runs on the logical clock and is deterministic: bucket
boundaries are pure integer arithmetic, snapshots iterate names in
sorted order, and two runs of the same seed produce byte-identical
rollups.  An observation that *straddles* a bucket edge (an operation
invoked in bucket 3 completing in bucket 4) is counted exactly once, in
the bucket of the time passed to :meth:`Series.record` — callers choose
the anchoring convention (completion time for latency samples).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_DIGEST = "digest"

_KINDS = (KIND_COUNTER, KIND_GAUGE, KIND_DIGEST)


class Digest:
    """Bounded-memory histogram digest with power-of-two bins.

    Bin ``i`` holds values whose integer part has bit length ``i``
    (``0``, ``1``, ``2..3``, ``4..7``, ...), so relative error of a
    percentile estimate is at most 2x — plenty for tick-latency SLOs —
    while memory stays a fixed ``_BINS`` counters regardless of sample
    count.  Exact count/sum/min/max ride alongside the bins.
    """

    __slots__ = ("bins", "count", "total", "min_value", "max_value")

    #: bins cover integer values up to ``2**(_BINS - 1) - 1``
    _BINS = 40

    def __init__(self) -> None:
        self.bins: List[int] = [0] * self._BINS
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def record(self, value: float) -> None:
        """Add one observation (non-negative; latencies and sizes)."""
        if value < 0:
            raise SimulationError(
                f"digest observations must be non-negative, got {value}")
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        index = int(value).bit_length()
        if index >= self._BINS:
            index = self._BINS - 1
        self.bins[index] += 1

    def merge(self, other: "Digest") -> None:
        """Fold ``other``'s observations into this digest (for window
        queries over several buckets)."""
        for index, amount in enumerate(other.bins):
            self.bins[index] += amount
        self.count += other.count
        self.total += other.total
        if other.min_value is not None and (
                self.min_value is None
                or other.min_value < self.min_value):
            self.min_value = other.min_value
        if other.max_value is not None and (
                self.max_value is None
                or other.max_value > self.max_value):
            self.max_value = other.max_value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank ``q``-th percentile estimate: the upper bound
        of the bin holding the sample of rank ``ceil(q/100 * count)``
        (at least 1), clamped to the exact extremes; 0 for an empty
        digest."""
        if not 0 <= q <= 100:
            raise SimulationError(f"percentile {q} out of range")
        if not self.count:
            return 0.0
        rank = max(1, -(-int(q * self.count) // 100))  # ceil, 1-based
        seen = 0
        for index, amount in enumerate(self.bins):
            seen += amount
            if seen >= rank:
                upper = 0 if index == 0 else (1 << index) - 1
                estimate = float(upper)
                break
        else:  # pragma: no cover - bins always sum to count
            estimate = float(self.max_value or 0)
        if self.max_value is not None:
            estimate = min(estimate, self.max_value)
        if self.min_value is not None:
            estimate = max(estimate, self.min_value)
        return estimate

    def summary(self) -> Dict[str, Any]:
        """Count/sum/mean/extremes/p50/p99 as plain JSON values."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class Series:
    """One named time-series: bucketed rollups of one observation kind.

    Buckets are opened lazily in time order (the logical clock never
    runs backward) and kept sparse — a bucket with no observations
    occupies no memory.  When more than ``max_buckets`` are live the
    oldest is evicted and counted in ``dropped_buckets``, bounding
    memory for arbitrarily long runs.
    """

    __slots__ = ("name", "kind", "bucket_ticks", "max_buckets",
                 "dropped_buckets", "_indices", "_payloads")

    def __init__(self, name: str, kind: str, bucket_ticks: int,
                 max_buckets: int):
        if kind not in _KINDS:
            raise SimulationError(f"unknown series kind {kind!r}")
        if bucket_ticks <= 0:
            raise SimulationError("bucket_ticks must be positive")
        if max_buckets <= 0:
            raise SimulationError("max_buckets must be positive")
        self.name = name
        self.kind = kind
        self.bucket_ticks = bucket_ticks
        self.max_buckets = max_buckets
        self.dropped_buckets = 0
        self._indices: List[int] = []
        self._payloads: List[Any] = []

    def bucket_of(self, time: int) -> int:
        """The bucket index a logical time falls into."""
        return time // self.bucket_ticks

    def _payload_at(self, time: int) -> Any:
        index = self.bucket_of(time)
        if self._indices and index < self._indices[-1]:
            raise SimulationError(
                f"series {self.name!r}: time {time} is before the "
                f"open bucket (the logical clock never runs backward)")
        if not self._indices or index > self._indices[-1]:
            if self.kind == KIND_COUNTER:
                payload: Any = 0
            elif self.kind == KIND_GAUGE:
                payload = [None, None, None, 0]  # last, min, max, samples
            else:
                payload = Digest()
            self._indices.append(index)
            self._payloads.append(payload)
            if len(self._indices) > self.max_buckets:
                del self._indices[0]
                del self._payloads[0]
                self.dropped_buckets += 1
        return self._payloads[-1]

    def record(self, time: int, value: float = 1) -> None:
        """Roll one observation into the bucket of ``time``.

        Counters add ``value`` (default 1), gauges sample the level,
        digests record the observation.
        """
        payload = self._payload_at(time)
        if self.kind == KIND_COUNTER:
            self._payloads[-1] = payload + value
        elif self.kind == KIND_GAUGE:
            payload[0] = value
            payload[1] = value if payload[1] is None \
                else min(payload[1], value)
            payload[2] = value if payload[2] is None \
                else max(payload[2], value)
            payload[3] += 1
        else:
            payload.record(value)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._indices)

    @property
    def first_bucket(self) -> Optional[int]:
        return self._indices[0] if self._indices else None

    @property
    def last_bucket(self) -> Optional[int]:
        return self._indices[-1] if self._indices else None

    def buckets(self) -> List[Tuple[int, Any]]:
        """Live ``(bucket_index, payload summary)`` pairs, oldest first.

        Counter payloads are sums; gauge payloads ``{last, min, max,
        samples}``; digest payloads :meth:`Digest.summary` dictionaries.
        """
        return [(index, self._summarize(payload))
                for index, payload in zip(self._indices, self._payloads)]

    def values(self) -> List[Tuple[int, float]]:
        """A plottable ``(bucket_index, scalar)`` view: counter sums,
        gauge last-values, digest means."""
        out = []
        for index, payload in zip(self._indices, self._payloads):
            if self.kind == KIND_COUNTER:
                out.append((index, float(payload)))
            elif self.kind == KIND_GAUGE:
                out.append((index, float(payload[0] or 0)))
            else:
                out.append((index, payload.mean))
        return out

    def total(self) -> float:
        """Sum over live buckets (counter sums / gauge samples / digest
        counts) — the retained-window total."""
        if self.kind == KIND_COUNTER:
            return float(sum(self._payloads))
        if self.kind == KIND_GAUGE:
            return float(sum(payload[3] for payload in self._payloads))
        return float(sum(payload.count for payload in self._payloads))

    def window(self, end_bucket: int, width: int) -> Dict[str, Any]:
        """Merged rollup over buckets ``(end_bucket - width,
        end_bucket]`` — the sliding-window query SLO burn rates use."""
        if width <= 0:
            raise SimulationError("window width must be positive")
        low = end_bucket - width
        chosen = [payload for index, payload
                  in zip(self._indices, self._payloads)
                  if low < index <= end_bucket]
        if self.kind == KIND_COUNTER:
            return {"kind": self.kind, "sum": sum(chosen),
                    "buckets": len(chosen)}
        if self.kind == KIND_GAUGE:
            mins = [p[1] for p in chosen if p[1] is not None]
            maxes = [p[2] for p in chosen if p[2] is not None]
            return {"kind": self.kind,
                    "last": chosen[-1][0] if chosen else None,
                    "min": min(mins) if mins else None,
                    "max": max(maxes) if maxes else None,
                    "samples": sum(p[3] for p in chosen),
                    "buckets": len(chosen)}
        merged = Digest()
        for payload in chosen:
            merged.merge(payload)
        result = merged.summary()
        result["kind"] = self.kind
        result["buckets"] = len(chosen)
        return result

    def _summarize(self, payload: Any) -> Any:
        if self.kind == KIND_COUNTER:
            return payload
        if self.kind == KIND_GAUGE:
            return {"last": payload[0], "min": payload[1],
                    "max": payload[2], "samples": payload[3]}
        return payload.summary()

    def summary(self) -> Dict[str, Any]:
        """The series as a plain JSON-exportable dictionary."""
        return {
            "kind": self.kind,
            "bucket_ticks": self.bucket_ticks,
            "dropped_buckets": self.dropped_buckets,
            "buckets": [[index, value]
                        for index, value in self.buckets()],
        }


class TimeSeriesStore:
    """Create-or-get store of named series sharing one bucket geometry.

    Mirrors :class:`repro.obs.instruments.Registry`: a name is bound to
    one series kind for the store's lifetime, and snapshots iterate in
    sorted name order.  ``observe_time`` advances the store's horizon —
    the tick-bucket flush hook the simulator drives — so consumers know
    the current bucket even when no observation landed in it.
    """

    def __init__(self, bucket_ticks: int = 32, max_buckets: int = 256):
        if bucket_ticks <= 0:
            raise SimulationError("bucket_ticks must be positive")
        self.bucket_ticks = bucket_ticks
        self.max_buckets = max_buckets
        self.horizon = 0
        self._series: Dict[str, Series] = {}

    def _get(self, name: str, kind: str) -> Series:
        series = self._series.get(name)
        if series is None:
            series = Series(name, kind, self.bucket_ticks,
                            self.max_buckets)
            self._series[name] = series
        elif series.kind != kind:
            raise SimulationError(
                f"series {name!r} already registered as {series.kind}")
        return series

    def counter(self, name: str) -> Series:
        """The counter series under ``name`` (created on first use)."""
        return self._get(name, KIND_COUNTER)

    def gauge(self, name: str) -> Series:
        """The gauge series under ``name`` (created on first use)."""
        return self._get(name, KIND_GAUGE)

    def digest(self, name: str) -> Series:
        """The digest series under ``name`` (created on first use)."""
        return self._get(name, KIND_DIGEST)

    def observe_time(self, time: int) -> None:
        """Advance the horizon (called on every simulator tick)."""
        if time > self.horizon:
            self.horizon = time

    @property
    def horizon_bucket(self) -> int:
        """The bucket the horizon currently falls into."""
        return self.horizon // self.bucket_ticks

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def get(self, name: str) -> Optional[Series]:
        """The series under ``name``, or ``None``."""
        return self._series.get(name)

    def names(self) -> List[str]:
        """All series names, sorted (deterministic)."""
        return sorted(self._series)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All series as plain ``{name: summary}`` dictionaries in
        sorted name order — the JSON-exportable view."""
        return {name: self._series[name].summary()
                for name in self.names()}
