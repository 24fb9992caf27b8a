"""Instrument registry: counters, gauges, and logical-time histograms.

The registry is the aggregate side of the observability plane: where the
trace recorder keeps *every* message record, instruments keep cheap
running summaries keyed by name — inbox queue depths, per-message-type
wire sizes, rounds-per-quorum.  Instruments are deterministic (snapshots
iterate names in sorted order) and purely logical; wall-clock timers
live in :mod:`repro.obs.clock` so the determinism lint stays clean here.

Names are dotted, with an optional ``[label]`` suffix for one dimension
(e.g. ``wire.bytes[avid-echo]``); :meth:`Registry.snapshot` renders
everything into plain dictionaries for JSON export.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.errors import SimulationError


class Counter:
    """A monotonically increasing count (messages sent, quorums fired)."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise SimulationError(f"counter {self.name} cannot decrease")
        self.value += amount

    def summary(self) -> Dict[str, Any]:
        """The counter as a plain JSON-exportable dictionary."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A sampled level (inbox depth, in-flight messages): keeps the last
    value plus the extremes seen across the run."""

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self.max_value: Optional[float] = None
        self.min_value: Optional[float] = None
        self.samples = 0

    def set(self, value: float) -> None:
        """Record a new level."""
        self.value = value
        self.samples += 1
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if self.min_value is None or value < self.min_value:
            self.min_value = value

    def fold(self, last: float, low: float, high: float,
             count: int) -> None:
        """Record ``count`` levels, the last of them ``last``, the
        lowest ``low`` and the highest ``high``: what ``count`` calls of
        :meth:`set` would record, for callers that sample in batches."""
        self.value = last
        self.samples += count
        if self.max_value is None or high > self.max_value:
            self.max_value = high
        if self.min_value is None or low < self.min_value:
            self.min_value = low

    def summary(self) -> Dict[str, Any]:
        """Last/min/max/samples as a plain JSON-exportable dictionary."""
        return {"type": "gauge", "value": self.value,
                "min": self.min_value, "max": self.max_value,
                "samples": self.samples}


class Histogram:
    """A value distribution (wire sizes, quorum rounds, wait times).

    Simulation runs are small enough to retain raw observations, so
    percentiles are exact, not estimated.  ``values`` only grows: a
    hot caller may append to it directly, as :meth:`record` does.
    """

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []
        self._sorted: List[float] = []

    def record(self, value: float) -> None:
        """Add one observation."""
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Exact ``q``-th percentile (``0 <= q <= 100``): the sorted
        sample at the rounded linear position ``round(q/100 * (n - 1))``
        (Python's round-half-to-even), so ``percentile(50)`` of
        ``1..100`` is 51; 0 for an empty histogram.

        The sorted view is cached across calls (windowed rollups take
        several percentiles per bucket) while ``values`` keeps its length.
        """
        if not 0 <= q <= 100:
            raise SimulationError(f"percentile {q} out of range")
        if not self.values:
            return 0.0
        ordered = self._sorted
        if len(ordered) != len(self.values):
            ordered = self._sorted = sorted(self.values)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100 * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> Dict[str, Any]:
        """Count/sum/mean/extremes/p50/p90/p99/p999 as a plain
        JSON-exportable dictionary."""
        if not self.values:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": min(self.values),
            "max": max(self.values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }


class Registry:
    """Create-or-get store of named instruments.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind is an error (it would
    silently fork the measurement).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise SimulationError(
                f"instrument {name!r} already registered as "
                f"{type(instrument).__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first
        use)."""
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        """All registered instrument names, sorted (deterministic)."""
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as plain ``{name: summary}`` dictionaries, in
        sorted name order — the JSON-exportable view."""
        return {name: self._instruments[name].summary()
                for name in self.names()}
