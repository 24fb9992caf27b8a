"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`SloSpec` states an objective over the operation stream —
"99% of reads complete within 40 ticks", "99.9% of writes complete at
all" — scoped by op type.  The evaluator
bucketizes every matched operation as *good* or *bad* on the windowed
time-series grid and computes **burn rates**: the ratio of the observed
bad fraction to the error budget ``1 - objective``.  A burn rate of 1
means the budget is being consumed exactly as fast as the objective
allows; 10 means ten times too fast.

Alerting follows the multi-window pattern: an alert fires only when
*both* a short window (fast burn, catches sharp regressions quickly)
and a long window (sustained burn, suppresses blips) exceed the spec's
burn threshold.  Everything is computed on the logical clock from the
bucketed good/bad counters, so two runs of the same seed produce
identical alerts.

Operations are anchored to the bucket of their **completion** tick (an
op straddling a bucket edge counts exactly once, in the bucket where
its latency became known); an operation that never completes is a bad
observation anchored to its invocation bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError

KIND_LATENCY = "latency"
KIND_AVAILABILITY = "availability"
KIND_REPLICATION = "replication"

OP_ANY = "any"


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over the operation stream.

    ``kind`` is ``latency`` (good = completed within
    ``threshold_ticks``), ``availability`` (good = completed at all;
    ``threshold_ticks`` is ignored), or ``replication`` (good =
    replication *skew* — how far the last fleet member lagged the
    quorum median in receiving the operation's traffic — stayed within
    ``threshold_ticks``; the durability-margin objective a starved
    server breaches long before completions suffer).  ``op`` filters
    by operation kind (``write``/``read``/``any``).  Windows are in
    buckets of the evaluating store's geometry.
    """

    name: str
    op: str = OP_ANY
    kind: str = KIND_LATENCY
    objective: float = 0.99
    threshold_ticks: int = 40
    fast_window: int = 4
    slow_window: int = 16
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LATENCY, KIND_AVAILABILITY,
                             KIND_REPLICATION):
            raise SimulationError(f"unknown SLO kind {self.kind!r}")
        if not 0 < self.objective < 1:
            raise SimulationError(
                f"SLO objective must be in (0, 1), got {self.objective}")
        if self.fast_window <= 0 or self.slow_window <= 0:
            raise SimulationError("SLO windows must be positive")
        if self.fast_window > self.slow_window:
            raise SimulationError(
                "fast_window must not exceed slow_window")

    @property
    def budget(self) -> float:
        """The error budget ``1 - objective``."""
        return 1.0 - self.objective

    def matches(self, op_kind: str) -> bool:
        """Whether an operation of ``op_kind`` is in scope for this
        objective."""
        return self.op == OP_ANY or op_kind == self.op

    def is_good(self, completed: bool, latency: Optional[int]) -> bool:
        """Classify one operation outcome against the objective.

        For ``replication`` specs ``latency`` carries the op's
        replication skew and ``completed`` is ignored — traffic
        propagation is judged even for abandoned operations.
        """
        if self.kind == KIND_REPLICATION:
            return latency is not None \
                and latency <= self.threshold_ticks
        if not completed:
            return False
        if self.kind == KIND_AVAILABILITY:
            return True
        return latency is not None and latency <= self.threshold_ticks

    def describe(self) -> str:
        """A one-line human rendering of the objective."""
        scope = self.op if self.op != OP_ANY else "all ops"
        pct = f"{self.objective * 100:g}%"
        if self.kind == KIND_AVAILABILITY:
            return f"{self.name}: {pct} of {scope} complete"
        if self.kind == KIND_REPLICATION:
            return (f"{self.name}: {pct} of {scope} reach the whole "
                    f"fleet within {self.threshold_ticks} ticks of "
                    f"the quorum")
        return (f"{self.name}: {pct} of {scope} complete "
                f"within {self.threshold_ticks} ticks")


def default_slos() -> List[SloSpec]:
    """The stock objective set the monitor CLI evaluates when no custom
    specs are supplied.

    Thresholds are in *global logical ticks* (every delivery fleet-wide
    advances the clock), calibrated against the stock fault-free
    register workload: latency bounds sit well above its worst observed
    percentiles, the availability floor is strict (any abandoned op
    burns it), and the replication-skew bound catches a starved server
    whose deliveries drain long after quorums formed — the signal that
    fires under the ``slow-server`` plan while completions still look
    healthy.
    """
    return [
        SloSpec(name="read-latency", op="read", kind=KIND_LATENCY,
                objective=0.90, threshold_ticks=600),
        SloSpec(name="write-latency", op="write", kind=KIND_LATENCY,
                objective=0.90, threshold_ticks=900),
        SloSpec(name="availability", op=OP_ANY, kind=KIND_AVAILABILITY,
                objective=0.999),
        # burn 4 rather than the stock 2: a genuinely starved server
        # drags nearly every op past the skew bound (burn ~10), while
        # scheduler noise on a healthy fleet tops out around 2.5.
        SloSpec(name="replication-skew", op=OP_ANY,
                kind=KIND_REPLICATION, objective=0.90,
                threshold_ticks=250, burn_threshold=4.0),
    ]


class SloTracker:
    """Accumulates good/bad observations for one spec on the bucket
    grid and answers burn-rate queries."""

    __slots__ = ("spec", "good", "bad", "_buckets")

    def __init__(self, spec: SloSpec):
        self.spec = spec
        self.good = 0
        self.bad = 0
        # bucket_index -> [good, bad]; sparse, appended in time order
        self._buckets: Dict[int, List[int]] = {}

    def observe(self, bucket: int, good: bool) -> None:
        """Record one classified operation anchored to ``bucket``."""
        cell = self._buckets.get(bucket)
        if cell is None:
            cell = [0, 0]
            self._buckets[bucket] = cell
        if good:
            cell[0] += 1
            self.good += 1
        else:
            cell[1] += 1
            self.bad += 1

    @property
    def total(self) -> int:
        return self.good + self.bad

    def window_counts(self, end_bucket: int,
                      width: int) -> Tuple[int, int]:
        """``(good, bad)`` over buckets ``(end_bucket - width,
        end_bucket]``."""
        low = end_bucket - width
        good = bad = 0
        for index, (g, b) in self._buckets.items():
            if low < index <= end_bucket:
                good += g
                bad += b
        return good, bad

    def burn_rate(self, end_bucket: int, width: int) -> float:
        """Observed bad fraction over the window divided by the error
        budget; 0 when the window saw no operations."""
        good, bad = self.window_counts(end_bucket, width)
        total = good + bad
        if not total:
            return 0.0
        return (bad / total) / self.spec.budget

    def alert_at(self, bucket: int) -> bool:
        """Whether the multi-window alert condition holds at
        ``bucket``: both windows saw traffic and both burn past the
        threshold."""
        spec = self.spec
        fast_total = sum(self.window_counts(bucket, spec.fast_window))
        slow_total = sum(self.window_counts(bucket, spec.slow_window))
        return (fast_total > 0 and slow_total > 0
                and self.burn_rate(bucket, spec.fast_window)
                >= spec.burn_threshold
                and self.burn_rate(bucket, spec.slow_window)
                >= spec.burn_threshold)

    def fired_buckets(self, end_bucket: int) -> List[int]:
        """Every bucket up to ``end_bucket`` at which the alert
        condition held — a streaming evaluator polling each bucket
        would have paged at exactly these points."""
        if not self._buckets:
            return []
        start = min(self._buckets)
        return [bucket for bucket in range(start, end_bucket + 1)
                if self.alert_at(bucket)]

    def evaluate(self, end_bucket: int) -> Dict[str, Any]:
        """The spec's full state over a run ending at ``end_bucket``:
        overall compliance, the end-of-run window burn rates, and the
        alert history (``alert`` is true if the multi-window condition
        held at *any* bucket — a post-hoc report must not lose a page
        that a live evaluator would have raised mid-run)."""
        spec = self.spec
        fast = self.burn_rate(end_bucket, spec.fast_window)
        slow = self.burn_rate(end_bucket, spec.slow_window)
        fired = self.fired_buckets(end_bucket)
        compliance = (self.good / self.total) if self.total else 1.0
        return {
            "name": spec.name,
            "objective": spec.objective,
            "description": spec.describe(),
            "good": self.good,
            "bad": self.bad,
            "compliance": compliance,
            "fast_burn": fast,
            "slow_burn": slow,
            "burn_threshold": spec.burn_threshold,
            "alert": bool(fired),
            "fired_buckets": fired,
        }
