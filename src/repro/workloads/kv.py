"""Multi-key workload generation for the kv plane.

Produces sequences of :class:`repro.kv.cluster.KvOp` with seeded key
popularity — ``"uniform"``, ``"zipf"`` (rank ``r`` weighted
``1 / r**s``, the classic web-traffic skew), or ``"zipf-shift"`` (the
same skew with the hot set rotating through the key space every
``shift_every`` operations, modelling diurnal popularity drift) — and
globally unique write values (the linearizability checker requires
distinct values per key; unique values fleet-wide are simplest and cost
nothing).

Read-mostly mixes are just low ``write_ratio`` values: the canonical
90/10 web mix is ``write_ratio=0.1``.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional

from repro.analysis.linearizability import KIND_READ, KIND_WRITE
from repro.common.errors import ConfigurationError
from repro.workloads.generator import make_values

#: Supported key-popularity distributions.
DISTRIBUTIONS = ("uniform", "zipf", "zipf-shift")

#: Default operations between hot-set rotations under ``"zipf-shift"``.
DEFAULT_SHIFT_EVERY = 32


@dataclass(frozen=True)
class KvOp:
    """One kv workload operation addressed to a session.

    ``value`` is required for writes and ignored for reads.  The type
    lives here (not in ``repro.kv``) so workload generation stays a
    leaf dependency of the kv plane.
    """

    session_index: int
    kind: str
    key: str
    value: Optional[bytes] = None


def key_names(count: int) -> List[str]:
    """Deterministic key names ``k000 .. k<count-1>``."""
    if count < 1:
        raise ConfigurationError("key count must be >= 1")
    width = max(3, len(str(count - 1)))
    return [f"k{index:0{width}d}" for index in range(count)]


def _key_weights(count: int, distribution: str,
                 zipf_exponent: float) -> List[float]:
    if distribution == "uniform":
        return [1.0] * count
    if distribution in ("zipf", "zipf-shift"):
        return [1.0 / (rank ** zipf_exponent)
                for rank in range(1, count + 1)]
    raise ConfigurationError(
        f"unknown distribution {distribution!r}; "
        f"choose from {DISTRIBUTIONS}")


def kv_workload(num_sessions: int, num_keys: int, ops: int,
                write_ratio: float = 0.5, distribution: str = "zipf",
                zipf_exponent: float = 1.1, seed: int = 0,
                value_size: int = 64,
                shift_every: int = DEFAULT_SHIFT_EVERY) -> List[KvOp]:
    """Generate ``ops`` seeded operations over ``num_keys`` keys.

    Sessions are assigned round-robin so every session participates;
    operation kinds are drawn i.i.d. with ``write_ratio``, except that
    each run opens with one write (a read-only prefix would only ever
    observe the initial value).  Keys are :func:`key_names`.

    Under ``"zipf-shift"`` the rank → key assignment rotates every
    ``shift_every`` operations: the key that was rank ``r`` hot in
    phase ``p`` is rank ``r`` hot *shifted by one position* in phase
    ``p + 1``, so caches and placement tuned to the early hot set go
    stale as the run progresses.
    """
    if num_sessions < 1:
        raise ConfigurationError("num_sessions must be >= 1")
    if ops < 1:
        raise ConfigurationError("ops must be >= 1")
    if shift_every < 1:
        raise ConfigurationError("shift_every must be >= 1")
    key_list = key_names(num_keys)
    count = len(key_list)
    weights = _key_weights(count, distribution, zipf_exponent)
    cumulative = list(accumulate(weights))
    total = cumulative[-1]
    rng = random.Random(seed)
    values = make_values(ops, size=value_size, prefix=b"kv")
    workload: List[KvOp] = []
    writes_used = 0
    for index in range(ops):
        point = rng.random() * total
        rank = bisect.bisect_left(cumulative, point)
        if distribution == "zipf-shift":
            phase = index // shift_every
            rank = (rank + phase) % count
        key = key_list[rank]
        session = (index % num_sessions) + 1
        is_write = index == 0 or rng.random() < write_ratio
        if is_write:
            workload.append(KvOp(session_index=session, kind=KIND_WRITE,
                                 key=key, value=values[writes_used]))
            writes_used += 1
        else:
            workload.append(KvOp(session_index=session, kind=KIND_READ,
                                 key=key))
    return workload
