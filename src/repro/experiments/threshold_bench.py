"""Experiment F8 — threshold-signature microbenchmark.

AtomicNS pays one signature-share round per write.  This experiment
quantifies the cryptographic cost per operation — ``sign`` (one share),
``verify-share``, ``combine`` (``t + 1`` shares), and ``verify`` — for
the real Shoup RSA backend at several key sizes versus the ideal backend,
across group sizes.  The shapes to observe: Shoup costs grow with the
modulus (modular exponentiation) and mildly with ``n`` (the ``n!``-scaled
exponents); the ideal backend is flat (hashing only); protocol-level
results are identical either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.crypto.threshold import (
    IdealThresholdScheme,
    ShoupThresholdScheme,
    ThresholdScheme,
)
from repro.crypto.rsa import precomputed_modulus
from repro.experiments.common import render_table
from repro.obs.clock import wall_seconds


@dataclass
class CryptoCost:
    backend: str
    n: int
    t: int
    sign_ms: float
    verify_share_ms: float
    combine_ms: float
    verify_ms: float


def _time_it(action: Callable[[], object], repeat: int = 5) -> float:
    start = wall_seconds()
    for _ in range(repeat):
        action()
    return (wall_seconds() - start) / repeat * 1000.0


def _measure(backend: str, scheme: ThresholdScheme, repeat: int = 5
             ) -> CryptoCost:
    message = ("reg", 42)
    sign_ms = _time_it(lambda: scheme.sign(message, 1), repeat)
    share = scheme.sign(message, 1)
    verify_share_ms = _time_it(
        lambda: scheme.verify_share(message, share), repeat)
    shares = [scheme.sign(message, j) for j in range(1, scheme.t + 2)]
    combine_ms = _time_it(lambda: scheme.combine(message, shares), repeat)
    signature = scheme.combine(message, shares)
    verify_ms = _time_it(
        lambda: scheme.verify(message, signature), repeat)
    return CryptoCost(backend=backend, n=scheme.n, t=scheme.t,
                      sign_ms=sign_ms, verify_share_ms=verify_share_ms,
                      combine_ms=combine_ms, verify_ms=verify_ms)


def run(group_sizes: Sequence[int] = (4, 7, 10),
        prime_bits: Sequence[int] = (128, 256, 512),
        repeat: int = 5, seed: int = 0) -> List[CryptoCost]:
    """Execute the experiment sweep; returns structured result rows."""
    costs = []
    for n in group_sizes:
        t = (n - 1) // 3
        costs.append(_measure(
            "ideal", IdealThresholdScheme(n, t, seed=seed), repeat))
        for bits in prime_bits:
            scheme = ShoupThresholdScheme(
                n, t, modulus=precomputed_modulus(bits),
                rng=random.Random(seed))
            costs.append(_measure(f"shoup-{2 * bits}b", scheme, repeat))
    return costs


def render(costs: List[CryptoCost]) -> str:
    """Render result rows as the printable table."""
    headers = ["backend", "n", "t", "sign (ms)", "verify-share (ms)",
               "combine (ms)", "verify (ms)"]
    body = [[cost.backend, cost.n, cost.t, f"{cost.sign_ms:.3f}",
             f"{cost.verify_share_ms:.3f}", f"{cost.combine_ms:.3f}",
             f"{cost.verify_ms:.3f}"] for cost in costs]
    return render_table(headers, body,
                        title="F8: threshold-signature operation costs")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F8"])
