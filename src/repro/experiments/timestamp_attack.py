"""Experiment F4 — timestamp growth under attack (Section 3.4).

Reproduces the paper's non-skipping-timestamps claims by mounting every
timestamp attack against every protocol and measuring the largest
timestamp honest servers end up storing, relative to the number of writes
that actually took effect:

* corrupted **servers** reporting inflated timestamps make honest writers
  skip in Protocol Atomic and in Martin et al. (they take the max); they
  fail against AtomicNS (no valid signature) and against Bazzi–Ding (the
  ``(t+1)``-st-largest rule) — but Bazzi–Ding needs ``n > 4t`` for it;
* corrupted **clients** broadcasting huge timestamps succeed against
  Atomic and against Bazzi–Ding (no client authentication), but not
  against AtomicNS — the strongest remaining client attack is replaying a
  valid ``[ts, σ]`` pair, which stays bounded (Lemma 7).

A protocol is *non-skipping under the scenario* when the maximum stored
timestamp is at most the number of effected writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.history import effected_writes
from repro.cluster import build_cluster, protocol_classes
from repro.config import SystemConfig
from repro.experiments.common import render_table
from repro.faults.byzantine_clients import (
    ReplayingNSWriter,
    SkippingWriter,
    SplitBrainMartinWriter,
)
from repro.faults.byzantine_servers import byzantine
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import make_values

TAG = "reg"


@dataclass
class AttackOutcome:
    scenario: str
    protocol: str
    effected_writes: int
    max_timestamp: int
    non_skipping: bool


def _outcome(scenario: str, protocol: str, cluster,
             faulty: int = 0) -> AttackOutcome:
    """The scenario's row; servers ``1..faulty`` are Byzantine, and
    only the others count — for effected writes and stored timestamps
    alike."""
    honest = cluster.servers[faulty:]
    effected = len(effected_writes(cluster, TAG,
                                   [server.pid for server in honest]))
    max_ts = max(server.register_state(TAG).timestamp.ts
                 for server in honest)
    return AttackOutcome(scenario=scenario, protocol=protocol,
                         effected_writes=effected, max_timestamp=max_ts,
                         non_skipping=max_ts <= effected)


def run(t: int = 1, honest_writes: int = 5, seed: int = 0
        ) -> List[AttackOutcome]:
    """Execute the experiment sweep; returns structured result rows."""
    outcomes = []
    values = make_values(honest_writes + 2, size=64)

    def honest_load(cluster) -> None:
        for index in range(honest_writes):
            cluster.write(1, TAG, f"hw{index}", values[index])
        cluster.run()

    # -- corrupted servers inflating their ts replies -----------------------
    for protocol, n in (("atomic", 3 * t + 1), ("atomic_ns", 3 * t + 1),
                        ("martin", 3 * t + 1), ("bazzi_ding", 4 * t + 1)):
        config = SystemConfig(n=n, t=t, seed=seed)
        inflator = byzantine(protocol_classes(protocol)[0], "inflate-ts")
        overrides = {index: inflator for index in range(1, t + 1)}
        cluster = build_cluster(config, protocol=protocol, num_clients=1,
                                scheduler=RandomScheduler(seed),
                                server_overrides=overrides)
        honest_load(cluster)
        outcomes.append(_outcome("server-inflation", protocol, cluster,
                                 faulty=t))

    # -- corrupted client broadcasting a huge timestamp -----------------------
    for protocol in ("atomic", "atomic_ns"):
        config = SystemConfig(n=3 * t + 1, t=t, seed=seed)
        cluster = build_cluster(
            config, protocol=protocol, num_clients=2,
            scheduler=RandomScheduler(seed),
            client_overrides={2: lambda pid, cfg: SkippingWriter(pid, cfg)})
        cluster.client(2).attack_write(TAG, "skip", values[honest_writes])
        cluster.run()
        honest_load(cluster)
        outcomes.append(_outcome("client-skipping", protocol, cluster))

    # -- corrupted client against Bazzi-Ding: store a huge ts directly --------
    config = SystemConfig(n=4 * t + 1, t=t, seed=seed)
    cluster = build_cluster(
        config, protocol="bazzi_ding", num_clients=2,
        scheduler=RandomScheduler(seed),
        client_overrides={
            2: lambda pid, cfg: SplitBrainMartinWriter(pid, cfg)})
    cluster.client(2).attack_write(TAG, "skip", 10 ** 12,
                                   [values[honest_writes]])
    cluster.run()
    honest_load(cluster)
    outcomes.append(_outcome("client-skipping", "bazzi_ding", cluster))

    # -- strongest AtomicNS client attack: replay a valid [ts, sig] pair ------
    config = SystemConfig(n=3 * t + 1, t=t, seed=seed)
    cluster = build_cluster(
        config, protocol="atomic_ns", num_clients=2,
        scheduler=RandomScheduler(seed),
        client_overrides={
            2: lambda pid, cfg: ReplayingNSWriter(pid, cfg)})
    honest_load(cluster)
    state = cluster.server(t + 1).register_state(TAG)
    cluster.client(2).attack_write(TAG, "replay",
                                   values[honest_writes + 1],
                                   state.timestamp.ts, state.signature)
    cluster.run()
    outcomes.append(_outcome("client-replay", "atomic_ns", cluster))
    return outcomes


def render(outcomes: List[AttackOutcome]) -> str:
    """Render result rows as the printable table."""
    headers = ["scenario", "protocol", "effected writes", "max timestamp",
               "non-skipping held"]
    body = [[outcome.scenario, outcome.protocol, outcome.effected_writes,
             outcome.max_timestamp,
             "yes" if outcome.non_skipping else "NO (skipped)"]
            for outcome in outcomes]
    return render_table(headers, body,
                        title="F4: timestamp growth under attack")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F4"])
