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
from repro.faults.byzantine_clients import byzantine_client
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

    def deploy(protocol: str, n: int, behaviour=None, attack=None):
        """Servers ``1..t`` running ``behaviour`` and client 2 mounting
        ``attack``, each if given; client 1 honest."""
        server_cls, client_cls = protocol_classes(protocol)
        return build_cluster(
            SystemConfig(n=n, t=t, seed=seed), protocol=protocol,
            num_clients=2, scheduler=RandomScheduler(seed),
            server_overrides=dict.fromkeys(
                range(1, t + 1), byzantine(server_cls, behaviour))
            if behaviour else None,
            client_overrides={2: byzantine_client(client_cls, attack)}
            if attack else None)

    def honest_load(cluster) -> None:
        for index in range(honest_writes):
            cluster.write(1, TAG, f"hw{index}", values[index])
        cluster.run()

    # -- corrupted servers inflating their ts replies -----------------------
    for protocol, n in (("atomic", 3 * t + 1), ("atomic_ns", 3 * t + 1),
                        ("martin", 3 * t + 1), ("bazzi_ding", 4 * t + 1)):
        cluster = deploy(protocol, n, behaviour="inflate-ts")
        honest_load(cluster)
        outcomes.append(_outcome("server-inflation", protocol, cluster,
                                 faulty=t))

    # -- corrupted client broadcasting a huge timestamp; against
    # Bazzi-Ding (no client authentication) it stores one directly --------
    for protocol, n, attack in (("atomic", 3 * t + 1, "skip-ts"),
                                ("atomic_ns", 3 * t + 1, "skip-ts"),
                                ("bazzi_ding", 4 * t + 1, "skip-store")):
        cluster = deploy(protocol, n, attack=attack)
        cluster.client(2).invoke_write(TAG, "skip", values[honest_writes])
        cluster.run()
        honest_load(cluster)
        outcomes.append(_outcome("client-skipping", protocol, cluster))

    # -- strongest AtomicNS client attack: replay a valid [ts, sig] pair ------
    cluster = deploy("atomic_ns", 3 * t + 1, attack="replay-ts")
    honest_load(cluster)
    cluster.client(2).invoke_write(TAG, "replay", values[honest_writes + 1])
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
