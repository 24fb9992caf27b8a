"""A larger deployment: n = 22 servers tolerating t = 7 Byzantine.

Shows that the implementation scales past toy sizes: the quadratic
message complexity is visible (measured live), erasure coding keeps the
storage blow-up near 1.5 while replication would pay 22x, and the whole
write still completes in the same 7 message rounds as at n = 4.

(The erasure substrate itself scales much further: past 255 servers
``ErasureCoder`` switches to GF(2^16) Reed-Solomon, up to 65535.)

Run:  python examples/large_cluster.py
"""

import time

from repro import RandomScheduler, SystemConfig, build_cluster
from repro.erasure.coder import ErasureCoder
from repro.faults.byzantine_servers import CrashServer


def main() -> None:
    t = 7
    n = 3 * t + 1  # 22 servers, optimal resilience
    config = SystemConfig(n=n, t=t)
    # A third of the fleet minus one is down from the start.
    overrides = {index: (lambda pid, cfg: CrashServer(pid, cfg))
                 for index in range(1, t + 1)}
    cluster = build_cluster(config, protocol="atomic_ns", num_clients=2,
                            scheduler=RandomScheduler(9),
                            server_overrides=overrides)

    value = bytes(i % 251 for i in range(64 * 1024))
    started = time.perf_counter()
    write = cluster.write(1, "reg", "w1", value)
    read = cluster.read(2, "reg", "r1")
    elapsed = time.perf_counter() - started
    assert read.result == value

    metrics = cluster.simulator.metrics
    per_server = cluster.server(n).register_storage_bytes("reg")
    print(f"n={n}, t={t}, {t} servers crashed, |F|=64 KiB")
    print(f"write: {write.latency_rounds} message rounds; "
          f"read: {read.latency_rounds}")
    print(f"messages: {metrics.total_messages} "
          f"(~{metrics.total_messages / (n * n):.1f} per n^2)")
    print(f"bytes on the wire: {metrics.total_bytes / 1024:.0f} KiB")
    print(f"per-server storage: {per_server / 1024:.1f} KiB "
          f"(blow-up {per_server * n / len(value):.2f}x vs {n}x "
          f"replicated)")
    print(f"simulated in {elapsed:.2f}s wall clock")

    # And the erasure substrate alone goes far beyond n = 255:
    coder = ErasureCoder(400, 280)
    blocks = coder.encode(value)
    restored = coder.decode(
        [(j, blocks[j - 1]) for j in range(100, 380)])
    assert restored == value
    print(f"\nGF(2^16) check: (400, 280) code round-tripped 64 KiB, "
          f"block size {len(blocks[0])} B")


if __name__ == "__main__":
    main()
