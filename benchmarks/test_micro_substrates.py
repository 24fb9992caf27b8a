"""Substrate microbenchmarks (real timing): erasure coding, hashing,
dispersal, and end-to-end register operations in the simulator.

These quantify the simulation's own costs — useful when sizing larger
experiments — and the relative cost of the two commitment schemes.
``test_bench_kv_envelope_round_trip`` times the kv mux alone: wrapping,
buffering and unwrapping inner messages, per entry, below kvperf.

The ``ErasureCoder`` cases repeat one input, so after their first round
they time the coder's value memo, which is what a protocol's repeated
encodes and decodes of one value cost.  The ``ReedSolomonCode`` cases
time the kernels beneath it, which keep no value memo: GF(2^8) at
``n <= 255`` and GF(2^16) at ``n300k5`` on 64 KiB values, and the kv
workloads' regime beside them (``KV_KERNEL_SHAPES``).
"""

import os

import pytest

from repro.cluster import build_cluster
from repro.common.ids import server_id
from repro.config import SystemConfig
from repro.core.atomic import AtomicServer
from repro.crypto.commitment import MerkleCommitment, VectorCommitment
from repro.erasure.coder import ErasureCoder
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.kv import KvDirectory, ShardBus, build_kv_cluster
from repro.net.schedulers import RandomScheduler

VALUE_64K = os.urandom(64 * 1024)

#: ``(n, k, 0-based decode subset)``: each subset mixes systematic and
#: parity blocks, so a decode solves for the missing data blocks.
KERNEL_SHAPES = [(7, 5, (2, 3, 4, 5, 6)), (16, 6, (0, 1, 2, 13, 14, 15)),
                 (300, 5, (0, 1, 297, 298, 299))]
KERNEL_IDS = ["n7k5", "n16k6", "n300k5"]

#: ``(n, k, value bytes, decode subset)`` as the kvperf workloads run
#: the code: 64 B values at n = 7 (``mixed_small``, ``readheavy_cached``,
#: ``churn_repair``) and 16 KiB ones (``large_values``).
KV_KERNEL_SHAPES = [(7, 5, 64, (2, 3, 4, 5, 6)),
                    (7, 3, 16 * 1024, (0, 5, 6))]
KV_KERNEL_IDS = ["n7k5-64B", "n7k3-16KiB"]


def _data_blocks(k, value=VALUE_64K):
    """``value`` zero-padded and cut into ``k`` equal data blocks."""
    length = -(-len(value) // k)
    padded = value.ljust(length * k, b"\0")
    return [padded[i * length:(i + 1) * length] for i in range(k)]


@pytest.mark.parametrize("k", [3, 5])
def test_bench_erasure_encode_64k(benchmark, k):
    """Times an encode-memo hit after the first round;
    ``test_bench_rs_encode_blocks_64k`` times the kernel."""
    coder = ErasureCoder(7, k)
    blocks = benchmark(lambda: coder.encode(VALUE_64K))
    assert len(blocks) == 7


def test_bench_erasure_decode_parity_path(benchmark):
    """Times a decode-memo hit after the first round;
    ``test_bench_rs_decode_blocks_64k`` times the kernel."""
    coder = ErasureCoder(7, 5)
    blocks = coder.encode(VALUE_64K)
    pairs = [(j, blocks[j - 1]) for j in (3, 4, 5, 6, 7)]  # needs inversion
    value = benchmark(lambda: coder.decode(pairs))
    assert value == VALUE_64K


def test_bench_erasure_decode_systematic_path(benchmark):
    coder = ErasureCoder(7, 5)
    blocks = coder.encode(VALUE_64K)
    pairs = [(j, blocks[j - 1]) for j in (1, 2, 3, 4, 5)]  # fast path
    value = benchmark(lambda: coder.decode(pairs))
    assert value == VALUE_64K


@pytest.mark.parametrize("n, k", [shape[:2] for shape in KERNEL_SHAPES],
                         ids=KERNEL_IDS)
def test_bench_rs_encode_blocks_64k(benchmark, n, k):
    """The parity rows' matrix-vector product over 64 KiB of data."""
    code = ReedSolomonCode(n, k)
    data = _data_blocks(k)
    blocks = benchmark(lambda: code.encode_blocks(data))
    assert blocks[:k] == data and len(blocks) == n


@pytest.mark.parametrize("n, k, subset", KERNEL_SHAPES, ids=KERNEL_IDS)
def test_bench_rs_decode_blocks_64k(benchmark, n, k, subset):
    """The solve for the missing data blocks.  Its decode plan is keyed
    by the index subset, so every round after the first reuses the
    inverted matrix and times the matrix-vector product."""
    code = ReedSolomonCode(n, k)
    data = _data_blocks(k)
    encoded = code.encode_blocks(data)
    supplied = {index: encoded[index] for index in subset}
    assert benchmark(lambda: code.decode_blocks(supplied)) == data


@pytest.mark.parametrize("n, k, size", [shape[:3] for shape in
                                        KV_KERNEL_SHAPES], ids=KV_KERNEL_IDS)
def test_bench_rs_encode_blocks_kv(benchmark, n, k, size):
    """The parity product at a kv workload's value size, where a call's
    fixed cost weighs against its arithmetic."""
    code = ReedSolomonCode(n, k)
    data = _data_blocks(k, VALUE_64K[:size])
    blocks = benchmark(lambda: code.encode_blocks(data))
    assert blocks[:k] == data and len(blocks) == n


@pytest.mark.parametrize("n, k, size, subset", KV_KERNEL_SHAPES,
                         ids=KV_KERNEL_IDS)
def test_bench_rs_decode_blocks_kv(benchmark, n, k, size, subset):
    """The cached-plan solve at a kv workload's value size."""
    code = ReedSolomonCode(n, k)
    data = _data_blocks(k, VALUE_64K[:size])
    encoded = code.encode_blocks(data)
    supplied = {index: encoded[index] for index in subset}
    assert benchmark(lambda: code.decode_blocks(supplied)) == data


@pytest.mark.parametrize("scheme_cls", [VectorCommitment, MerkleCommitment],
                         ids=["vector", "merkle"])
def test_bench_commitment(benchmark, scheme_cls):
    coder = ErasureCoder(7, 5)
    blocks = coder.encode(VALUE_64K)
    scheme = scheme_cls(7)
    commitment, witnesses = benchmark(lambda: scheme.commit(blocks))
    assert scheme.verify(commitment, 1, blocks[0], witnesses[0])


@pytest.mark.parametrize("protocol", ["atomic", "atomic_ns", "martin"])
def test_bench_end_to_end_write(benchmark, protocol):
    """Simulated wall-clock cost of one isolated write (n=4, 4 KiB)."""
    value = os.urandom(4096)
    counter = [0]

    def write_once():
        cluster = build_cluster(SystemConfig(n=4, t=1), protocol=protocol,
                                num_clients=1,
                                scheduler=RandomScheduler(counter[0]))
        counter[0] += 1
        return cluster.write(1, "reg", "w", value)

    handle = benchmark(write_once)
    assert handle.done


def test_bench_end_to_end_read(benchmark):
    value = os.urandom(4096)
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic_ns",
                            num_clients=1, scheduler=RandomScheduler(0))
    cluster.write(1, "reg", "w", value)
    counter = [0]

    def read_once():
        counter[0] += 1
        return cluster.read(1, "reg", f"r{counter[0]}")

    handle = benchmark(read_once)
    assert handle.result == value


def test_bench_kv_envelope_round_trip(benchmark):
    """64 inner sends buffered on a server host, flushed as one
    ``kv-batch`` and unwrapped by a client host into a no-op handler:
    the mux's wrap, buffer and unwrap, per entry, and no protocol."""
    directory = KvDirectory(SystemConfig(n=4, t=1), 1)
    cluster = build_kv_cluster(directory, num_sessions=1)
    server, client = cluster.servers[0], cluster.sessions[0].host
    spec = directory.shard(0)
    sender = ShardBus(server, spec).attach(
        AtomicServer(server_id(1), spec.config))
    delivered = [0]

    def consume(message):
        delivered[0] += 1

    client.inner_client(0).on("probe", consume)
    tag, value = directory.register_tag("k001"), b"v" * 16

    def round_trip():
        for index in range(64):
            sender.send(client.pid, tag, "probe", value, index)
        server.kv_flush()
        cluster.simulator.step()

    benchmark(round_trip)
    assert delivered[0] > 0 and delivered[0] % 64 == 0
    assert cluster.simulator.pending_count == 0


def test_bench_party_id_lookups(benchmark):
    """Dict gets and set membership keyed by party ids, looked up with
    ``server_id(j)`` values made apart from the keys — the lookup every
    quorum set, inbox and routing table does per message."""
    keys = [server_id(j) for j in range(1, 17)]
    table = {party: party.index for party in keys}
    members = set(keys[::2])
    probes = [server_id(j) for j in range(1, 17)] * 64

    def lookups():
        total = hits = 0
        for party in probes:
            total += table[party]
            if party in members:
                hits += 1
        return total, hits

    assert benchmark(lookups) == (136 * 64, 8 * 64)
