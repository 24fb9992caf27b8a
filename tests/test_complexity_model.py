"""Analytic complexity model: shapes and internal consistency."""

from types import SimpleNamespace

import pytest

from repro.analysis.complexity import ComplexityModel
from repro.common.errors import ConfigurationError


def test_defaults():
    model = ComplexityModel(n=4, t=1)
    assert model.k == 3
    assert model.block_size == (1024 + 8 + 2) // 3


def test_invalid_k():
    with pytest.raises(ConfigurationError):
        ComplexityModel(n=4, t=1, k=5)


def test_commitment_sizes():
    vector = ComplexityModel(n=8, t=2, commitment="vector")
    merkle = ComplexityModel(n=8, t=2, commitment="merkle")
    assert vector.commitment_size == 8 * 32
    assert merkle.commitment_size == 32
    assert vector.witness_size == 0
    assert merkle.witness_size == 32 * 3  # log2(8) levels


def test_all_protocols_present():
    predictions = ComplexityModel(n=4, t=1).all_protocols()
    assert set(predictions) == {"phalanx", "martin", "goodson",
                                "bazzi_ding", "atomic", "atomic_ns"}


def test_resilience_labels():
    predictions = ComplexityModel(n=5, t=1).all_protocols()
    assert predictions["atomic"].resilience == "n > 3t"
    assert predictions["atomic_ns"].resilience == "n > 3t"
    assert predictions["martin"].resilience == "n > 3t"
    assert predictions["goodson"].resilience == "n > 4t"
    assert predictions["bazzi_ding"].resilience == "n > 4t"


def test_claim_flags():
    predictions = ComplexityModel(n=4, t=1).all_protocols()
    assert predictions["atomic_ns"].non_skipping
    assert predictions["bazzi_ding"].non_skipping
    assert not predictions["atomic"].non_skipping
    assert not predictions["martin"].non_skipping
    assert predictions["atomic"].byzantine_clients
    assert predictions["atomic_ns"].byzantine_clients
    assert not predictions["martin"].byzantine_clients


def test_storage_blowup_shapes():
    model = ComplexityModel(n=7, t=2, value_size=10_000)
    assert model.martin().storage_blowup == 7.0
    assert 1.3 < model.atomic().storage_blowup < 1.5  # ~ n/(n-t)


def test_write_messages_growth():
    small = ComplexityModel(n=4, t=1)
    large = ComplexityModel(n=13, t=4)
    ratio = large.atomic_ns().write_messages / \
        small.atomic_ns().write_messages
    n_squared_ratio = (13 / 4) ** 2
    assert 0.7 * n_squared_ratio < ratio < 1.3 * n_squared_ratio
    martin_ratio = large.martin().write_messages / \
        small.martin().write_messages
    assert martin_ratio == pytest.approx(13 / 4)


def test_atomic_ns_more_expensive_than_atomic():
    model = ComplexityModel(n=7, t=2)
    assert model.atomic_ns().write_messages > model.atomic().write_messages
    assert model.atomic_ns().write_bytes > model.atomic().write_bytes
    assert model.atomic_ns().storage_per_server > \
        model.atomic().storage_per_server


def test_read_bytes_erasure_beats_replication_for_large_values():
    model = ComplexityModel(n=7, t=2, value_size=262_144)
    assert model.atomic_ns().read_bytes < model.martin().read_bytes


def test_replication_beats_erasure_for_tiny_values():
    model = ComplexityModel(n=7, t=2, value_size=16)
    assert model.martin().read_bytes < model.atomic_ns().read_bytes


def test_goodson_rollback_cost_linear():
    model = ComplexityModel(n=9, t=2)
    base = model.goodson(rollback_rounds=0).read_messages
    rolled = model.goodson(rollback_rounds=3).read_messages
    assert rolled == base + 3 * 2 * 9


def test_goodson_version_storage_linear():
    model = ComplexityModel(n=9, t=2)
    assert model.goodson(versions=5).storage_per_server == \
        5 * model.goodson(versions=1).storage_per_server


# -- atomic_md ----------------------------------------------------------------

def test_atomic_md_needs_k_within_the_honest_part_of_a_quorum():
    with pytest.raises(ConfigurationError, match="k <= n - 2t"):
        ComplexityModel(n=7, t=2).atomic_md()  # default k = n - t
    ComplexityModel(n=7, t=2, k=3).atomic_md()


def test_atomic_md_commit_term_is_independent_of_commitment_size():
    """The ``n`` commits carry ``(ts, H(D), N)``: swapping the commitment
    scheme moves only the ``n`` ``md-store`` messages.  No ``n^2``
    term: a write is ``6n`` messages."""
    vector = ComplexityModel(n=10, t=3, k=4, commitment="vector")
    merkle = ComplexityModel(n=10, t=3, k=4, commitment="merkle")
    assert vector.commitment_size != merkle.commitment_size
    assert vector.atomic_md().write_bytes - merkle.atomic_md().write_bytes \
        == 10 * (vector._block_with_proof() - merkle._block_with_proof())
    assert vector.atomic_md().write_messages == 6 * 10


def test_atomic_md_storage_is_one_commitment_and_one_version():
    """At rest once per register: ``D``, its TIMESTAMP and proof ``N``,
    and this server's block and witness of that version — nothing that
    grows with the writes, and each read reply carries the same."""
    for commitment in ("vector", "merkle"):
        model = ComplexityModel(n=7, t=2, k=3, value_size=64,
                                commitment=commitment)
        prediction = model.atomic_md()
        assert prediction.storage_per_server == model.commitment_size \
            + model.ts_size + model.hash_size + model.block_size \
            + model.witness_size
        assert prediction.read_bytes == 7 * prediction.storage_per_server \
            + 2 * 7 * model.ts_size


def test_measured_atomic_md_read_is_one_round_trip_of_three_n():
    """One isolated fault-free read at n = 4 / 7 / 10, every server
    answering: exactly the predicted ``3n`` messages, and the reader
    sends ``md-read-complete`` on the first replies' delivery — one
    round trip, no block request in between."""
    from repro.cluster import build_cluster
    from repro.config import SystemConfig
    from repro.net.schedulers import FifoScheduler
    from repro.obs.recorder import TraceRecorder

    for n, t in ((4, 1), (7, 2), (10, 3)):
        cluster = build_cluster(SystemConfig(n=n, t=t, k=t + 1),
                                protocol="atomic_md", num_clients=2,
                                scheduler=FifoScheduler())
        cluster.write(1, "reg", "w1", b"x" * 64)
        cluster.run()
        before = cluster.simulator.metrics.total_messages
        recorder = TraceRecorder().attach(cluster.simulator)
        assert cluster.read(2, "reg", "r1").result == b"x" * 64
        cluster.run()
        messages = cluster.simulator.metrics.total_messages - before
        assert messages == ComplexityModel(
            n=n, t=t, k=t + 1).atomic_md().read_messages == 3 * n
        depths = {(record.mtype, record.depth)
                  for record in recorder.messages.values()}
        # md-read at depth 1, the md-meta replies at 2, and the
        # completion caused by a reply's delivery at 3
        assert depths == {("md-read", 1), ("md-meta", 2),
                          ("md-read-complete", 3)}


def test_measured_atomic_md_write_bytes_follow_the_models_growth():
    """One isolated write at n = 4 / 7 / 10 (k = t + 1): the measured
    growth matches the prediction's to within a tenth — it would not if
    the ``O(n^2)`` broadcast still carried the ``n``-hash vector."""
    from repro.cluster import build_cluster
    from repro.config import SystemConfig
    from repro.net.schedulers import RandomScheduler

    measured, predicted = [], []
    for n, t in ((4, 1), (7, 2), (10, 3)):
        cluster = build_cluster(SystemConfig(n=n, t=t, k=t + 1),
                                protocol="atomic_md",
                                scheduler=RandomScheduler(0))
        cluster.write(1, "reg", "w1", b"x" * 64)
        cluster.run()
        measured.append(cluster.simulator.metrics.total_bytes)
        predicted.append(ComplexityModel(
            n=n, t=t, k=t + 1, value_size=64).atomic_md().write_bytes)
    for index in (1, 2):
        growth = measured[index] / measured[0]
        assert growth == pytest.approx(predicted[index] / predicted[0],
                                       rel=0.1)


def test_measured_atomic_md_write_messages_are_six_n():
    """One isolated write at n = 4 / 7 / 10: exactly the predicted
    ``6n`` messages — linear in ``n``, no broadcast left."""
    from repro.cluster import build_cluster
    from repro.config import SystemConfig
    from repro.net.schedulers import RandomScheduler

    measured = []
    for n, t in ((4, 1), (7, 2), (10, 3)):
        cluster = build_cluster(SystemConfig(n=n, t=t, k=t + 1),
                                protocol="atomic_md",
                                scheduler=RandomScheduler(n))
        cluster.write(1, "reg", "w1", b"x" * 64)
        cluster.run()
        messages = cluster.simulator.metrics.total_messages
        assert messages == ComplexityModel(
            n=n, t=t, k=t + 1).atomic_md().write_messages == 6 * n
        measured.append(messages)
    assert measured[2] - measured[1] == measured[1] - measured[0]


@pytest.mark.parametrize("commitment", ["vector", "merkle"])
def test_measured_disperse_bytes_match_the_fault_free_terms(commitment):
    """One isolated FIFO write of 16 KiB on Protocol Atomic: the bytes of
    ``avid-send/echo/ready`` are the model's Disperse terms — every echo
    to its own sender and the ``n - t`` readys to a quorum's echoers
    carry ``H(D)`` alone — plus the per-message framing it omits."""
    from repro.avid.disperse import MESSAGE_TYPES
    from repro.cluster import build_cluster
    from repro.config import SystemConfig
    from repro.net.schedulers import FifoScheduler

    for n, t in ((4, 1), (7, 2), (10, 3)):
        cluster = build_cluster(SystemConfig(n=n, t=t, commitment=commitment),
                                protocol="atomic", scheduler=FifoScheduler())
        sizes = []
        cluster.simulator.add_observer(SimpleNamespace(
            on_send=lambda message, time, pending: message.mtype
            in MESSAGE_TYPES and sizes.append(message.wire_size())))
        cluster.write(1, "reg", "w1", b"x" * 16384)
        cluster.run()
        model = ComplexityModel(n=n, t=t, value_size=16384,
                                commitment=commitment)
        assert 1.0 < sum(sizes) / model._disperse_bytes() < 1.1
