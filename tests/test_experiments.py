"""Experiment harness: each table/figure module runs and asserts its
paper-claim at reduced scale (the benchmarks run the full versions)."""

from repro.cluster import Cluster
from repro.core.timestamps import Timestamp
from repro.experiments import (
    common,
    communication_sweep,
    comparison_table,
    complexity_table,
    concurrency_sweep,
    message_complexity,
    poisonous_writes,
    resilience_matrix,
    storage_blowup,
    threshold_bench,
    timestamp_attack,
)


def test_measure_isolated_costs():
    costs = common.measure_isolated_costs("atomic", n=4, t=1,
                                          value_size=256)
    assert costs.write.messages > costs.read.messages
    assert costs.write.message_bytes > 0
    assert costs.storage_per_server > 0


def test_render_table():
    table = common.render_table(["a", "bb"], [[1, 22], [333, 4]],
                                title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "333" in table


def test_fmt_bytes():
    assert common.fmt_bytes(100) == "100 B"
    assert common.fmt_bytes(2048) == "2.0 KiB"
    assert common.fmt_bytes(3 * 1024 * 1024) == "3.0 MiB"


def test_t1_comparison_claims():
    rows = comparison_table.run(t=1, value_size=2048)
    by_protocol = {row.protocol: row for row in rows}
    assert by_protocol["atomic_ns"].resilience == "n > 3t"
    assert by_protocol["atomic_ns"].non_skipping
    assert by_protocol["atomic_ns"].byzantine_clients
    # Erasure coding beats replication on storage by a wide margin.
    assert by_protocol["atomic_ns"].measured.storage_blowup < \
        by_protocol["martin"].measured.storage_blowup / 2
    assert comparison_table.render(rows)


def test_t2_model_tracks_measurement():
    rows = complexity_table.run(ts=(1,), value_sizes=(1024, 8192))
    for row in rows:
        assert 0.5 < row.write_bytes_ratio < 2.0
        assert 0.5 < row.read_bytes_ratio < 2.0
        assert 0.8 < row.write_messages_ratio < 1.2
    assert complexity_table.render(rows)


def test_f1_storage_blowup_shape():
    rows = storage_blowup.run(ts=(1, 2), value_size=4096)
    erasure = [row for row in rows if row.protocol == "atomic_ns"]
    replicated = [row for row in rows if row.protocol == "martin"]
    for erasure_row, replicated_row in zip(erasure, replicated):
        assert erasure_row.measured_blowup < \
            replicated_row.measured_blowup / 1.8
    # Replication blow-up grows with n; erasure stays near n/(n-t).
    assert replicated[1].measured_blowup > replicated[0].measured_blowup
    assert storage_blowup.render(rows)


def test_f1_k_sweep_monotone():
    rows = storage_blowup.run_k_sweep(n=4, t=1, value_size=4096)
    blowups = [row.measured_blowup for row in rows]
    assert blowups == sorted(blowups, reverse=True)


def test_f2_crossover_exists():
    points = communication_sweep.run(value_sizes=(64, 32768), seed=0)
    crossover = communication_sweep.read_crossover(points)
    assert crossover == 32768  # erasure wins reads for large values
    assert communication_sweep.render(points)


def test_f3_quadratic_vs_linear():
    rows = message_complexity.run(ts=(1, 2), value_size=256)
    series = message_complexity.coefficients(rows)
    # Erasure write msgs / n^2 stays roughly flat...
    atomic = series["atomic"]
    assert 0.6 < atomic[1] / atomic[0] < 1.4
    # ...while replication's per-n^2 coefficient decays like 1/n.
    martin = series["martin"]
    assert martin[1] < martin[0] * 0.75
    assert message_complexity.render(rows)


def test_f4_attack_outcomes():
    outcomes = timestamp_attack.run(t=1, honest_writes=3)
    by_key = {(o.scenario, o.protocol): o for o in outcomes}
    assert not by_key[("server-inflation", "atomic")].non_skipping
    assert by_key[("server-inflation", "atomic_ns")].non_skipping
    assert not by_key[("server-inflation", "martin")].non_skipping
    assert by_key[("server-inflation", "bazzi_ding")].non_skipping
    assert not by_key[("client-skipping", "atomic")].non_skipping
    assert by_key[("client-skipping", "atomic_ns")].non_skipping
    assert not by_key[("client-skipping", "bazzi_ding")].non_skipping
    assert by_key[("client-replay", "atomic_ns")].non_skipping
    assert timestamp_attack.render(outcomes)


def test_f4_ignores_timestamps_stored_at_byzantine_servers(monkeypatch):
    """Only honest servers' stored timestamps count: a Byzantine
    server's, poked above every honest one once the run is over, is
    not reported."""
    poked = 10 ** 15
    faulty = []
    derive = timestamp_attack.byzantine

    def tracked(server_cls, behaviour):
        def factory(pid, config):
            faulty.append(derive(server_cls, behaviour)(pid, config))
            return faulty[-1]
        return factory

    run_network = Cluster.run

    def run_then_poke(self, *args, **kwargs):
        steps = run_network(self, *args, **kwargs)
        for server in faulty:
            server.register_state("reg").timestamp = Timestamp(poked, "x")
        return steps

    monkeypatch.setattr(timestamp_attack, "byzantine", tracked)
    monkeypatch.setattr(Cluster, "run", run_then_poke)
    outcomes = timestamp_attack.run(t=1, honest_writes=3)
    inflation = [outcome for outcome in outcomes
                 if outcome.scenario == "server-inflation"]
    assert len(inflation) == 4 and len(faulty) == 4
    assert all(outcome.max_timestamp < poked for outcome in inflation)


def test_f5_matrix_boundary():
    cells = resilience_matrix.run(ts=(1,))
    by_key = {(cell.protocol, cell.faulty): cell.verdict for cell in cells}
    assert by_key[("atomic_ns", 0)] == resilience_matrix.OK
    assert by_key[("atomic_ns", 1)] == resilience_matrix.OK
    assert by_key[("atomic_ns", 2)] == resilience_matrix.STALLED
    assert by_key[("bazzi_ding", 0)] == resilience_matrix.NOT_APPLICABLE
    assert all(cell.verdict != resilience_matrix.VIOLATION
               for cell in cells)
    assert resilience_matrix.render(cells)


def test_f6_rollback_linear_vs_flat():
    rows = poisonous_writes.run(counts=(0, 2), t=1, value_size=128)
    goodson = {row.poisonous_writes: row for row in rows
               if row.protocol == "goodson"}
    atomic_ns = {row.poisonous_writes: row for row in rows
                 if row.protocol == "atomic_ns"}
    assert goodson[2].rollback_rounds == 2
    assert goodson[2].read_messages > goodson[0].read_messages
    assert atomic_ns[2].rollback_rounds == 0
    assert abs(atomic_ns[2].read_messages
               - atomic_ns[0].read_messages) <= 2
    assert goodson[2].poison_took_effect
    assert not atomic_ns[2].poison_took_effect
    assert poisonous_writes.render(rows)


def test_f7_concurrency():
    rows = concurrency_sweep.run(writer_counts=(1, 2), readers=2,
                                 writes_per_writer=1)
    assert all(row.all_terminated and row.atomic for row in rows)
    assert concurrency_sweep.render(rows)


def test_f8_threshold_costs():
    costs = threshold_bench.run(group_sizes=(4,), prime_bits=(128,),
                                repeat=1)
    by_backend = {cost.backend: cost for cost in costs}
    assert by_backend["shoup-256b"].sign_ms > \
        by_backend["ideal"].sign_ms
    assert threshold_bench.render(costs)
