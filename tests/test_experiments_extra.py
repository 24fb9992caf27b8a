"""The extension experiments (F9-F12) at reduced scale, plus the
battery registration check and how the run verdict reaches F7."""

import pytest

import repro.analysis.history
from repro.experiments import (
    broadcast_comparison,
    concurrency_sweep,
    latency_rounds,
    listeners_ablation,
    scheduler_sensitivity,
)
from repro.experiments.battery import EXPERIMENTS


def test_all_experiments_registered_in_cli():
    assert [experiment.id for experiment in EXPERIMENTS] == [
        "T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
        "F9", "F10", "F11", "F12", "F13"]


def test_f9_listeners_ablation_small():
    rows = listeners_ablation.run(write_counts=(0, 4), reads=2)
    by_key = {(row.variant, row.concurrent_writes): row for row in rows}
    assert by_key[("atomic", 0)].rounds_per_read == 1.0
    assert by_key[("atomic", 4)].rounds_per_read == 1.0
    assert by_key[("no_listeners", 4)].rounds_per_read >= 1.0
    assert all(row.atomic for row in rows)
    assert listeners_ablation.render(rows)


def test_f10_latency_rounds_small():
    rows = latency_rounds.run(t=1, protocols=("martin", "atomic"))
    by_protocol = {row.protocol: row for row in rows}
    assert by_protocol["martin"].write_rounds == 4
    assert by_protocol["atomic"].write_rounds in (6, 7)
    assert latency_rounds.render(rows)


def test_f10b_rollback_latency_small():
    rows = latency_rounds.run_goodson_rollback_latency(counts=(0, 1))
    assert rows[0].read_rounds == 2
    assert rows[1].read_rounds == 4
    assert latency_rounds.render_rollback(rows)


def test_f11_scheduler_sensitivity_small():
    rows = scheduler_sensitivity.run(writes=2, reads=2)
    assert len(rows) == 4
    assert all(row.terminated and row.atomic for row in rows)
    assert all(row.load_imbalance < 1.5 for row in rows)
    assert scheduler_sensitivity.render(rows)


def test_f12_broadcast_comparison_small():
    rows = broadcast_comparison.run(ts=(1, 2), value_size=4096)
    assert all(row.avid_rbc_bytes < row.bracha_bytes for row in rows)
    assert rows[1].ratio > rows[0].ratio
    assert broadcast_comparison.render(rows)


def test_a_checker_error_propagates_out_of_f7(monkeypatch):
    """Only an atomicity violation reads as "atomic: NO"; an error
    inside the checker is a bug and surfaces."""
    def broken(operations, initial_value=b""):
        raise TypeError("checker bug")

    monkeypatch.setattr(repro.analysis.history, "check_atomicity", broken)
    with pytest.raises(TypeError, match="checker bug"):
        concurrency_sweep.run(writer_counts=(1,), readers=1,
                              writes_per_writer=1)
