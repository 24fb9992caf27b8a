"""Trace tooling and the command-line interface."""

import io
import json

import pytest

from repro.analysis.trace import (
    export_events_jsonl,
    match_operations,
    operation_summary,
    traffic_summary,
)
from repro.cli import build_parser, main
from repro.cluster import build_cluster
from repro.common.ids import client_id
from repro.config import SystemConfig
from repro.net.message import EVENT_INPUT, EVENT_OUTPUT, LocalEvent
from repro.net.schedulers import RandomScheduler


@pytest.fixture
def run_cluster():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=2,
                            scheduler=RandomScheduler(0))
    cluster.write(1, "reg", "w1", b"traced value")
    cluster.read(2, "reg", "r1")
    cluster.run()
    return cluster


def test_operation_summary(run_cluster):
    text = operation_summary(run_cluster.simulator.event_log)
    assert "write w1" in text
    assert "read  r1" in text
    assert "C1" in text and "C2" in text


def _event(time, kind, action, oid, client=1):
    return LocalEvent(time=time, party=client_id(client), kind=kind,
                      tag="reg", action=action, payload=(oid,))


def test_match_operations_reused_oid_closes_lifo():
    events = [
        _event(1, EVENT_INPUT, "write", "w"),
        _event(2, EVENT_INPUT, "write", "w"),  # same key, still open
        _event(3, EVENT_OUTPUT, "ack", "w"),
        _event(4, EVENT_OUTPUT, "ack", "w"),
    ]
    pairs, unmatched, still_open = match_operations(events)
    assert not unmatched and not still_open
    assert [(start.time, end.time) for start, end in pairs] \
        == [(2, 3), (1, 4)]
    # both invocations appear in the summary instead of one
    # overwriting the other
    summary = operation_summary(events)
    assert summary.count("write w") == 2


def test_match_operations_flags_stragglers():
    events = [
        _event(1, EVENT_OUTPUT, "ack", "orphan"),  # truncated log
        _event(2, EVENT_INPUT, "read", "r-open"),
        _event(3, EVENT_INPUT, "write", "w1", client=2),
        _event(4, EVENT_OUTPUT, "ack", "w1", client=2),
    ]
    pairs, unmatched, still_open = match_operations(events)
    assert len(pairs) == 1
    assert [event.time for event in unmatched] == [1]
    assert [event.time for event in still_open] == [2]
    summary = operation_summary(events)
    assert "(unmatched completion)" in summary
    assert "(never completed)" in summary


def test_match_operations_separates_clients_and_kinds():
    events = [
        _event(1, EVENT_INPUT, "write", "x", client=1),
        _event(2, EVENT_INPUT, "write", "x", client=2),
        _event(3, EVENT_OUTPUT, "ack", "x", client=2),
    ]
    pairs, _, still_open = match_operations(events)
    assert pairs[0][0].party == client_id(2)
    assert still_open[0].party == client_id(1)
    # a read completion never closes a write invocation
    assert match_operations([
        _event(1, EVENT_INPUT, "write", "y"),
        _event(2, EVENT_OUTPUT, "read", "y"),
    ])[0] == []


def test_operation_summary_empty():
    assert operation_summary([]) == "(no operations)"


def test_traffic_summary(run_cluster):
    text = traffic_summary(run_cluster.simulator.metrics, "reg")
    assert "messages" in text
    assert "avid-echo" in text


def test_export_jsonl(run_cluster):
    stream = io.StringIO()
    count = export_events_jsonl(run_cluster.simulator.event_log, stream)
    lines = stream.getvalue().strip().splitlines()
    assert count == len(lines) > 0
    record = json.loads(lines[0])
    assert {"time", "party", "kind", "tag", "action",
            "payload"} <= set(record)


# -- CLI -----------------------------------------------------------------------

def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["simulate", "--n", "7", "--t", "2"])
    assert args.n == 7 and args.t == 2
    args = parser.parse_args(["experiments", "f4", "--fast"])
    assert args.names == ["f4"] and args.fast


def test_cli_simulate(capsys):
    assert main(["simulate", "--writes", "2", "--reads", "2",
                 "--seed", "3", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "linearizable" in out
    assert "traffic under 'reg'" in out
    assert "write w0" in out


def test_cli_simulate_all_protocols(capsys):
    for protocol in ("atomic", "martin", "no_listeners"):
        assert main(["simulate", "--protocol", protocol, "--writes", "1",
                     "--reads", "1"]) == 0


def test_cli_info(capsys):
    assert main(["info", "--n", "7", "--t", "2"]) == 0
    out = capsys.readouterr().out
    assert "atomic_ns" in out and "n > 3t" in out


def test_cli_experiments_selected(capsys):
    assert main(["experiments", "f4"]) == 0
    out = capsys.readouterr().out
    assert "timestamp growth" in out


def test_cli_experiments_unknown():
    assert main(["experiments", "zz"]) == 2
