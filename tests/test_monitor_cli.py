"""The ``repro monitor`` command: smoke coverage of every source and
byte-identical output across repeated runs of the same seed."""

import json

from repro.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


# -- simulate source -----------------------------------------------------------

def test_monitor_simulate_smoke(capsys, tmp_path):
    code, out = run_cli(
        ["monitor", "--plan", "none", "--writes", "2", "--reads", "2",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "== fleet health ==" in out
    assert "== slos ==" in out
    assert "== planes ==" in out
    payload = json.loads(
        (tmp_path / "BENCH_health.json").read_text())
    assert payload["data"]["source"] == "simulate"
    assert payload["data"]["telemetry"]["health"]


def test_monitor_rejects_unknown_plan(capsys):
    code, _ = run_cli(["monitor", "--plan", "no-such-plan"], capsys)
    assert code == 2


def test_monitor_output_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out = run_cli(
            ["monitor", "--plan", "slow-server"], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "replication-skew" in outputs[0]


def test_monitor_writes_html_and_prometheus(capsys, tmp_path):
    html = tmp_path / "health.html"
    prom = tmp_path / "health.prom"
    code, _ = run_cli(
        ["monitor", "--plan", "none", "--writes", "2", "--reads", "2",
         "--html", str(html), "--prom", str(prom)], capsys)
    assert code == 0
    assert "<html" in html.read_text().lower()
    assert "repro_health_suspicion" in prom.read_text()


# -- kv-bench source -----------------------------------------------------------

def test_monitor_kv_bench_smoke(capsys, tmp_path):
    code, out = run_cli(
        ["monitor", "--source", "kv-bench", "--smoke", "--shards", "2",
         "--out", str(tmp_path), "--label", "kv_health"], capsys)
    assert code == 0
    assert "== series ==" in out
    payload = json.loads(
        (tmp_path / "BENCH_kv_health.json").read_text())
    assert payload["data"]["source"] == "kv-bench"
    assert payload["data"]["row"]["linearizable"] is True


def test_monitor_kv_bench_reports_session_cache_section(capsys, tmp_path):
    code, out = run_cli(
        ["monitor", "--source", "kv-bench", "--smoke", "--protocol",
         "atomic_md", "--cache", "16", "--lease-ticks", "8",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "== session cache ==" in out
    assert "seed" in out and "lease" in out  # decisions were recorded


def test_monitor_kv_bench_uncached_shows_inactive_cache_section(
        capsys, tmp_path):
    code, out = run_cli(
        ["monitor", "--source", "kv-bench", "--smoke", "--shards", "2",
         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "(no session-cache activity)" in out


# -- chaos source --------------------------------------------------------------

def test_monitor_chaos_sweep_smoke(capsys, tmp_path):
    code, out = run_cli(
        ["monitor", "--source", "chaos", "--plans", "none", "boundary",
         "--seeds", "1", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "separation" in out
    payload = json.loads(
        (tmp_path / "BENCH_health.json").read_text())
    runs = {run["plan"]: run for run in payload["data"]["runs"]}
    assert runs["none"]["alerts"] == []
    assert runs["boundary"]["separated"] is True
