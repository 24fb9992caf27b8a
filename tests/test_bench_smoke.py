"""Smoke tests for the benchmark harnesses: the pytest-benchmark
suites under ``benchmarks/``, kvperf (``benchmarks/perf``) and
``repro kv-bench``.

These run next to the tier-1 suite so a broken benchmark path is caught
at test time, not when someone needs performance numbers.  The smoke
variants use tiny workloads — the point is that every benchmark *runs*
and emits well-formed output, not that the numbers mean anything.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import LivenessError
from repro.kv.bench import (
    MD_COMPARE,
    READHEAVY,
    check_comparison,
    run_comparison,
)
from repro.repair.bench import CHURN

REPO_ROOT = Path(__file__).resolve().parent.parent


def _committed(label):
    return json.loads((REPO_ROOT / "benchmarks" /
                       f"BENCH_{label}.json").read_text())["data"]


def test_micro_benchmark_files_run_once_untimed():
    """The pytest-benchmark kernel, agreement and lint suites stay
    runnable: each case runs once with timing disabled, so a broken
    benchmark fails here rather than when someone needs its number."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest",
         "benchmarks/test_micro_substrates.py",
         "benchmarks/test_micro_agreement.py",
         "benchmarks/test_micro_lint.py", "--benchmark-disable", "-q"],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, (result.stdout, result.stderr)


def test_kvperf_smoke_runs_against_the_pinned_surface(tmp_path):
    """``BENCHMARK.json``'s benchmark wraps public names of the kv stack
    from the outside (``encoded_size``, ``Message.wire_size``,
    ``kv_flush``, ...) and requires its traced and untraced repetitions
    to report one schedule; a smoke run of one workload exercises both.
    Read-only use: the benchmark's own tests live next to it."""
    out = tmp_path / "smoke.json"
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "perf" / "run.py"),
         "--smoke", "--workload", "mixed_small", "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=REPO_ROOT)
    assert result.returncode == 0, (result.stdout, result.stderr)
    assert out.exists()


def test_cli_kv_bench_smoke_writes_json(tmp_path):
    """``repro kv-bench --smoke`` must run the sharded load harness end
    to end (n=4, shards 1 and 2, plus one chaos case) and write a
    well-formed ``BENCH_*.json`` document."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kv-bench", "--smoke",
         "--label", "kv_smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, result.stderr
    written = list(tmp_path.glob("BENCH_*kv_smoke*.json"))
    assert written, (result.stdout, result.stderr)
    rows = json.loads(written[0].read_text())["data"]["rows"]
    fault_free = [row for row in rows if row["plan"] is None]
    assert [row["shards"] for row in fault_free] == [1, 2]
    assert all(row["linearizable"] for row in rows)
    assert any(row["plan"] is not None for row in rows)
    assert fault_free[1]["ops_per_tick"] > fault_free[0]["ops_per_tick"]


def test_cli_kv_bench_smoke_runs_atomic_md(tmp_path):
    """The smoke path must exercise the metadata/data-separated
    protocol too: ``repro kv-bench --smoke --protocol atomic_md``
    resolves ``k = t + 1`` automatically and stays linearizable."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kv-bench", "--smoke",
         "--protocol", "atomic_md", "--label", "kv_md_smoke",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, result.stderr
    written = list(tmp_path.glob("BENCH_*kv_md_smoke*.json"))
    assert written, (result.stdout, result.stderr)
    rows = json.loads(written[0].read_text())["data"]["rows"]
    assert all(row["linearizable"] for row in rows)
    # One-round-trip reads: their blocks arrive in the metadata replies,
    # and no operation spends ticks outside the write's and read's phases.
    phases = {"ts-query", "block-push", "commit", "quorum-wait", "retrieve"}
    assert all(row["read_data_bytes"] > 0
               and set(row["phase_ticks"]) <= phases for row in rows)


def test_checked_in_kv_md_comparison_meets_acceptance_gates():
    """The committed metadata/data-separation benchmark documents its
    claims: under the 90/10 read-mostly mix ``atomic_md`` serves >= 1.5x
    the ops per tick of ``atomic_ns`` at n=7/t=2, its reads have no
    block-fetch phase, every sampled key linearizes, and the Byzantine
    corrupt-block case actually failed verifications."""
    data = _committed("kv_md")
    assert data["config"]["deployments"] == [[4, 1], [7, 2]]
    assert check_comparison(MD_COMPARE, data) == []


def test_cli_kv_bench_smoke_with_session_cache(tmp_path):
    """``repro kv-bench --smoke --cache N --lease-ticks T`` must thread
    the cache configuration end to end: rows stay linearizable and the
    cache actually fires (lease hits or revalidations observed)."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kv-bench", "--smoke",
         "--protocol", "atomic_md", "--cache", "16",
         "--lease-ticks", "8", "--label", "kv_cache_smoke",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, result.stderr
    written = list(tmp_path.glob("BENCH_*kv_cache_smoke*.json"))
    assert written, (result.stdout, result.stderr)
    rows = json.loads(written[0].read_text())["data"]["rows"]
    assert all(row["linearizable"] for row in rows)
    assert all(row["cache_size"] == 16 for row in rows)
    activity = sum(row["lease_hits"] + row["revalidations"]
                   for row in rows)
    assert activity > 0, rows


def test_checked_in_kv_readheavy_meets_acceptance_gates():
    """The committed read-heavy comparison documents the PR's claim:
    session caching lifts read throughput by more than 4.5x on the 90/10
    Zipf mix over uncached ``atomic_md``, every row linearizes —
    including the chaos and Byzantine-metadata cases — and the
    forged-metadata attacker only ever forces full-read fallbacks."""
    assert check_comparison(READHEAVY, _committed("kv_readheavy")) == []


def test_gate_checker_names_what_a_document_fails():
    """The one checker behind ``--check`` and the tests above: a
    document that misses its claim fails by gate, one that lost a case
    fails every gate that needs it."""
    data = _committed("kv_readheavy")
    data["summary"]["read_throughput_ratio"] = 4.4
    data["rows"][1]["linearizable"] = False
    assert check_comparison(READHEAVY, data) == [
        "every case linearizable", "read throughput ratio > 4.5"]
    data["rows"] = [row for row in data["rows"]
                    if row["case"] != "cached"]
    assert check_comparison(READHEAVY, data) == ["document lacks 'cached'"]


def test_cli_kv_bench_check_exits_nonzero_on_a_failed_gate(tmp_path,
                                                           capsys):
    document = {"bench": "kv_churn", "data": _committed("kv_churn")}
    _set_retention(document["data"], 0.5)
    path = tmp_path / "BENCH_kv_churn.json"
    path.write_text(json.dumps(document))
    assert main(["kv-bench", "--churn", "--check", str(path)]) == 1
    assert "throughput retention >= 0.84" in capsys.readouterr().out


def test_cli_kv_bench_check_pins_the_committed_readheavy_document():
    """CI entry point: ``repro kv-bench --check`` re-validates the
    committed read-heavy document's acceptance gates."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kv-bench", "--check",
         str(REPO_ROOT / "benchmarks" / "BENCH_kv_readheavy.json")],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, (result.stdout, result.stderr)
    assert "readheavy check ok" in result.stdout


def test_checked_in_kv_baseline_shows_shard_scaling():
    """The committed kv baseline documents the PR's scaling claim:
    strictly increasing ops/tick over shards 1, 4, 16."""
    document = json.loads(
        (REPO_ROOT / "benchmarks" / "BENCH_kv_baseline.json").read_text())
    rows = document["data"]["rows"]
    fault_free = [row for row in rows if row["plan"] is None]
    assert [row["shards"] for row in fault_free] == [1, 4, 16]
    rates = [row["ops_per_tick"] for row in fault_free]
    assert rates[0] < rates[1] < rates[2]
    assert all(row["linearizable"] for row in rows)
    chaos_rows = [row for row in rows if row["plan"] is not None]
    assert chaos_rows and chaos_rows[0]["plan"] == "delays"


def test_checked_in_kv_baseline_row_regenerates_exactly():
    """No gate re-ran a committed row until now: the shard-1 row of the
    kv baseline must come out of today's code column for column —
    ticks, traffic, and the per-phase attribution the trace index
    feeds."""
    from repro.kv.bench import run_kv_case

    data = json.loads(
        (REPO_ROOT / "benchmarks" / "BENCH_kv_baseline.json").read_text()
    )["data"]
    config, committed = data["config"], data["rows"][0]
    assert (committed["shards"], committed["plan"]) == (1, None)
    row, _cluster = run_kv_case(
        1, n=config["n"], t=config["t"], protocol=config["protocol"],
        sessions=config["sessions"], keys=config["keys"],
        ops=config["ops"], write_ratio=config["write_ratio"],
        distribution=config["distribution"], seed=config["seed"],
        value_size=config["value_size"])
    fresh = row.to_json()
    assert committed["phase_ticks"]
    # the committed file predates the newer columns; every column it
    # has must match
    assert {name: fresh[name] for name in committed} == committed


def test_cli_kv_bench_churn_smoke_writes_json(tmp_path):
    """``repro kv-bench --churn --smoke`` runs the crash-replace storm
    comparison end to end and writes a well-formed document whose
    repaired case survives what the unrepaired case does not."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kv-bench", "--churn",
         "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, result.stderr
    written = list(tmp_path.glob("BENCH_*kv_churn*.json"))
    assert written, (result.stdout, result.stderr)
    data = json.loads(written[0].read_text())["data"]
    cases = {row["case"]: row for row in data["rows"]}
    assert set(cases) == {"faultfree", "churn+repair", "churn-norepair"}
    assert cases["churn+repair"]["linearizable"]
    assert not cases["churn+repair"]["liveness_violation"]
    assert cases["churn+repair"]["replacements"] == 3
    assert data["summary"]["repair_lag_final"] == 0


def test_checked_in_kv_churn_meets_acceptance_gates():
    """The committed churn comparison documents the PR's claim: under a
    ``t + 1`` crash-replace storm at n=7/t=2 the repaired fleet
    finishes every operation linearizably at >= 84 % of fault-free
    throughput on schedule seed 0 (0.8645) with repair lag pinned back
    to zero, while the identical unrepaired storm loses liveness (or
    ends below quorum)."""
    data = _committed("kv_churn")
    assert check_comparison(CHURN, data) == []
    assert data["summary"]["throughput_retention"] == 0.8645


def _set_retention(data, ratio):
    """Scale the repaired row to ``ratio`` of fault-free throughput and
    recompute the summary from the rows."""
    cases = {row["case"]: row for row in data["rows"]}
    base = cases["faultfree"]["ops_per_tick"]
    cases["churn+repair"]["ops_per_tick"] = base * ratio
    data["summary"] = CHURN.summary(data["config"], data["rows"])


def test_churn_retention_gate_reads_the_unrounded_row_ratio():
    """The gate judges the rows' own ratio: 0.8401 passes and is
    recorded to four places, while 0.83996 fails even under a summary
    rounded up to the line (the committed document once read 0.9 for
    an actual 0.8995)."""
    gate = "throughput retention >= 0.84 (seed 0)"
    data = _committed("kv_churn")
    _set_retention(data, 0.8401)
    assert data["summary"]["throughput_retention"] == 0.8401
    assert check_comparison(CHURN, data) == []
    _set_retention(data, 0.83996)
    data["summary"]["throughput_retention"] = 0.84
    assert check_comparison(CHURN, data) == [gate]


def test_checked_in_kv_churn_stalled_row_keeps_its_retry_counts():
    """The unrepaired storm's row reports what ``drive`` had counted
    when it stalled, not the zeros a dropped ``DriveStats`` left."""
    stalled = {row["case"]: row
               for row in _committed("kv_churn")["rows"]}["churn-norepair"]
    assert stalled["liveness_violation"]
    assert (stalled["retries"], stalled["backpressure_hits"]) == (35, 0)


def test_a_stall_the_comparison_did_not_declare_still_fails():
    """Only ``churn-norepair`` may lose liveness; the same stall in a
    case that did not declare it propagates, as it always has."""
    strict = dataclasses.replace(CHURN, may_stall=frozenset())
    with pytest.raises(LivenessError, match="kv drive stalled"):
        run_comparison(strict, smoke=True)


def test_cli_kv_bench_check_pins_the_committed_churn_document():
    """CI entry point: ``repro kv-bench --churn --check`` re-validates
    the committed churn document's acceptance gates."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "kv-bench", "--churn",
         "--check",
         str(REPO_ROOT / "benchmarks" / "BENCH_kv_churn.json")],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, (result.stdout, result.stderr)
    assert "churn check ok" in result.stdout


@pytest.mark.parametrize("flags, label", [
    ((), "kv_baseline"), (("--md-compare",), "kv_md"),
    (("--readheavy",), "kv_readheavy"), (("--churn",), "kv_churn"),
], ids=["sweep", "md-compare", "readheavy", "churn"])
def test_committed_kv_documents_regenerate_byte_for_byte(
        flags, label, tmp_path):
    """Each committed kv document is exactly what its table entry
    produces with no shape flag given — config, every row column and
    the summary, to the byte (``--md-compare`` used to inherit the
    sweep's ``--write-ratio 0.5 --distribution zipf`` defaults and
    write a different document)."""
    assert main(["kv-bench", *flags, "--label", label,
                 "--out", str(tmp_path)]) == 0
    name = f"BENCH_{label}.json"
    assert (tmp_path / name).read_bytes() == \
        (REPO_ROOT / "benchmarks" / name).read_bytes()


@pytest.mark.parametrize("selector, label, cases", [
    ((), "kv", 3), (("--md-compare",), "kv_md", 5),
    (("--readheavy",), "kv_readheavy", 5), (("--churn",), "kv_churn", 3),
], ids=["sweep", "md-compare", "readheavy", "churn"])
def test_cli_kv_bench_smoke_runs_every_comparison_in_process(
        selector, label, cases, tmp_path, capsys):
    """``kv-bench --smoke`` runs each table entry end to end: every
    case produces a linearizable row, the table and the summary are
    printed, the document lands under the entry's own label."""
    assert main(["kv-bench", "--smoke", *selector,
                 "--out", str(tmp_path)]) == 0
    data = json.loads(
        (tmp_path / f"BENCH_{label}.json").read_text())["data"]
    assert len(data["rows"]) == cases
    assert all(row["linearizable"] for row in data["rows"])
    out = capsys.readouterr().out
    assert "linearizable" in out.splitlines()[0]
    assert len(out.splitlines()) >= 2 + cases


def test_cli_repair_smoke_runs_in_process(capsys):
    assert main(["repair", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "3 members replaced" in out and "final repair lag 0" in out
    assert "32/32 ops completed" in out and "(linearizable)" in out
    assert "== repair ==" in out


def test_explicit_shape_flags_override_a_pinned_comparison(tmp_path):
    """A shape flag changes a comparison only when given: ``--seed 3
    --keys 6`` reach the read-heavy cases, everything else stays
    pinned."""
    assert main(["kv-bench", "--readheavy", "--smoke", "--seed", "3",
                 "--keys", "6", "--out", str(tmp_path)]) == 0
    config = json.loads(
        (tmp_path / "BENCH_kv_readheavy.json").read_text()
    )["data"]["config"]
    pinned = {**READHEAVY.shape, **READHEAVY.settings,
              **READHEAVY.smoke}
    assert config == {**pinned, "seed": 3, "keys": 6}
