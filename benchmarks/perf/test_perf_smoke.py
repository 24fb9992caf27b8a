"""Smoke test of kvperf: ``python -m pytest benchmarks/perf -q``.

Runs ``run.py --smoke`` once (every ``ops`` / 8, one repetition of each
kind) and checks the output against ``BENCHMARK.json``: every workload
and metric named there appears, by name and with its unit, and the file
itself stays inside the benchmark contract's limits.  Not part of
tier-1 (``testpaths`` is ``tests``).
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("kvperf") / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out",
         str(out)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=170)
    elapsed = time.monotonic() - started
    assert done.returncode == 0
    return done.stdout, json.loads(out.read_text()), elapsed


def test_contract_file_is_within_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in contract["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = [entry for entry in contract["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(entry["bound"] for entry
                                   in contract["end_to_end"])}]
    for entry in contract["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_contract_file_matches_the_catalogue(contract):
    assert [(entry["name"], entry["why"])
            for entry in contract["workloads"]] == [
        (name, spec["why"]) for name, spec in WORKLOADS.items()]
    assert [(entry["name"], entry["unit"], entry["better"],
             entry["bound"]) for entry in contract["end_to_end"]] \
        == list(END_TO_END)
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in contract["per_layer"]] == list(PER_LAYER)


def test_smoke_run_reports_every_metric_with_its_unit(contract, smoke):
    stdout, document, elapsed = smoke
    assert elapsed < 30
    assert document["ops_scale"] == 1 / 8
    for workload in contract["workloads"]:
        result = document["workloads"][workload["name"]]
        assert result["repetitions"] == {"serve": 1, "case": 1,
                                         "layers": 1}
        assert result["failed"] == 0
        for section in ("end_to_end", "per_layer"):
            for entry in contract[section]:
                reported = result[section][entry["name"]]
                assert reported["unit"] == entry["unit"]
                assert re.search(
                    rf"^{workload['name']} {re.escape(entry['name'])} = "
                    rf"\S+ {re.escape(entry['unit'])}( |$)", stdout,
                    re.MULTILINE), entry["name"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
