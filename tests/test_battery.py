"""The experiment battery: one list of experiments drives every route."""

import importlib
import inspect
import os
import pkgutil
import re
from pathlib import Path

import repro.experiments
from repro.cli import main
from repro.experiments.battery import EXPERIMENTS
from repro.obs import BENCH_ENV

REPO_ROOT = Path(__file__).resolve().parent.parent
IDS = [experiment.id for experiment in EXPERIMENTS]


def test_fast_battery_prints_each_section_once_and_benches_each(
        tmp_path, capsys):
    assert main(["experiments", "--fast", "--bench-dir",
                 str(tmp_path)]) == 0
    sections = re.findall(r"^=== (\S+) ", capsys.readouterr().out, re.M)
    assert sections == IDS
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"BENCH_{experiment.bench_name}.json" for experiment in EXPERIMENTS)


def test_named_experiment_honours_fast(capsys):
    assert main(["experiments", "f1", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "F1b" in out
    assert not re.search(r"\| 1[36] +\|", out)


def test_bench_dir_does_not_leak_into_the_environment(tmp_path,
                                                       monkeypatch):
    monkeypatch.delenv(BENCH_ENV, raising=False)
    assert main(["experiments", "f4", "--bench-dir", str(tmp_path)]) == 0
    assert BENCH_ENV not in os.environ
    assert (tmp_path / "BENCH_f4_timestamp_attack.json").exists()


def test_one_list_of_experiments():
    """The ratchet: the battery, DESIGN.md §3 and the ``benchmarks/``
    targets name the same experiments, every harness module with a
    top-level ``run`` is in the battery, and each module's ``__main__``
    runs its own entry.  A new experiment is one battery entry, a
    DESIGN.md row and a bench target."""
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| \*\*([TF]\d+)\*\*", design, re.M)
    benched = {match.group(1).upper()
               for path in (REPO_ROOT / "benchmarks").glob("test_*.py")
               for match in [re.match(r"test_([tf]\d+)_", path.name)]
               if match}
    assert len(set(IDS)) == len(IDS)
    assert set(IDS) == set(documented) == benched
    harness = set()
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        run = getattr(module, "run", None)
        if inspect.isfunction(run) and run.__module__ == module.__name__:
            harness.add(info.name)
    assert harness == {experiment.module for experiment in EXPERIMENTS}
    for experiment in EXPERIMENTS:
        module = importlib.import_module(
            f"repro.experiments.{experiment.module}")
        assert f'run_battery(["{experiment.id}"])' in \
            inspect.getsource(module), experiment.id
