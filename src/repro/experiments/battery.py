"""The experiment battery: every reproduced table and figure, listed once.

:data:`EXPERIMENTS` is the one list of the paper's experiments
(T1–T2, F1–F13; DESIGN.md §3).  An entry names its id, its report
heading and the harness functions it runs.  Full scale is each
function's own defaults; an entry holds only its ``--fast`` overrides.
Every route runs experiments through :func:`run_experiment`:

* ``repro experiments [ids] [--fast] [--bench-dir DIR]``;
* ``python -m repro.experiments.run_all [--fast]``;
* ``python -m repro.experiments.report [--fast] [-o FILE]``;
* ``python -m repro.experiments.<module>``, one experiment at full scale.

With a bench directory (the argument, else ``REPRO_BENCH_DIR``) each
experiment run writes ``BENCH_<id>_<module>.json`` whose data maps
each step's key to its result.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.experiments import (
    broadcast_comparison,
    communication_sweep,
    comparison_table,
    complexity_table,
    concurrency_sweep,
    consensus_comparison,
    latency_rounds,
    listeners_ablation,
    message_complexity,
    poisonous_writes,
    resilience_matrix,
    scheduler_sensitivity,
    storage_blowup,
    threshold_bench,
    timestamp_attack,
)
from repro.obs.bench import emit_bench
from repro.obs.clock import wall_seconds


@dataclass(frozen=True)
class Step:
    """One harness function an experiment runs, and how its result prints.

    ``key`` names the result in the experiment's BENCH document.  A step
    with a ``source`` runs on that earlier step's result; any other step
    runs with its defaults, or with ``fast`` under ``--fast``.
    """

    key: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    fast: Mapping[str, Any] = field(default_factory=dict)
    source: Optional[str] = None


@dataclass(frozen=True)
class Experiment:
    """One reproduced table or figure: its id, heading and steps."""

    id: str
    heading: str
    steps: Tuple[Step, ...]

    @property
    def module(self) -> str:
        """The harness module's short name (``storage_blowup``)."""
        return self.steps[0].run.__module__.rpartition(".")[2]

    @property
    def bench_name(self) -> str:
        """The BENCH document's name (``f1_storage_blowup``)."""
        return f"{self.id.lower()}_{self.module}"


def _rows(module, **fast) -> Step:
    """The usual single step: ``module.run`` rendered by ``module.render``."""
    return Step("rows", module.run, module.render, fast)


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("T1", "Protocol comparison", (_rows(comparison_table),)),
    Experiment("T2", "Complexity: measured vs analytic", (
        _rows(complexity_table, ts=(1, 2), value_sizes=(1024, 16384)),)),
    Experiment("F1", "Storage blow-up vs n", (
        _rows(storage_blowup, ts=(1, 2, 3)),
        Step("k_sweep", storage_blowup.run_k_sweep,
             storage_blowup.render_k_sweep, {"n": 7, "t": 2}))),
    Experiment("F2", "Communication vs value size", (
        Step("points", communication_sweep.run, communication_sweep.render,
             {"value_sizes": (64, 4096, 65536)}),
        Step("read_crossover", communication_sweep.read_crossover,
             communication_sweep.render_crossover, source="points"))),
    Experiment("F3", "Message complexity vs n", (
        _rows(message_complexity, ts=(1, 2, 3)),)),
    Experiment("F4", "Timestamp growth under attack", (
        _rows(timestamp_attack),)),
    Experiment("F5", "Resilience matrix", (
        _rows(resilience_matrix, ts=(1,)),)),
    Experiment("F6", "Reads after poisonous writes", (
        _rows(poisonous_writes, counts=(0, 1, 2, 4)),)),
    Experiment("F7", "Concurrency", (
        _rows(concurrency_sweep, writer_counts=(1, 2)),)),
    Experiment("F8", "Threshold-signature costs", (
        _rows(threshold_bench, group_sizes=(4,), prime_bits=(128, 256),
              repeat=2),)),
    Experiment("F9", "Listeners ablation", (
        _rows(listeners_ablation, write_counts=(0, 4)),)),
    Experiment("F10", "Latency in message rounds", (
        _rows(latency_rounds),
        Step("rollback", latency_rounds.run_goodson_rollback_latency,
             latency_rounds.render_rollback))),
    Experiment("F11", "Scheduler sensitivity", (
        _rows(scheduler_sensitivity, writes=2, reads=2),)),
    Experiment("F12", "Large-value broadcast", (
        _rows(broadcast_comparison, ts=(1, 2)),)),
    Experiment("F13", "Consensus-free vs atomic-broadcast register", (
        _rows(consensus_comparison, ts=(1,)),)),
)


def select(ids: Sequence[str] = ()) -> Tuple[Experiment, ...]:
    """The experiments named by ``ids`` (any case), in the order given;
    every experiment when ``ids`` is empty.  An unknown id raises
    :class:`ConfigurationError`."""
    if not ids:
        return EXPERIMENTS
    by_id = {experiment.id: experiment for experiment in EXPERIMENTS}
    unknown = [name for name in ids if name.upper() not in by_id]
    if unknown:
        raise ConfigurationError(
            f"unknown experiments: {unknown}; choose from "
            f"{[experiment.id.lower() for experiment in EXPERIMENTS]}")
    return tuple(by_id[name.upper()] for name in ids)


def run_experiment(experiment: Experiment, fast: bool = False,
                   bench_dir: Optional[str] = None
                   ) -> Tuple[Dict[str, Any], str]:
    """Run each of the experiment's functions once.

    Returns the results by step key and the rendered tables.  With a
    bench directory (``bench_dir``, else ``REPRO_BENCH_DIR``) the
    results are also written as ``BENCH_<id>_<module>.json``.
    """
    results: Dict[str, Any] = {}
    for step in experiment.steps:
        if step.source is not None:
            results[step.key] = step.run(results[step.source])
        else:
            results[step.key] = step.run(**(step.fast if fast else {}))
    text = "\n\n".join(step.render(results[step.key])
                       for step in experiment.steps)
    emit_bench(experiment.bench_name, results,
               directory=Path(bench_dir) if bench_dir else None)
    return results, text


def run_battery(ids: Sequence[str] = (), fast: bool = False,
                bench_dir: Optional[str] = None) -> None:
    """Print the named experiments (all for none), one timed section
    each."""
    for experiment in select(ids):
        start = wall_seconds()
        _, text = run_experiment(experiment, fast, bench_dir)
        elapsed = wall_seconds() - start
        print(f"\n=== {experiment.id} ({elapsed:.1f}s) " + "=" * 40)
        print(text)
        sys.stdout.flush()
