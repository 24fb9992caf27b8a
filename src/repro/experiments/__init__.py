"""Experiment harness: one module per reproduced table/figure.

See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for a
captured run.  :mod:`repro.experiments.battery` lists the fifteen
experiments (T1–T2, F1–F13) once, with their ``--fast`` overrides, and
runs them for every route: ``repro experiments``,
``python -m repro.experiments.run_all``, ``python -m
repro.experiments.report`` and ``python -m repro.experiments.<module>``.
Each harness module's ``run``/``render`` functions are importable on
their own.

Harnesses share one measurement and one judgement.  An isolated
operation's cost comes from
:func:`repro.experiments.common.run_isolated_probe` (prime, isolated
write, isolated read; T1–T2, F1–F3, F10, F13).  A register run is
judged by :func:`repro.analysis.history.run_verdict` (F5 through
:func:`repro.chaos.execute_run`, F7, F9, F11), and a write counts as
taken effect by :func:`repro.analysis.history.effected_writes` (F4,
F6).
"""

from repro.experiments.common import (
    IsolatedCosts,
    OperationCost,
    measure_isolated_costs,
    render_table,
)

__all__ = [
    "IsolatedCosts",
    "OperationCost",
    "measure_isolated_costs",
    "render_table",
]
