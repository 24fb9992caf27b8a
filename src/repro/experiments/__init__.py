"""Experiment harness: one module per reproduced table/figure.

See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for a
captured run.  :mod:`repro.experiments.battery` lists the fifteen
experiments (T1–T2, F1–F13) once, with their ``--fast`` overrides, and
runs them for every route: ``repro experiments``,
``python -m repro.experiments.run_all``, ``python -m
repro.experiments.report`` and ``python -m repro.experiments.<module>``.
Each harness module's ``run``/``render`` functions are importable on
their own.
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
