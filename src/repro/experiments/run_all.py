"""Run every experiment (T1–T2, F1–F13) and print the tables.

Usage::

    python -m repro.experiments.run_all [--fast]

``--fast`` shrinks sweep ranges for a quick end-to-end pass.  The full run
regenerates every table/figure indexed in DESIGN.md §3; EXPERIMENTS.md
records one captured run next to the paper's claims.  The experiments
and their ``--fast`` overrides are listed in
:mod:`repro.experiments.battery`.
"""

from __future__ import annotations

import argparse

from repro.experiments.battery import run_battery


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="smaller sweeps (seconds instead of minutes)")
    run_battery(fast=parser.parse_args(argv).fast)


if __name__ == "__main__":
    main()
