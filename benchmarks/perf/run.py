#!/usr/bin/env python3
"""kvperf: wall-clock and cost benchmark for the kv stack.

    python3 benchmarks/perf/run.py                 # all workloads, full size
    python3 benchmarks/perf/run.py --smoke         # ops / 8, one rep each
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace T
    python3 benchmarks/perf/run.py compare A.json B.json

Closed loop, four sessions, one process, one thread.  Every repetition
runs in a fresh interpreter, one at a time (see ``rep.py``).  Message
delay is the simulator's — one delivery is one tick — so wall time is
processor time only and is this sandbox's, not a network's.

A run with seed ``S`` draws its schedule seeds from
``workloads.SCHEDULE_SEEDS``: the wall-clock metrics are medians over
the repetitions, the tick, byte and storage metrics are pooled over the
schedules.  It prints every metric by name with its unit, checks the
outputs (linearizable histories; every repetition of one schedule
reports the same schedule, traced or not) and ends with one JSON line.
With ``--workload`` that line is the driver contract's: ``--trace 0``
carries the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402  (sibling module, path set above)
    CONTRACT_SCALE,
    END_TO_END,
    FULL_SCALE,
    PER_LAYER,
    SAME_SCHEDULE_BOUND,
    SCHEDULE_DETERMINED,
    SCHEDULE_SEEDS,
    SEEDS_PER_RUN,
    SMOKE_SCALE,
    WORKLOADS,
)

Plan = Tuple[Tuple[str, int], ...]  # (kind, index of the schedule seed)

#: A full run: five schedules served, three of them traced as a case,
#: one with the timing wrappers.
FULL_PLAN: Plan = (tuple(("serve", index) for index in range(5))
                   + tuple(("case", index) for index in range(3))
                   + (("layers", 0),))
#: ``--trace 0`` under ``--seconds``: the first three always run (two
#: half-size schedules are the fewest whose pooled p95 has ten samples
#: beyond it), each further one only if it is expected to end within
#: the budget.  Case repetitions come first: they are the fewest and
#: their timing is the noisiest.
BUDGET_PLAN: Plan = ((("serve", 0), ("case", 0), ("serve", 1),
                      ("case", 1), ("serve", 2), ("case", 2))
                     + tuple(("serve", index) for index in range(3, 8)))
BUDGET_REQUIRED = 3
#: ``--trace 1`` and ``--smoke``: one schedule, one repetition of each
#: kind (serve and case are the bases of the two overhead shares).
TRACE_PLAN: Plan = (("serve", 0), ("case", 0), ("layers", 0))

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class GateError(Exception):
    """A correctness gate failed; the message names the metric."""


# -- repetitions -----------------------------------------------------------

def schedule_seed(run_seed: int, index: int) -> int:
    """The ``index``-th schedule seed of the run with seed ``run_seed``."""
    return SCHEDULE_SEEDS[(run_seed * SEEDS_PER_RUN + index)
                          % len(SCHEDULE_SEEDS)]


def run_rep(workload: str, kind: str, seed: int, ops: int) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter and parse its result."""
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload, "--kind", kind,
               "--seed", str(seed), "--ops", str(ops)]
    if kind == "layers":
        RESULTS.mkdir(exist_ok=True)
        command += ["--spans-out",
                    str(RESULTS / f"spans-{workload}-{seed}.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.monotonic()
    done = subprocess.run(
        command + ["--spawned-at", repr(started)], env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise GateError(f"{workload}: {kind} repetition on schedule seed "
                        f"{seed} exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def run_plan(workload: str, run_seed: int, ops: int, plan: Plan,
             required: int, seconds: Optional[float]
             ) -> List[Dict[str, Any]]:
    """Run ``plan``'s repetitions in order; past the first ``required``,
    skip each one not expected to end within ``seconds``."""
    started = time.monotonic()
    reps: List[Dict[str, Any]] = []
    last_wall: Dict[str, float] = {}
    for position, (kind, index) in enumerate(plan):
        if position >= required and seconds is not None:
            elapsed = time.monotonic() - started
            if elapsed + last_wall[kind] > seconds:
                continue
        rep = run_rep(workload, kind, schedule_seed(run_seed, index), ops)
        last_wall[kind] = rep["wall_s"]
        reps.append(rep)
    return reps


# -- correctness gates -----------------------------------------------------

def check_reps(workload: str, reps: List[Dict[str, Any]]) -> None:
    """Raise :class:`GateError` naming the history that is not atomic,
    or the first schedule-determined value that differs between two
    repetitions of one schedule seed (the tracer and the timing
    wrappers are measurement-only)."""
    first_of_seed: Dict[int, Dict[str, Any]] = {}
    for rep in reps:
        if rep["atomicity_error"]:
            raise GateError(
                f"{workload}: {rep['kind']} history on schedule seed "
                f"{rep['seed']} is not linearizable: "
                f"{rep['atomicity_error']}")
        first = first_of_seed.setdefault(rep["seed"], rep)
        for name, value in first["schedule"].items():
            if rep["schedule"][name] != value:
                raise GateError(
                    f"{workload}: {name} differs between the "
                    f"{first['kind']} and {rep['kind']} repetitions on "
                    f"schedule seed {rep['seed']}")


# -- aggregation -----------------------------------------------------------

def percentile(samples: List[int], share: float) -> Optional[int]:
    """Nearest-rank percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * share)
    if rank < 1 or len(ordered) - rank < MIN_TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def schedule_metrics(records: List[Dict[str, Any]]
                     ) -> Dict[str, Tuple[Optional[float], int]]:
    """``(value, sample count)`` of each schedule-determined metric,
    pooled over the given schedule records."""
    completed = sum(record["completed"] for record in records)
    reads = [tick for record in records for tick in record["read_ticks"]]
    writes = [tick for record in records for tick in record["write_ticks"]]
    return {
        "ops_per_ktick": (1000.0 * completed / sum(
            record["sim_time"] for record in records), completed),
        "read_ticks_p50": (percentile(reads, 0.50), len(reads)),
        "read_ticks_p95": (percentile(reads, 0.95), len(reads)),
        "write_ticks_p50": (percentile(writes, 0.50), len(writes)),
        "write_ticks_p95": (percentile(writes, 0.95), len(writes)),
        "wire_bytes_per_op": (sum(
            record["total_bytes"] for record in records) / completed,
            completed),
        "stored_bytes_per_user_byte": (
            sum(record["stored_bytes"] for record in records)
            / sum(record["user_bytes"] for record in records), completed),
    }


def quartiles(values: List[float]) -> Tuple[float, float]:
    """First and third quartile (the value itself for one sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric of one workload from its repetitions.

    Timings and memory: ``value`` is the median over repetitions; the
    two throughputs are divided by the host's speed during their
    repetition (see ``rep.reference_loop``), so they read as ops/s on a
    quiet host.  Tick, byte and storage metrics: ``value`` pools the
    run's schedules and the quartiles are over the single schedules.
    """
    serve = [rep for rep in reps if rep["kind"] == "serve"]
    case = [rep for rep in reps if rep["kind"] == "case"]
    measured = {
        "setup_s": [rep["setup_s"] for rep in serve],
        "serve_ops_per_s": [
            rep["schedule"]["completed"] / rep["drive_s"]
            / rep["drive_host_speed"] for rep in serve],
        "case_ops_per_s": [
            rep["schedule"]["completed"] / rep["case_s"]
            / rep["case_host_speed"] for rep in case],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in serve],
    }
    records = [rep["schedule"] for rep in serve]
    pooled = schedule_metrics(records)
    single = [schedule_metrics([record]) for record in records]
    metrics = {}
    for name, unit, better, bound in END_TO_END:
        if name in measured:
            values = measured[name]
            value, count = statistics.median(values), len(values)
        else:
            value, count = pooled[name]
            values = [one[name][0] for one in single
                      if one[name][0] is not None]
        q1, q3 = quartiles(values) if values else (None, None)
        metrics[name] = {"unit": unit, "better": better, "bound": bound,
                         "value": value, "q1": q1, "q3": q3, "n": count,
                         "values": values}
    return metrics


def per_layer(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one workload, from the serve, case and
    layers repetitions of its first schedule seed."""
    by_kind = {rep["kind"]: rep for rep in reversed(reps)}  # first of each
    serve, case, layers_rep = (by_kind[kind] for kind in
                               ("serve", "case", "layers"))
    layers = layers_rep["layers"]
    root = layers["kv.drive"]
    values = dict(case["counts"])
    values["obs.recorder.overhead_share"] = \
        case["drive_s"] / serve["drive_s"] - 1
    values["bench.wrapper_overhead_share"] = \
        layers_rep["drive_s"] / case["drive_s"] - 1
    values["bench.unattributed_share"] = root["busy_s"] / root["span_s"]
    metrics = {}
    for name, unit, _better in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("busy_s", "calls"):
            value = layers.get(layer, {}).get(field, 0)
        else:
            value = values[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def measure(workload: str, run_seed: int, ops: int, plan: Plan,
            required: int, seconds: Optional[float]) -> Dict[str, Any]:
    """Run, gate and aggregate one workload."""
    reps = run_plan(workload, run_seed, ops, plan, required, seconds)
    check_reps(workload, reps)
    kinds = [rep["kind"] for rep in reps]
    result: Dict[str, Any] = {
        "why": WORKLOADS[workload]["why"],
        "ops": ops,
        "schedule_seeds": sorted({rep["seed"] for rep in reps
                                  if rep["kind"] == "serve"}),
        "repetitions": {kind: kinds.count(kind)
                        for kind in ("serve", "case", "layers")},
        "attempted": sum(rep["schedule"]["submitted"] for rep in reps),
        "failed": sum(rep["schedule"]["failed"] for rep in reps),
        "end_to_end": end_to_end(reps),
    }
    result["failed_op_share"] = result["failed"] / result["attempted"]
    if "layers" in kinds:
        result["per_layer"] = per_layer(reps)
        layers_rep = next(rep for rep in reps if rep["kind"] == "layers")
        result["layers"] = layers_rep["layers"]
        result["phase_ticks"] = layers_rep["phase_ticks"]
    result["raw"] = [
        {**{key: value for key, value in rep.items()
            if key not in ("layers", "phase_ticks", "schedule")},
         "schedule": {key: value for key, value in rep["schedule"].items()
                      if not key.endswith("_ticks")}}
        for rep in reps]
    return result


# -- reporting -------------------------------------------------------------

def show(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_workload(name: str, result: Dict[str, Any]) -> None:
    """Every metric of one workload, by name, with its unit."""
    reps = result["repetitions"]
    print(f"== {name}: {result['ops']} ops, schedule seeds "
          f"{result['schedule_seeds']}, repetitions "
          f"serve={reps['serve']} case={reps['case']} "
          f"layers={reps['layers']}, failed {result['failed']}"
          f"/{result['attempted']}")
    for metric, entry in result["end_to_end"].items():
        print(f"{name} {metric} = {show(entry['value'])} "
              f"{entry['unit']} (q1 {show(entry['q1'])}, "
              f"q3 {show(entry['q3'])}, n={entry['n']})")
    for metric, entry in result.get("per_layer", {}).items():
        print(f"{name} {metric} = {show(entry['value'])} "
              f"{entry['unit']}")


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- compare ---------------------------------------------------------------

def verdict(name: str, base: Dict[str, Any], other: Dict[str, Any],
            same_schedules: bool) -> Tuple[str, float]:
    """``(better | worse | same | unresolved, bound applied)`` for one
    metric of one workload, ``other`` against ``base``."""
    exact = same_schedules and name in SCHEDULE_DETERMINED
    bound = SAME_SCHEDULE_BOUND if exact else base["bound"]
    if base["value"] is None or other["value"] is None:
        return "unresolved", bound
    spreads = [0.0 if exact else (entry["q3"] - entry["q1"])
               / entry["value"] for entry in (base, other)]
    if max(spreads) > bound:
        return "unresolved", bound  # spread wider than the bound
    gain = (other["value"] - base["value"]) / base["value"]
    if base["better"] == "lower":
        gain = -gain
    if abs(gain) <= bound:
        return "same", bound
    return ("better" if gain > 0 else "worse"), bound


def compare(path_a: str, path_b: str) -> int:
    """One row per (metric, workload); returns 1 if any is ``worse``."""
    with open(path_a) as handle:
        base_doc = json.load(handle)
    with open(path_b) as handle:
        other_doc = json.load(handle)
    print(f"base A = {path_a} ({base_doc['commit'][:12]}, seed "
          f"{base_doc['seed']}); B = {path_b} "
          f"({other_doc['commit'][:12]}, seed {other_doc['seed']})")
    print("workload metric unit | A value [q1, q3] n | "
          "B value [q1, q3] n | B/A | bound | verdict")
    worse = 0
    for workload, base_result in base_doc["workloads"].items():
        other_result = other_doc["workloads"].get(workload)
        if other_result is None:
            continue
        same_schedules = all(
            base_result[key] == other_result[key]
            for key in ("ops", "schedule_seeds"))
        for metric, base in base_result["end_to_end"].items():
            other = other_result["end_to_end"][metric]
            outcome, bound = verdict(metric, base, other, same_schedules)
            worse += outcome == "worse"
            ratio = "n/a" if None in (base["value"], other["value"]) \
                else f"{other['value'] / base['value']:.4f} (base A)"
            cells = [f"{show(entry['value'])} [{show(entry['q1'])}, "
                     f"{show(entry['q3'])}] n={entry['n']}"
                     for entry in (base, other)]
            print(f"{workload} {metric} {base['unit']} | {cells[0]} | "
                  f"{cells[1]} | {ratio} | {bound:.0%} | {outcome}")
    return 1 if worse else 0


# -- entry point -----------------------------------------------------------

def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("other")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.other)

    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload at the contract's size "
                             "(default: all four at full size)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="--trace 0: start a repetition past the "
                             "first three only if it should end within "
                             "this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer "
                             "metrics (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="ops / 8, one repetition of each kind")
    parser.add_argument("--out", help="result file (default: under "
                                      "benchmarks/perf/results/)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"kvperf: no src/repro under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    # The build: byte-compile once so no repetition's set-up pays it.
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    seconds = None
    if args.smoke or args.trace == 1:
        plan, required = TRACE_PLAN, len(TRACE_PLAN)
    elif args.trace == 0 and args.seconds is not None:
        plan, required, seconds = BUDGET_PLAN, BUDGET_REQUIRED, args.seconds
    else:
        plan = tuple(entry for entry in FULL_PLAN
                     if args.trace is None or entry[0] != "layers")
        required = len(plan)
    ops_scale = (SMOKE_SCALE if args.smoke
                 else CONTRACT_SCALE if args.workload else FULL_SCALE)
    names = [args.workload] if args.workload else list(WORKLOADS)

    document: Dict[str, Any] = {
        "benchmark": "kvperf", "commit": git_commit(), "seed": args.seed,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "ops_scale": ops_scale, "workloads": {}}
    try:
        for name in names:
            result = measure(name, args.seed,
                             int(WORKLOADS[name]["ops"] * ops_scale),
                             plan, required, seconds)
            document["workloads"][name] = result
            print_workload(name, result)
    except GateError as error:
        print(f"kvperf: gate failed: {error}", file=sys.stderr)
        return 1

    if args.out:
        out = Path(args.out)
    else:
        RESULTS.mkdir(exist_ok=True)
        parts = ["kvperf", args.workload or "all", f"seed{args.seed}"]
        if args.trace is not None:
            parts.append(f"trace{args.trace}")
        if args.smoke:
            parts.append("smoke")
        out = RESULTS / ("-".join(parts) + ".json")
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")

    results = document["workloads"]
    metrics = {}
    if args.workload:
        section = "per_layer" if args.trace == 1 else "end_to_end"
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in results[args.workload][section].items()}
    print(json.dumps({
        "correct": True,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
