"""Command-line interface: simulate workloads and run experiments.

Usage::

    python -m repro.cli simulate --protocol atomic_ns --n 4 --t 1 \
        --writes 3 --reads 3 --seed 7 --trace
    python -m repro.cli trace --protocol atomic --format perfetto \
        --out trace.json
    python -m repro.cli experiments --fast --bench-dir out/
    python -m repro.cli experiments t1 f4 f6
    python -m repro.cli info --n 7 --t 2
    python -m repro.cli chaos --seeds 3 --boundary \
        --out chaos-report.json --reproducer-dir reproducers/
    python -m repro.cli chaos --replay reproducers/chaos_atomic_ns_boundary_s0.json
    python -m repro.cli lint src/repro --format json
    python -m repro.cli lint src/repro --sarif out.sarif \
        --baseline benchmarks/LINT_baseline.json
    python -m repro.cli monitor --source simulate --plan delays
    python -m repro.cli monitor --source chaos --seeds 2 \
        --out benchmarks --label health_baseline
    python -m repro.cli monitor --source kv-bench --shards 4 \
        --html health.html --prom health.prom
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.history import HistoryRecorder
from repro.analysis.trace import (
    export_events_jsonl,
    operation_summary,
    traffic_summary,
)
from repro.cluster import PROTOCOLS, run_register_case
from repro.common.errors import ConfigurationError
from repro.obs import (
    TraceRecorder,
    export_perfetto,
    export_trace_jsonl,
    operation_breakdown_lines,
    text_report,
)
from repro.workloads.kv import DEFAULT_SHIFT_EVERY, DISTRIBUTIONS

def _traced_run(args: argparse.Namespace) -> tuple:
    """Run the traced random workload; returns ``(cluster, recorder)``."""
    recorder = TraceRecorder()
    _, cluster = run_register_case(
        args.protocol, args.n, args.t, k=args.k, clients=args.clients,
        writes=args.writes, reads=args.reads, seed=args.seed,
        value_size=args.value_size, commitment=args.commitment,
        tracer=recorder)
    return cluster, recorder


def _cmd_simulate(args: argparse.Namespace) -> int:
    cluster, recorder = _traced_run(args)
    order = HistoryRecorder(cluster, "reg").check()
    print(f"protocol={args.protocol} n={args.n} t={args.t} "
          f"k={cluster.config.k} seed={args.seed}")
    print(f"operations: {args.writes} writes + {args.reads} reads, "
          f"all terminated, history linearizable")
    print(f"witness linearization: {' < '.join(order)}")
    print(traffic_summary(cluster.simulator.metrics, "reg"))
    print("\nlatency attribution (logical ticks on the critical path):")
    for line in operation_breakdown_lines(recorder):
        print(f"  {line}")
    if args.trace:
        print("\noperations:")
        print(operation_summary(cluster.simulator.event_log))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            count = export_events_jsonl(cluster.simulator.event_log,
                                        stream)
        print(f"\nwrote {count} events to {args.trace_out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cluster, recorder = _traced_run(args)
    HistoryRecorder(cluster, "reg").check()
    if args.out:
        stream = open(args.out, "w", encoding="utf-8")
    else:
        stream = sys.stdout
    try:
        if args.format == "perfetto":
            count = export_perfetto(recorder, stream)
            what = f"{count} trace events"
        elif args.format == "jsonl":
            count = export_trace_jsonl(recorder, stream)
            what = f"{count} trace lines"
        else:
            stream.write(text_report(recorder))
            stream.write("\n")
            what = "text report"
    finally:
        if args.out:
            stream.close()
    if args.out:
        print(f"wrote {what} ({args.format}) to {args.out}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.battery import run_battery
    run_battery(args.names, fast=args.fast, bench_dir=args.bench_dir)
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    """Operator view of one churn scenario: run the storm with repair
    attached and render the monitor dashboard's repair plane."""
    from repro.kv.bench import run_kv_case
    from repro.obs.export import health_dashboard
    from repro.obs.health import HealthMonitor
    from repro.repair.bench import (
        CHURN_CASE,
        churn_columns,
        churn_storm_plan,
    )

    sessions, keys, ops = ((2, 4, 32) if args.smoke
                           else (args.sessions, args.keys, args.ops))
    plan = churn_storm_plan(args.n, args.t, seed=args.seed,
                            first_crash=args.first_crash,
                            stagger=args.stagger,
                            replace_after=args.replace_after)
    monitor = HealthMonitor(bucket_ticks=args.bucket_ticks)
    row, cluster = run_kv_case(
        args.shards, n=args.n, t=args.t, sessions=sessions, keys=keys,
        ops=ops, seed=args.seed, plan=plan, batch_size=args.batch,
        monitor=monitor, **CHURN_CASE)
    repair = churn_columns("churn+repair", cluster, stalled=False)
    print(f"deployment n={args.n} t={args.t} shards={args.shards}: "
          f"{repair['replacements']} members replaced, "
          f"{repair['repairs_completed']} registers re-dispersed "
          f"({repair['repairs_failed']} failed, "
          f"{repair['repair_retries']} retries), "
          f"final repair lag {repair['repair_lag_final']}")
    print(f"workload: {row.completed}/{ops} ops completed in "
          f"{row.ticks} ticks "
          f"({'linearizable' if row.linearizable else 'LINEARIZABILITY FAILURE'}), "
          f"sessions at epoch {repair['session_epochs']}")
    print()
    print(health_dashboard(monitor))
    return 0


def _cmd_kv_bench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.experiments.common import render_table
    from repro.kv.bench import (
        MD_COMPARE,
        READHEAVY,
        SWEEP,
        check_comparison,
        run_comparison,
    )
    from repro.obs.bench import emit_bench
    from repro.repair.bench import CHURN

    if args.md_compare:
        comparison = MD_COMPARE
    elif args.churn:
        comparison = CHURN
    elif args.readheavy or args.check:
        comparison = READHEAVY
    else:
        comparison = SWEEP
    if args.check:
        document = json.loads(Path(args.check).read_text(encoding="utf-8"))
        failures = check_comparison(comparison,
                                    document.get("data", document))
        if failures:
            print(f"{comparison.label} check FAILED for {args.check}:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"{comparison.label} check ok: every acceptance gate "
              f"holds ({args.check})")
        return 0
    # Shape flags default to "not given" (argparse.SUPPRESS), so only
    # explicit ones override what the comparison pins.
    pinned = {**comparison.shape, **comparison.settings}
    overrides = {name: value for name, value in vars(args).items()
                 if name in pinned}
    if args.no_chaos and "chaos_plan" in pinned:
        overrides["chaos_plan"] = None
    payload = run_comparison(comparison, overrides, smoke=args.smoke)
    print(render_table(comparison.table, [
        [row.get(name, "-") for name in comparison.table]
        for row in payload["rows"]]))
    summary = payload.get("summary", [])
    for entry in summary if isinstance(summary, list) else [summary]:
        print("  ".join(f"{name}={value}"
                        for name, value in entry.items()))
    if args.out:
        path = emit_bench(args.label or comparison.label, payload,
                          directory=Path(args.out))
        print(f"wrote {path}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis.complexity import ComplexityModel
    model = ComplexityModel(n=args.n, t=args.t, k=args.k,
                            value_size=args.value_size)
    print(f"deployment n={args.n} t={args.t} k={model.k} "
          f"|F|={args.value_size} B")
    print(f"quorum (n-t): {args.n - args.t}, "
          f"deliver quorum (2t+1): {2 * args.t + 1}")
    for name, prediction in model.all_protocols().items():
        print(f"  {name:<11} {prediction.resilience:<7} "
              f"blow-up {prediction.storage_blowup:6.2f}x  "
              f"write ~{prediction.write_messages} msgs / "
              f"{prediction.write_bytes} B  "
              f"read ~{prediction.read_messages} msgs / "
              f"{prediction.read_bytes} B")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.runner import run_from_args
    return run_from_args(args)


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import (
        BUILTIN_PLANS,
        DEFAULT_BATTERY,
        STATUS_OK,
        campaign_report,
        replay_reproducer,
        save_reproducer,
        shrink_plan,
        sweep,
    )

    if args.replay:
        result, faithful = replay_reproducer(args.replay)
        print(f"replayed {args.replay}: status={result.status} "
              f"digest={result.digest[:16]}")
        print("deterministic replay: "
              + ("reproduced bit-for-bit" if faithful
                 else "MISMATCH against the recorded failure"))
        return 0 if faithful else 1

    if args.smoke:
        protocols = ["atomic_ns"]
        plan_names = ["none", "drops", "crash"]
        seeds = [0]
    else:
        protocols = args.protocols or ["atomic", "atomic_ns", "martin"]
        plan_names = list(args.plans or DEFAULT_BATTERY)
        seeds = list(range(args.seeds))
    unknown = sorted(set(plan_names) - set(BUILTIN_PLANS))
    if unknown:
        print(f"unknown plans: {unknown}; choose from "
              f"{list(BUILTIN_PLANS)}", file=sys.stderr)
        return 2
    if args.boundary and "boundary" not in plan_names:
        plan_names.append("boundary")

    results = sweep(protocols, plan_names, seeds, n=args.n, t=args.t)
    print(f"{'protocol':<10} {'plan':<14} {'seed':>4} {'status':<10} "
          f"{'faults':>6}  detail")
    for result in results:
        marker = "" if result.expected else "  <-- UNEXPECTED"
        print(f"{result.spec.protocol:<10} {result.spec.plan.name:<14} "
              f"{result.spec.seed:>4} {result.status:<10} "
              f"{sum(result.faults.values()):>6}  "
              f"{result.detail[:60]}{marker}")
    report = campaign_report(results)
    print(f"\n{report['runs']} runs: {report['by_status']}; "
          f"{report['unexpected']} unexpected outcome(s)")
    profiles = {name: profile for name, profile
                in report["fault_profile"].items() if profile}
    if profiles:
        print("\nfault coverage (injector counters summed per plan):")
        for plan_name, profile in profiles.items():
            detail = " ".join(f"{counter}={profile[counter]}"
                              for counter in sorted(profile))
            print(f"  {plan_name:<14} {detail}")

    failing = [result for result in results
               if result.status != STATUS_OK]
    if failing and args.reproducer_dir:
        os.makedirs(args.reproducer_dir, exist_ok=True)
        for result in failing:
            spec = result.spec
            if args.no_shrink:
                final = result
            else:
                shrunk = shrink_plan(spec, result.status)
                final = shrunk.result
                print(f"shrunk {spec.protocol}/{spec.plan.name}/"
                      f"s{spec.seed}: removed "
                      f"{shrunk.removed} component(s) in "
                      f"{shrunk.attempts} runs")
            name = (f"chaos_{spec.protocol}_{spec.plan.name}_"
                    f"s{spec.seed}.json")
            path = os.path.join(args.reproducer_dir, name)
            save_reproducer(final, path)
            print(f"wrote reproducer {path}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote campaign report to {args.out}")
    return 0 if not report["unexpected"] else 1


def _monitor_export(args: argparse.Namespace, monitor) -> None:
    """Write the optional ``--html`` / ``--prom`` reports for one
    monitored run."""
    from repro.obs import export_health_html, export_prometheus

    if args.html:
        with open(args.html, "w", encoding="utf-8") as stream:
            export_health_html(monitor, stream)
        print(f"wrote HTML health report to {args.html}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as stream:
            count = export_prometheus(monitor, stream)
        print(f"wrote {count} Prometheus samples to {args.prom}")


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.chaos import BUILTIN_PLANS, RunSpec, builtin_plan, execute_run
    from repro.obs import HealthMonitor, health_dashboard
    from repro.obs.bench import emit_bench

    if args.smoke:
        args.seeds = 1
        args.writes = min(args.writes, 3)
        args.reads = min(args.reads, 3)

    def make_monitor() -> HealthMonitor:
        return HealthMonitor(bucket_ticks=args.bucket_ticks)

    def run_spec(plan_name: str, seed: int):
        plan = builtin_plan(plan_name, args.n, args.t, seed=seed)
        spec = RunSpec(protocol=args.protocol, plan=plan, n=args.n,
                       t=args.t, seed=seed, clients=args.clients,
                       writes=args.writes, reads=args.reads)
        monitor = make_monitor()
        result = execute_run(spec, monitor=monitor)
        return spec, result, monitor

    if args.source == "kv-bench":
        from repro.kv.bench import run_kv_case

        monitor = make_monitor()
        plan_name = None if args.plan == "none" else args.plan
        overrides = {"sessions": 2, "keys": 8, "ops": 24,
                     "value_size": 32} if args.smoke else {}
        row, _ = run_kv_case(args.shards, n=args.n, t=args.t,
                             protocol=args.protocol, seed=args.seed,
                             plan=plan_name, monitor=monitor,
                             cache_size=args.cache,
                             lease_ticks=args.lease_ticks, **overrides)
        print(f"source=kv-bench protocol={args.protocol} "
              f"shards={args.shards} plan={args.plan} n={args.n} "
              f"t={args.t} seed={args.seed}")
        print(f"ops={row.ops} ops/tick={row.ops_per_tick:.4f} "
              f"linearizable={'ok' if row.linearizable else 'FAIL'}")
        print()
        print(health_dashboard(monitor))
        _monitor_export(args, monitor)
        if args.out:
            from pathlib import Path
            payload = {"source": "kv-bench", "row": row.to_json(),
                       "telemetry": monitor.snapshot()}
            path = emit_bench(args.label, payload,
                              directory=Path(args.out))
            print(f"wrote {path}")
        return 0

    if args.source == "simulate":
        if args.plan not in BUILTIN_PLANS:
            print(f"unknown plan {args.plan!r}; choose from "
                  f"{list(BUILTIN_PLANS)}", file=sys.stderr)
            return 2
        spec, result, monitor = run_spec(args.plan, args.seed)
        print(f"source=simulate protocol={args.protocol} "
              f"plan={args.plan} n={args.n} t={args.t} "
              f"seed={args.seed} status={result.status}")
        print()
        print(health_dashboard(monitor))
        _monitor_export(args, monitor)
        if args.out:
            from pathlib import Path
            payload = {"source": "simulate", "status": result.status,
                       "telemetry": monitor.snapshot()}
            path = emit_bench(args.label, payload,
                              directory=Path(args.out))
            print(f"wrote {path}")
        return 0

    # -- source == "chaos": sweep plans x seeds, score separation ------------
    plan_names = list(args.plans)
    unknown = sorted(set(plan_names) - set(BUILTIN_PLANS))
    if unknown:
        print(f"unknown plans: {unknown}; choose from "
              f"{list(BUILTIN_PLANS)}", file=sys.stderr)
        return 2
    runs = []
    last_monitor = None
    print(f"source=chaos protocol={args.protocol} n={args.n} "
          f"t={args.t} seeds={args.seeds}")
    print(f"{'plan':<14} {'seed':>4} {'status':<10} {'faulty':<10} "
          f"{'separation':<11} {'alerts':<7} scores")
    for plan_name in plan_names:
        for seed in range(args.seeds):
            spec, result, monitor = run_spec(plan_name, seed)
            last_monitor = monitor
            scores = monitor.suspicion_scores()
            faulty = [f"P{index}" for index in spec.plan.faulty]
            honest = [server for server in scores
                      if server not in faulty]
            if faulty and honest:
                separated = (min(scores[server] for server in faulty)
                             > max(scores[server] for server in honest))
                verdict = "ok" if separated else "MIXED"
            else:
                separated = None
                verdict = "-"
            alerts = [entry["name"] for entry in monitor.alerts()]
            runs.append({
                "plan": plan_name,
                "seed": seed,
                "status": result.status,
                "faulty": faulty,
                "scores": scores,
                "separated": separated,
                "alerts": alerts,
            })
            score_text = " ".join(f"{server}={value:.3f}"
                                  for server, value in scores.items())
            print(f"{plan_name:<14} {seed:>4} {result.status:<10} "
                  f"{','.join(faulty) or '-':<10} {verdict:<11} "
                  f"{len(alerts):<7} {score_text}")
    mixed = [run for run in runs if run["separated"] is False]
    alerting = sorted({run["plan"] for run in runs if run["alerts"]})
    print(f"\n{len(runs)} runs: "
          f"{len(mixed)} without faulty/honest separation; "
          f"burn alerts under {alerting or 'no plan'}")
    if last_monitor is not None:
        _monitor_export(args, last_monitor)
    if args.out:
        from pathlib import Path
        payload = {"source": "chaos", "protocol": args.protocol,
                   "n": args.n, "t": args.t, "seeds": args.seeds,
                   "bucket_ticks": args.bucket_ticks, "runs": runs}
        path = emit_bench(args.label, payload, directory=Path(args.out))
        print(f"wrote {path}")
    return 0


def _add_workload_arguments(parser: argparse.ArgumentParser,
                            default_protocol: str) -> None:
    """Cluster/workload options shared by ``simulate`` and ``trace``."""
    parser.add_argument("--protocol", default=default_protocol,
                        choices=sorted(PROTOCOLS))
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--t", type=int, default=1)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--commitment", default="vector",
                        choices=["vector", "merkle"])
    parser.add_argument("--clients", type=int, default=2)
    parser.add_argument("--writes", type=int, default=3)
    parser.add_argument("--reads", type=int, default=3)
    parser.add_argument("--value-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run a random workload on a simulated cluster")
    _add_workload_arguments(simulate, default_protocol="atomic_ns")
    simulate.add_argument("--trace", action="store_true",
                          help="print the per-operation timeline")
    simulate.add_argument("--trace-out", metavar="FILE", default=None,
                          help="write the event log as JSON lines")
    simulate.set_defaults(handler=_cmd_simulate)

    trace = commands.add_parser(
        "trace", help="run a workload and export its causal trace "
                      "(spans, critical paths, instruments)")
    _add_workload_arguments(trace, default_protocol="atomic")
    trace.add_argument("--format", default="perfetto",
                       choices=["perfetto", "jsonl", "text"],
                       help="perfetto: Chrome trace-event JSON; jsonl: "
                            "raw causal records; text: human report")
    trace.add_argument("--out", metavar="FILE", default=None,
                       help="output file (default: stdout)")
    trace.set_defaults(handler=_cmd_trace)

    experiments = commands.add_parser(
        "experiments", help="run evaluation experiments (T1-T2, F1-F13)")
    experiments.add_argument("names", nargs="*",
                             help="experiment ids (default: all)")
    experiments.add_argument("--fast", action="store_true")
    experiments.add_argument("--bench-dir", metavar="DIR", default=None,
                             help="emit machine-readable BENCH_*.json "
                                  "files into DIR")
    experiments.set_defaults(handler=_cmd_experiments)

    # Shape flags carry no default (argparse.SUPPRESS leaves them off
    # the namespace), so each comparison keeps its pinned value unless
    # the flag is given; the sweep's values are the ones quoted below.
    kv_bench = commands.add_parser(
        "kv-bench", argument_default=argparse.SUPPRESS,
        help="sharded key-value load harness: sweep shard counts under "
             "Zipf/uniform workloads (or run one of the committed "
             "comparisons), check per-key linearizability, emit BENCH "
             "rows; a shape flag overrides the selected comparison's "
             "pinned value where it has one and is ignored otherwise")
    kv_bench.add_argument(
        "--shards", metavar="LIST",
        type=lambda text: [int(token) for token in text.split(",")
                           if token.strip()],
        help="comma-separated shard counts to sweep (sweep: 1,4,16)")
    kv_bench.add_argument("--protocol", choices=sorted(PROTOCOLS),
                          help="(sweep: atomic)")
    kv_bench.add_argument("--n", type=int, help="(sweep: 4)")
    kv_bench.add_argument("--t", type=int, help="(sweep: 1)")
    kv_bench.add_argument("--sessions", type=int, help="(sweep: 4)")
    kv_bench.add_argument("--keys", type=int, help="(sweep: 32)")
    kv_bench.add_argument("--ops", type=int, help="(sweep: 96)")
    kv_bench.add_argument("--write-ratio", type=float,
                          help="(sweep: 0.5)")
    kv_bench.add_argument("--distribution", choices=list(DISTRIBUTIONS),
                          help="(sweep: zipf)")
    kv_bench.add_argument("--zipf-exponent", type=float,
                          help="(sweep: 1.1)")
    kv_bench.add_argument("--shift-every", type=int,
                          help="ops between hot-set rotations under "
                               "--distribution zipf-shift "
                               f"(default: {DEFAULT_SHIFT_EVERY})")
    kv_bench.add_argument("--shard-k", type=int,
                          help="per-shard erasure threshold k (default: "
                               "protocol default; atomic_md picks t+1)")
    kv_bench.add_argument("--value-size", type=int, help="(sweep: 64)")
    kv_bench.add_argument("--seed", type=int, help="(default: 0)")
    kv_bench.add_argument("--plan", dest="chaos_plan",
                          help="builtin chaos plan for the extra fault "
                               "case (sweep: at the largest shard "
                               "count; default: delays)")
    kv_bench.add_argument("--no-chaos", action="store_true",
                          default=False, help="skip the chaos case")
    kv_bench.add_argument("--cache", dest="cache_size", type=int,
                          metavar="ENTRIES",
                          help="per-session read-cache capacity (sweep: "
                               "0, session caching off)")
    kv_bench.add_argument("--lease-ticks", type=int, metavar="TICKS",
                          help="read-lease window in simulator ticks "
                               "(sweep: 0, revalidation-only cache)")
    kv_bench.add_argument("--smoke", action="store_true", default=False,
                          help="tier-1 smoke: the selected comparison "
                               "on a small workload (sweep: shards 1,2)")
    kv_bench.add_argument("--md-compare", action="store_true",
                          default=False,
                          help="head-to-head atomic_ns vs atomic_md at "
                               "n=4/t=1 and n=7/t=2 plus a Byzantine "
                               "corrupt-block case (the "
                               "BENCH_kv_md.json payload)")
    kv_bench.add_argument("--readheavy", action="store_true",
                          default=False,
                          help="cached vs uncached atomic_md on one "
                               "read-heavy Zipf workload plus chaos "
                               "and Byzantine-metadata cases (the "
                               "BENCH_kv_readheavy.json payload)")
    kv_bench.add_argument("--churn", action="store_true", default=False,
                          help="crash -> repair -> re-crash storm at "
                               "n=7/t=2: fault-free vs repaired vs "
                               "unrepaired fleet (the "
                               "BENCH_kv_churn.json payload)")
    kv_bench.add_argument("--check", metavar="FILE", default=None,
                          help="hold a written bench payload to the "
                               "selected comparison's acceptance gates "
                               "(--readheavy when none is selected) "
                               "and exit non-zero on failure")
    kv_bench.add_argument("--label", default=None,
                          help="bench name: output file is "
                               "BENCH_<label>.json (default: kv, "
                               "kv_md, kv_readheavy or kv_churn)")
    kv_bench.add_argument("--out", metavar="DIR", default=None,
                          help="directory for the BENCH_<label>.json "
                               "file (default: print only)")
    kv_bench.set_defaults(handler=_cmd_kv_bench)

    repair = commands.add_parser(
        "repair", help="repair & reconfiguration plane: run a churn "
                       "storm with background re-dispersal and member "
                       "replacement, render the repair dashboard")
    repair.add_argument("--n", type=int, default=7)
    repair.add_argument("--t", type=int, default=2)
    repair.add_argument("--shards", type=int, default=2)
    repair.add_argument("--sessions", type=int, default=4)
    repair.add_argument("--keys", type=int, default=8)
    repair.add_argument("--ops", type=int, default=96)
    repair.add_argument("--seed", type=int, default=0)
    repair.add_argument("--batch", type=int, default=2,
                        help="max concurrent background repair rounds "
                             "(rate limit against live load)")
    repair.add_argument("--first-crash", type=int, default=40,
                        help="decision point of the first crash")
    repair.add_argument("--stagger", type=int, default=120,
                        help="decisions between successive crashes")
    repair.add_argument("--replace-after", type=int, default=40,
                        help="decisions from each crash to its member "
                             "replacement")
    repair.add_argument("--bucket-ticks", type=int, default=32,
                        help="time-series bucket width in logical ticks")
    repair.add_argument("--smoke", action="store_true",
                        help="tier-1 smoke: small workload, same "
                             "n=7/t=2 storm shape")
    repair.set_defaults(handler=_cmd_repair)

    info = commands.add_parser(
        "info", help="print analytic predictions for a deployment")
    info.add_argument("--n", type=int, default=4)
    info.add_argument("--t", type=int, default=1)
    info.add_argument("--k", type=int, default=None)
    info.add_argument("--value-size", type=int, default=4096)
    info.set_defaults(handler=_cmd_info)

    chaos = commands.add_parser(
        "chaos", help="fault-injection campaigns: sweep seeds x plans x "
                      "protocols, check atomicity and wait-freedom, "
                      "shrink and serialize failures")
    chaos.add_argument("--protocols", nargs="*", default=None,
                       metavar="NAME", choices=sorted(PROTOCOLS),
                       help="protocols to sweep (default: atomic "
                            "atomic_ns martin)")
    chaos.add_argument("--plans", nargs="*", default=None, metavar="PLAN",
                       help="builtin fault plans to sweep (default: all "
                            "within-budget plans)")
    chaos.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="sweep workload/plan seeds 0..N-1")
    chaos.add_argument("--n", type=int, default=4)
    chaos.add_argument("--t", type=int, default=1)
    chaos.add_argument("--smoke", action="store_true",
                       help="tier-1 smoke: one protocol, three plans, "
                            "one seed")
    chaos.add_argument("--boundary", action="store_true",
                       help="include the n=3t boundary probe (crashes "
                            "t+1 servers; a failure is expected there)")
    chaos.add_argument("--out", metavar="FILE", default=None,
                       help="write the JSON campaign report to FILE")
    chaos.add_argument("--reproducer-dir", metavar="DIR", default=None,
                       help="serialize failing (seed, plan) reproducers "
                            "into DIR")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="serialize failing plans as-is instead of "
                            "bisect-shrinking them first")
    chaos.add_argument("--replay", metavar="FILE", default=None,
                       help="re-execute a serialized reproducer and "
                            "verify the bit-for-bit replay")
    chaos.set_defaults(handler=_cmd_chaos)

    monitor = commands.add_parser(
        "monitor", help="health & SLO telemetry: suspicion scores, "
                        "burn-rate alerts, and windowed series for a "
                        "simulate / kv-bench / chaos run")
    monitor.add_argument("--source", default="simulate",
                         choices=["simulate", "kv-bench", "chaos"],
                         help="what to attach the health monitor to: "
                              "one register workload (simulate), the "
                              "sharded kv harness (kv-bench), or a "
                              "plans x seeds chaos sweep scoring "
                              "faulty/honest separation (chaos)")
    monitor.add_argument("--protocol", default="atomic_ns",
                         choices=sorted(PROTOCOLS))
    monitor.add_argument("--n", type=int, default=4)
    monitor.add_argument("--t", type=int, default=1)
    monitor.add_argument("--seed", type=int, default=0,
                         help="workload seed (simulate / kv-bench)")
    monitor.add_argument("--clients", type=int, default=2)
    monitor.add_argument("--writes", type=int, default=6)
    monitor.add_argument("--reads", type=int, default=6)
    monitor.add_argument("--plan", default="none",
                         help="builtin chaos plan for simulate / "
                              "kv-bench (default: fault-free)")
    monitor.add_argument("--plans", nargs="*", metavar="PLAN",
                         default=["none", "slow-server", "boundary"],
                         help="plans the chaos source sweeps (default: "
                              "none slow-server boundary)")
    monitor.add_argument("--seeds", type=int, default=1, metavar="N",
                         help="chaos source: sweep seeds 0..N-1")
    monitor.add_argument("--shards", type=int, default=4,
                         help="kv-bench source: shard count")
    monitor.add_argument("--cache", type=int, default=0,
                         metavar="ENTRIES",
                         help="kv-bench source: per-session read-cache "
                              "capacity (0 disables)")
    monitor.add_argument("--lease-ticks", type=int, default=0,
                         metavar="TICKS",
                         help="kv-bench source: read-lease window in "
                              "simulator ticks")
    monitor.add_argument("--bucket-ticks", type=int, default=32,
                         help="time-series bucket width in logical "
                              "ticks (default: 32)")
    monitor.add_argument("--html", metavar="FILE", default=None,
                         help="write a self-contained HTML health "
                              "report")
    monitor.add_argument("--prom", metavar="FILE", default=None,
                         help="write Prometheus text exposition")
    monitor.add_argument("--out", metavar="DIR", default=None,
                         help="emit BENCH_<label>.json telemetry "
                              "into DIR")
    monitor.add_argument("--label", default="health",
                         help="bench name: output file is "
                              "BENCH_<label>.json")
    monitor.add_argument("--smoke", action="store_true",
                         help="tier-1 smoke: one seed, small workload")
    monitor.set_defaults(handler=_cmd_monitor)

    from repro.lint.runner import add_lint_arguments
    lint = commands.add_parser(
        "lint", help="protocol-aware static analysis (determinism, "
                     "quorum arithmetic, wire/handler completeness)")
    add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (2, like a usage
    error, for a deployment or plan the configuration checks reject —
    ``goodson`` at n=4/t=1, say)."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
