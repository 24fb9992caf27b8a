"""Trace exporters: Chrome/Perfetto trace-event JSON, JSONL, and text.

Views of one recorded run:

* :func:`export_perfetto` — the Chrome trace-event format
  (``chrome://tracing`` / https://ui.perfetto.dev): one timeline row per
  operation with nested phase slices, quorum releases as instant
  events, and the critical-path attribution in each slice's ``args``.
  Logical clock ticks are rendered as microseconds.
* :func:`export_trace_jsonl` — the raw causal record (messages, local
  events, quorum releases, instruments) as one JSON object per line,
  for external analysis.
* :func:`text_report` — a human-readable per-operation latency
  breakdown plus the instrument summary, printed by ``repro trace
  --format text`` and (condensed) by ``repro simulate``.

Plus the health-plane renderers consumed by ``repro monitor``
(:mod:`repro.obs.health`):

* :func:`health_dashboard` — deterministic text dashboard (fleet
  health table, SLO burn table, op latency summary, series
  sparklines);
* :func:`export_prometheus` — Prometheus text exposition of the same
  state, for scraping pipelines;
* :func:`export_health_html` — a self-contained HTML report with
  inline-SVG sparklines (no external assets, no wall-clock
  timestamps, so reports are byte-stable across reruns).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, TextIO, Tuple

from repro.common.ids import PartyId
from repro.obs.critical_path import attribution_summary, critical_path
from repro.obs.recorder import TraceRecorder
from repro.obs.spans import Span, build_spans

#: perfetto requires numeric process ids; servers map to their index,
#: clients to an offset range so both stay readable in the UI.
_CLIENT_PID_OFFSET = 1000


def _pid_of(party: PartyId) -> int:
    return party.index if party.is_server \
        else _CLIENT_PID_OFFSET + party.index


def _span_args(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = {
        "tag": span.tag,
        "messages": span.messages,
        "message_bytes": span.message_bytes,
    }
    for key, value in span.annotations.items():
        args[key] = value
    return args


def export_perfetto(recorder: TraceRecorder, stream: TextIO) -> int:
    """Write the run as Chrome trace-event JSON; returns the number of
    trace events emitted.

    Every completed operation gets its own thread row under its
    client's process, phases nest inside the operation slice (clamped
    to the operation interval; the true extent, including the
    post-completion tail, stays in ``args``), and the operation's
    ``args.critical_path`` carries the per-phase attribution whose
    values sum to the slice duration.
    """
    events: List[Dict[str, Any]] = []
    pids: Dict[int, str] = {}
    for ordinal, span in enumerate(build_spans(recorder), start=1):
        pid = _pid_of(span.party) if span.party is not None else 0
        pids.setdefault(pid, str(span.party))
        args = _span_args(span)
        path = critical_path(recorder, span)
        if path is not None:
            args["critical_path"] = dict(sorted(
                path.attribution.items()))
            args["critical_path_rounds"] = path.rounds
        events.append({
            "name": span.name, "cat": span.kind, "ph": "X",
            "pid": pid, "tid": ordinal,
            "ts": span.open_time, "dur": span.duration,
            "args": args,
        })
        for child in span.children:
            open_time = max(child.open_time, span.open_time)
            close_time = min(child.close_time, span.close_time)
            if close_time < open_time:
                continue  # pure tail traffic: outside the op slice
            child_args = _span_args(child)
            child_args["full_extent"] = [child.open_time,
                                         child.close_time]
            events.append({
                "name": child.name, "cat": child.kind, "ph": "X",
                "pid": pid, "tid": ordinal,
                "ts": open_time, "dur": close_time - open_time,
                "args": child_args,
            })
        for release in span.annotations.get("quorum_releases", ()):
            events.append({
                "name": f"quorum {release['mtype']}"
                        f">={release['threshold']}",
                "cat": "quorum", "ph": "i", "s": "t",
                "pid": pid, "tid": ordinal,
                "ts": release["time"],
                "args": dict(release),
            })
    for pid, name in sorted(pids.items()):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    json.dump({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "logical (1 tick = 1 us)",
            "generator": "repro.obs",
        },
    }, stream, ensure_ascii=False)
    stream.write("\n")
    return len(events)


def _jsonable(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"bytes": len(value)}
    if isinstance(value, PartyId):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def export_trace_jsonl(recorder: TraceRecorder, stream: TextIO) -> int:
    """Write the raw causal record as JSON lines; returns the line
    count.  Record types: ``message``, ``event``, ``quorum``,
    ``instrument``."""
    count = 0

    def emit(record: Dict[str, Any]) -> None:
        nonlocal count
        stream.write(json.dumps(record, ensure_ascii=False) + "\n")
        count += 1

    for record in recorder.messages.values():
        emit({
            "type": "message", "msg_id": record.msg_id,
            "tag": record.tag, "mtype": record.mtype,
            "sender": str(record.sender),
            "recipient": str(record.recipient),
            "send_time": record.send_time,
            "deliver_time": record.deliver_time,
            "wire_bytes": record.wire_bytes,
            "depth": record.depth,
            "cause_id": record.cause_id,
            "oid": record.oid,
        })
    for event in recorder.events:
        emit({
            "type": "event", "time": event.time,
            "party": str(event.party), "kind": event.kind,
            "tag": event.tag, "action": event.action,
            "payload": _jsonable(list(event.payload)),
            "cause_id": event.cause_id,
        })
    for release in recorder.quorum_releases:
        emit({
            "type": "quorum", "time": release.time,
            "party": str(release.party), "tag": release.tag,
            "mtype": release.mtype, "threshold": release.threshold,
            "quorum_msg_ids": list(release.quorum_msg_ids),
            "releasing_msg_id": release.releasing_msg_id,
        })
    for name, summary in recorder.registry.snapshot().items():
        emit({"type": "instrument", "name": name,
              "kind": summary["type"],
              **{key: value for key, value in summary.items()
                 if key != "type"}})
    return count


def operation_breakdown_lines(recorder: TraceRecorder) -> List[str]:
    """Per-operation latency attribution, one line per completed
    operation — what ``repro simulate`` prints."""
    lines = []
    for span in build_spans(recorder):
        path = critical_path(recorder, span)
        if path is None:
            continue
        lines.append(
            f"{path.op:<5} {path.oid:<8} {path.client:<4} "
            f"t={path.invoke_time}->{path.complete_time} "
            f"({path.duration:>4} ticks, {path.rounds} rounds): "
            f"{attribution_summary(path)}")
    return lines


def text_report(recorder: TraceRecorder) -> str:
    """The full human-readable report: operations with phase
    breakdowns, quorum waits, tails, and the instrument summary."""
    lines: List[str] = ["operations:"]
    spans = build_spans(recorder)
    if not spans:
        lines.append("  (none completed)")
    for span in spans:
        path = critical_path(recorder, span)
        lines.append(
            f"  {span.name:<14} client={span.annotations['client']} "
            f"t={span.open_time}->{span.close_time} "
            f"({span.duration} ticks, {span.messages} msgs, "
            f"{span.message_bytes} B)")
        if path is not None:
            lines.append(f"    critical path ({path.rounds} rounds): "
                         f"{attribution_summary(path)}")
        for child in span.children:
            lines.append(
                f"    {child.name:<12} t={child.open_time}->"
                f"{child.close_time} {child.messages} msgs "
                f"{child.message_bytes} B")
        for release in span.annotations.get("quorum_releases", ()):
            lines.append(
                f"    quorum {release['mtype']}>={release['threshold']} "
                f"at t={release['time']} "
                f"(released by msg {release['released_by']})")
        tail = span.annotations.get("tail_time", 0)
        if tail:
            lines.append(f"    tail: {tail} ticks of sub-protocol "
                         f"traffic after completion")
    lines.append("")
    lines.append("instruments:")
    snapshot = recorder.registry.snapshot()
    if not snapshot:
        lines.append("  (none)")
    for name, summary in snapshot.items():
        detail = ", ".join(f"{key}={value}"
                           for key, value in summary.items()
                           if key != "type")
        lines.append(f"  {summary['type']:<9} {name:<28} {detail}")
    return "\n".join(lines)


# -- health plane ------------------------------------------------------------

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: List[float]) -> str:
    """Render a value sequence as unicode block characters (empty
    input renders empty)."""
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    scale = len(_SPARK_BLOCKS) - 1
    return "".join(_SPARK_BLOCKS[int(round(value / top * scale))]
                   for value in values)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else f"{value:.3f}"
    return str(value)


def health_dashboard(monitor) -> str:
    """The ``repro monitor`` text dashboard for one finished run.

    Sections: fleet health (suspicion scores with per-signal
    components), SLO burn rates with alert flags, metadata-plane vs
    data-plane wire traffic, session-cache decision counters
    (``kv.cache[...]``), repair-plane progress (``repair.*`` counters
    plus the ``repair.lag`` backlog sparkline when a coordinator ran),
    operation latency summary per op type, and a
    sparkline per time-series.  Output is a pure function of the
    monitor's state — byte-identical across repeated runs of the same
    seed.
    """
    monitor.finalize()
    lines: List[str] = []
    lines.append("== fleet health ==")
    rows = monitor.server_health()
    if not rows:
        lines.append("  (no servers)")
    else:
        lines.append(f"  {'server':<6} {'score':>7}  "
                     f"{'verify':>7} {'quorum':>7} {'silence':>7} "
                     f"{'chaos':>7} {'rebcast':>7}  signals")
        for row in rows:
            components = row["components"]
            signals = row["signals"]
            detail = (f"sends={signals['sends']} "
                      f"vfail={signals['verify_fails']} "
                      f"qmiss={signals['quorums_missed']}/"
                      f"{signals['quorums_missed'] + signals['quorums_present']} "
                      f"chaos={signals['chaos_hits']} "
                      f"rebx={signals['rebroadcast_excess']}")
            lines.append(
                f"  {row['server']:<6} {row['score']:>7.3f}  "
                f"{components['verify']:>7.3f} "
                f"{components['quorum']:>7.3f} "
                f"{components['silence']:>7.3f} "
                f"{components['chaos']:>7.3f} "
                f"{components['rebroadcast']:>7.3f}  {detail}")
    lines.append("")
    lines.append("== slos ==")
    report = monitor.slo_report()
    if not report:
        lines.append("  (none)")
    else:
        lines.append(f"  {'name':<16} {'objective':>9} {'good':>6} "
                     f"{'bad':>5} {'compl':>7} {'fast':>7} {'slow':>7}  "
                     f"alert")
        for entry in report:
            flag = "FIRING" if entry["alert"] else "ok"
            lines.append(
                f"  {entry['name']:<16} {entry['objective']:>9.4f} "
                f"{entry['good']:>6} {entry['bad']:>5} "
                f"{entry['compliance']:>7.4f} "
                f"{entry['fast_burn']:>7.2f} {entry['slow_burn']:>7.2f}  "
                f"{flag}")
    lines.append("")
    lines.append("== planes ==")
    planes = monitor.plane_totals()
    total = planes["metadata_bytes"] + planes["data_bytes"]
    data_share = planes["data_bytes"] / total if total else 0.0
    lines.append(f"  metadata {planes['metadata_messages']:>6} msgs "
                 f"{planes['metadata_bytes']:>10} B")
    lines.append(f"  data     {planes['data_messages']:>6} msgs "
                 f"{planes['data_bytes']:>10} B "
                 f"({data_share:.1%} of bytes)")
    lines.append("")
    lines.append("== session cache ==")
    cache_counters = [
        (name, summary["value"]) for name, summary
        in sorted(monitor.recorder.registry.snapshot().items())
        if name.startswith("kv.cache[")]
    if cache_counters:
        for name, value in cache_counters:
            label = name[len("kv.cache["):-1]
            lines.append(f"  {label:<16} {_fmt(value):>8}")
    else:
        lines.append("  (no session-cache activity)")
    lines.append("")
    lines.append("== repair ==")
    repair_counters = [
        (name, summary["value"]) for name, summary
        in sorted(monitor.recorder.registry.snapshot().items())
        if name.startswith("repair.")]
    lag_series = monitor.store.get("repair.lag")
    if not repair_counters and lag_series is None:
        lines.append("  (repair plane not attached)")
    else:
        for name, value in repair_counters:
            label = name[len("repair."):]
            lines.append(f"  {label:<16} {_fmt(value):>8}")
        if lag_series is not None and len(lag_series):
            values = [value for _, value in lag_series.values()]
            lines.append(f"  {'lag':<16} {_fmt(values[-1]):>8} "
                         f"{_sparkline(values)}")
    lines.append("")
    lines.append("== operations ==")
    lines.append(f"  completed={monitor.ops_completed} "
                 f"abandoned={monitor.ops_abandoned} "
                 f"horizon={monitor.store.horizon} ticks "
                 f"(bucket={monitor.store.bucket_ticks})")
    for kind in ("write", "read"):
        series = monitor.store.get(f"ops.latency[{kind}]")
        if series is None or not len(series):
            continue
        span = series.last_bucket - series.first_bucket + 1
        window = series.window(series.last_bucket, span)
        lines.append(
            f"  {kind:<5} n={window['count']} "
            f"mean={window['mean']:.1f} p50={_fmt(window['p50'])} "
            f"p99={_fmt(window['p99'])} max={_fmt(window['max'])}")
    lines.append("")
    lines.append("== series ==")
    names = monitor.store.names()
    if not names:
        lines.append("  (none)")
    for name in names:
        series = monitor.store.get(name)
        values = [value for _, value in series.values()]
        dropped = f" (+{series.dropped_buckets} dropped)" \
            if series.dropped_buckets else ""
        lines.append(f"  {name:<26} {series.kind:<7} "
                     f"total={_fmt(series.total())} "
                     f"{_sparkline(values)}{dropped}")
    return "\n".join(lines)


def _prom_name(name: str) -> Tuple[str, str]:
    """Split an instrument-style name ``base[label]`` into a
    Prometheus-safe metric name plus label string."""
    label = ""
    if name.endswith("]") and "[" in name:
        name, raw = name[:-1].split("[", 1)
        label = raw
    metric = "repro_" + "".join(
        ch if ch.isalnum() else "_" for ch in name)
    return metric, label


def export_prometheus(monitor, stream: TextIO) -> int:
    """Write the monitor state in Prometheus text exposition format;
    returns the number of sample lines emitted."""
    monitor.finalize()
    count = 0

    def emit(line: str) -> None:
        nonlocal count
        stream.write(line + "\n")
        if not line.startswith("#"):
            count += 1

    emit("# TYPE repro_health_suspicion gauge")
    for row in monitor.server_health():
        emit(f'repro_health_suspicion{{server="{row["server"]}"}} '
             f'{row["score"]}')
    # The exposition format wants each metric's samples as one group
    # directly under its own TYPE line, so iterate metric-major.
    slo_entries = monitor.slo_report()
    emit("# TYPE repro_slo_compliance gauge")
    for entry in slo_entries:
        emit(f'repro_slo_compliance{{slo="{entry["name"]}"}} '
             f'{entry["compliance"]}')
    emit("# TYPE repro_slo_burn_rate gauge")
    for entry in slo_entries:
        emit(f'repro_slo_burn_rate{{slo="{entry["name"]}",'
             f'window="fast"}} {entry["fast_burn"]}')
        emit(f'repro_slo_burn_rate{{slo="{entry["name"]}",'
             f'window="slow"}} {entry["slow_burn"]}')
    emit("# TYPE repro_slo_alert gauge")
    for entry in slo_entries:
        emit(f'repro_slo_alert{{slo="{entry["name"]}"}} '
             f'{1 if entry["alert"] else 0}')
    # ``_total`` suffix keeps the aggregates clear of the per-label
    # ``repro_ops_completed{label=...}`` series metric below.
    emit("# TYPE repro_ops_completed_total counter")
    emit(f"repro_ops_completed_total {monitor.ops_completed}")
    emit("# TYPE repro_ops_abandoned_total counter")
    emit(f"repro_ops_abandoned_total {monitor.ops_abandoned}")
    # Series sharing a metric name (labelled variants) must land in one
    # group under a single TYPE line, so collect metric-major first.
    groups: Dict[str, List[Tuple[str, Any]]] = {}
    for name in monitor.store.names():
        metric, label = _prom_name(name)
        groups.setdefault(metric, []).append(
            (label, monitor.store.get(name)))
    for metric, entries in groups.items():
        kind = entries[0][1].kind
        if kind == "counter":
            emit(f"# TYPE {metric} counter")
        elif kind == "gauge":
            emit(f"# TYPE {metric} gauge")
        else:
            emit(f"# TYPE {metric} summary")
        for label, series in entries:
            labels = f'{{label="{label}"}}' if label else ""
            if series.kind == "counter":
                emit(f"{metric}{labels} {series.total()}")
                continue
            span = series.last_bucket - series.first_bucket + 1
            window = series.window(series.last_bucket, span)
            if series.kind == "gauge":
                emit(f"{metric}{labels} {window['last']}")
                continue
            base = labels[:-1] + "," if labels else "{"
            emit(f'{metric}{base}quantile="0.5"}} {window["p50"]}')
            emit(f'{metric}{base}quantile="0.99"}} {window["p99"]}')
            emit(f"{metric}_count{labels} {window['count']}")
            emit(f"{metric}_sum{labels} {window['sum']}")
    return count


def _svg_sparkline(values: List[float]) -> str:
    """An inline-SVG polyline sparkline, 240 x 28 px (empty series
    renders an empty frame)."""
    width, height = 240, 28
    if not values:
        return (f'<svg width="{width}" height="{height}" '
                f'class="spark"></svg>')
    top = max(max(values), 1e-9)
    step = width / max(len(values), 1)
    points = []
    for index, value in enumerate(values):
        x = round(index * step + step / 2, 1)
        y = round(height - 2 - (value / top) * (height - 4), 1)
        points.append(f"{x},{y}")
    return (f'<svg width="{width}" height="{height}" class="spark">'
            f'<polyline fill="none" stroke="#2b6cb0" stroke-width="1.5" '
            f'points="{" ".join(points)}"/></svg>')


def export_health_html(monitor, stream: TextIO) -> None:
    """Write a self-contained HTML health report (tables + inline-SVG
    sparklines; no scripts, assets, or timestamps)."""
    monitor.finalize()
    out: List[str] = []
    out.append("<!DOCTYPE html>")
    out.append("<html><head><meta charset='utf-8'>"
               "<title>repro health report</title><style>")
    out.append("body{font-family:sans-serif;margin:24px;color:#1a202c}"
               "table{border-collapse:collapse;margin:12px 0}"
               "th,td{border:1px solid #cbd5e0;padding:4px 10px;"
               "text-align:right;font-size:13px}"
               "th{background:#edf2f7}td.l,th.l{text-align:left}"
               ".alert{color:#c53030;font-weight:bold}"
               ".ok{color:#2f855a}")
    out.append("</style></head><body>")
    out.append("<h1>repro health report</h1>")
    out.append(f"<p>horizon {monitor.store.horizon} ticks · bucket "
               f"{monitor.store.bucket_ticks} ticks · "
               f"{monitor.ops_completed} ops completed · "
               f"{monitor.ops_abandoned} abandoned</p>")
    out.append("<h2>Fleet health</h2>")
    out.append("<table><tr><th class='l'>server</th><th>score</th>"
               "<th>verify</th><th>quorum</th><th>silence</th>"
               "<th>chaos</th><th>rebroadcast</th></tr>")
    for row in monitor.server_health():
        components = row["components"]
        out.append(
            f"<tr><td class='l'>{row['server']}</td>"
            f"<td>{row['score']:.3f}</td>"
            f"<td>{components['verify']:.3f}</td>"
            f"<td>{components['quorum']:.3f}</td>"
            f"<td>{components['silence']:.3f}</td>"
            f"<td>{components['chaos']:.3f}</td>"
            f"<td>{components['rebroadcast']:.3f}</td></tr>")
    out.append("</table>")
    out.append("<h2>SLOs</h2>")
    out.append("<table><tr><th class='l'>objective</th><th>good</th>"
               "<th>bad</th><th>compliance</th><th>fast burn</th>"
               "<th>slow burn</th><th>alert</th></tr>")
    for entry in monitor.slo_report():
        flag = "<span class='alert'>FIRING</span>" if entry["alert"] \
            else "<span class='ok'>ok</span>"
        out.append(
            f"<tr><td class='l'>{entry['description']}</td>"
            f"<td>{entry['good']}</td><td>{entry['bad']}</td>"
            f"<td>{entry['compliance']:.4f}</td>"
            f"<td>{entry['fast_burn']:.2f}</td>"
            f"<td>{entry['slow_burn']:.2f}</td><td>{flag}</td></tr>")
    out.append("</table>")
    out.append("<h2>Time series</h2>")
    out.append("<table><tr><th class='l'>series</th><th>kind</th>"
               "<th>total</th><th class='l'>shape</th></tr>")
    for name in monitor.store.names():
        series = monitor.store.get(name)
        values = [value for _, value in series.values()]
        out.append(
            f"<tr><td class='l'>{name}</td><td>{series.kind}</td>"
            f"<td>{_fmt(series.total())}</td>"
            f"<td class='l'>{_svg_sparkline(values)}</td></tr>")
    out.append("</table>")
    out.append("</body></html>")
    stream.write("\n".join(out) + "\n")
