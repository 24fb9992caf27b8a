"""Timing wrappers around the public entry points of each kv-stack layer.

Installed only in the *layers* repetition, from the benchmark's side:
the program is not edited.  Each wrapped call records one span — name,
start, end, and the span that was open when it began — in memory; the
spans are folded into per-layer self times once the run is over and
written out at exit.  A layer's self time (``busy_s``) is its spans'
duration minus the part covered by their child spans, so the layers add
up to the wall time of the root spans without double counting.

Functions are found by their public names.  A function that other
modules hold under ``from x import f`` is rebound in every ``repro``
module that refers to the same object, because those modules call it
through their own globals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.analysis import linearizability
from repro.chaos.injector import FaultInjector
from repro.cluster import PROTOCOLS
from repro.common import serialization
from repro.crypto import hashing
from repro.crypto.threshold import IdealThresholdScheme, ShoupThresholdScheme
from repro.erasure.coder import ErasureCoder
from repro.kv import KvClientHost, KvServer, KvSession
from repro.net.message import Message
from repro.net.metrics import Metrics
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator
from repro.obs import TraceRecorder, planes, spans
from repro.repair import RepairCoordinator

_THRESHOLD_METHODS = ("sign", "verify_share", "combine", "verify")

#: layer name -> (class, public method names) wrapped with a timed span.
_METHODS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("net.simulator.step", Simulator, ("step",)),
    ("net.scheduler.choose", RandomScheduler, ("choose",)),
    ("net.metrics.record", Metrics, ("record",)),
    ("net.message.wire_size", Message, ("wire_size",)),
    ("kv.mux.receive", KvServer, ("receive",)),
    ("kv.mux.receive", KvClientHost, ("receive",)),
    ("kv.mux.flush", KvServer, ("kv_flush",)),
    ("kv.mux.flush", KvClientHost, ("kv_flush",)),
    ("kv.session.pump", KvSession, ("pump",)),
    ("kv.session.retry", KvSession, ("retry_pending",)),
    ("kv.session.submit", KvSession, ("put", "get")),
    ("erasure.encode", ErasureCoder, ("encode",)),
    ("erasure.decode", ErasureCoder, ("decode",)),
    ("crypto.threshold", IdealThresholdScheme, _THRESHOLD_METHODS),
    ("crypto.threshold", ShoupThresholdScheme, _THRESHOLD_METHODS),
    ("repair.pump", RepairCoordinator, ("pump", "retry_pending")),
    ("chaos.injector", FaultInjector,
     ("intercept_enqueue", "before_choose")),
    ("obs.recorder", TraceRecorder,
     ("on_send", "on_deliver", "on_input", "on_output", "on_quorum",
      "on_verify_fail")),
)

#: layer name -> (module, public function names) wrapped with a span.
_FUNCTIONS = (
    ("common.serialization.encoded_size", serialization,
     ("encoded_size",)),
    ("crypto.hash", hashing,
     ("hash_bytes", "hash_many", "hash_vector", "hash_int")),
    ("obs.spans.build_spans", spans, ("build_spans",)),
    ("obs.planes.operation_plane_traffic", planes,
     ("operation_plane_traffic",)),
    ("analysis.linearizability", linearizability, ("check_atomicity",)),
)

#: Counted, not timed: a span here would move the callers' self time —
#: the cost the issue attributes to ``build_spans`` and
#: ``operation_plane_traffic`` — into a layer of its own.
_COUNTED = (
    ("obs.spans.operation_records", spans, ("operation_records",)),
)


class Tracer:
    """In-memory span store: one row per wrapped call."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: (name index, start, end, parent row or -1) per span
        self.rows: List[Tuple[int, float, float, int]] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def timed(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped so every call records one span."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        rows, stack, clock = self.rows, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            row = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[row] = (name_id, start, end, parent)
        return wrapper

    def counted(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped so calls are counted and nothing is timed."""
        counts = self.counts
        counts[name] = 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def fold(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, total ``span_s`` and self ``busy_s``."""
        layers = {name: {"calls": 0, "span_s": 0.0, "busy_s": 0.0}
                  for name in self.names}
        for name_id, start, end, parent in self.rows:
            duration = end - start
            layer = layers[self.names[name_id]]
            layer["calls"] += 1
            layer["span_s"] += duration
            layer["busy_s"] += duration
            if parent >= 0:
                layers[self.names[self.rows[parent][0]]]["busy_s"] \
                    -= duration
        for name, count in self.counts.items():
            layers[name] = {"calls": count}
        return layers

    def write(self, path: str) -> None:
        """Write every span, times relative to the first span's start."""
        origin = self.rows[0][1] if self.rows else 0.0
        with open(path, "w") as out:
            json.dump({
                "columns": ["name", "start_s", "end_s", "parent"],
                "names": self.names,
                "spans": [[name_id, round(start - origin, 7),
                           round(end - origin, 7), parent]
                          for name_id, start, end, parent in self.rows],
            }, out, separators=(",", ":"))


def _rebind(func: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module global that is ``func`` at
    ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, wrapper)


def install(tracer: Tracer, protocol: str) -> None:
    """Wrap every layer's entry points; call once, before the build.

    ``protocol`` selects the inner register classes whose ``receive``
    (``core.handlers``) and client ``invoke_*`` (``core.invoke``) are
    wrapped; subclasses such as the repair client inherit the wrappers.
    """
    methods = list(_METHODS)
    server_cls, client_cls = PROTOCOLS[protocol]
    methods.append(("core.handlers", server_cls, ("receive",)))
    methods.append(("core.handlers", client_cls, ("receive",)))
    methods.append(("core.invoke", client_cls, tuple(
        name for name in ("invoke_write", "invoke_read", "invoke_validate")
        if hasattr(client_cls, name))))
    for layer, cls, names in methods:
        for name in names:
            setattr(cls, name, tracer.timed(layer, getattr(cls, name)))
    for table, wrap in ((_FUNCTIONS, tracer.timed),
                        (_COUNTED, tracer.counted)):
        for layer, module, names in table:
            for name in names:
                func = getattr(module, name)
                _rebind(func, wrap(layer, func))
