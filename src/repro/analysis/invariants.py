"""Continuously-checked safety invariants for register clusters.

The atomicity checker validates a *finished* history; these invariant
hooks catch protocol-state corruption at the exact delivery that
introduces it (install with ``simulator.add_invariant``).  They encode
the lemmas of Section 3.3:

* **timestamp agreement** (Lemma basis): no two honest servers ever
  accept the same write with different TIMESTAMPS — witnessed through
  their ``write-accepted`` output actions;
* **monotonicity**: an honest server's stored TIMESTAMP never decreases;
* **commitment uniqueness** (Lemma 5 basis): all ``write-accepted``
  events for one operation identifier agree, and servers holding equal
  TIMESTAMPS hold equal commitments;
* **committed adoption** (AtomicMd, :func:`install_commit_invariant`):
  no honest server adopts a version its writer did not commit, and the
  block it keeps verifies against the adopted cross-checksum.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import PartyId
from repro.common.serialization import encode
from repro.core.atomic_md import MSG_COMMIT, MSG_STORE
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.net.message import Message
from repro.net.simulator import Simulator


def make_register_invariant(tag: str,
                            honest_servers: Optional[Iterable[PartyId]]
                            = None) -> Callable[[Simulator], None]:
    """Build an invariant hook for one register of a cluster.

    ``honest_servers`` restricts the checks to servers the experiment
    considers honest (Byzantine overrides may corrupt their own state
    freely).  The returned callable keeps incremental state, so install
    one fresh instance per run.
    """
    honest: Optional[Set[PartyId]] = \
        set(honest_servers) if honest_servers is not None else None
    accepted_timestamps: Dict[str, Timestamp] = {}
    last_timestamp: Dict[PartyId, Timestamp] = {}
    scanned_events = 0

    def check(simulator: Simulator) -> None:
        nonlocal scanned_events
        # 1. write-accepted agreement, scanned incrementally.
        log = simulator.event_log
        while scanned_events < len(log):
            event = log[scanned_events]
            scanned_events += 1
            if event.kind != "out" or event.action != "write-accepted":
                continue
            if event.tag != tag or len(event.payload) < 2:
                continue
            if honest is not None and event.party not in honest:
                continue
            oid, timestamp = event.payload[0], event.payload[1]
            if not isinstance(timestamp, Timestamp):
                continue
            known = accepted_timestamps.get(oid)
            if known is None:
                accepted_timestamps[oid] = timestamp
            elif known != timestamp:
                raise ProtocolError(
                    f"write {oid} accepted with two TIMESTAMPS: "
                    f"{known} and {timestamp}")
        # 2. per-server monotonicity + 3. commitment uniqueness per TS.
        by_timestamp: Dict[Timestamp, bytes] = {}
        for process in simulator.processes:
            if not process.pid.is_server:
                continue
            if honest is not None and process.pid not in honest:
                continue
            probe = getattr(process, "register_state", None)
            if probe is None:
                continue
            state = probe(tag)
            timestamp = getattr(state, "timestamp", None)
            if not isinstance(timestamp, Timestamp):
                continue
            previous = last_timestamp.get(process.pid)
            if previous is not None and timestamp < previous:
                raise ProtocolError(
                    f"{process.pid} stored TIMESTAMP went backwards: "
                    f"{previous} -> {timestamp}")
            last_timestamp[process.pid] = timestamp
            commitment = getattr(state, "commitment", None)
            if commitment is not None:
                key = encode(commitment)
                known = by_timestamp.get(timestamp)
                if known is None:
                    by_timestamp[timestamp] = key
                elif known != key:
                    raise ProtocolError(
                        f"two honest servers hold TIMESTAMP {timestamp} "
                        f"with different commitments")

    return check


def install_commit_invariant(simulator: Simulator, tag: str,
                             honest_servers: Optional[Iterable[PartyId]]
                             = None) -> None:
    """Check, after every delivery, that every honest AtomicMd server
    holds a version its writer committed, and its own block of it.

    A version's *writer* is the client that sent its ``md-store``; the
    writer commits ``Timestamp(ts + 1, oid)`` by sending ``md-commit
    (oid, ts, H(D), N)`` itself.  The TIMESTAMP an honest server adopted
    (initial value aside) must be one its writer committed, under the
    committed ``H(D)``, and the block it keeps must verify against that
    ``D`` at the server's own index — it is the block every read reply
    carries.  Relayed commits (reader write-back) are not evidence: they
    are what the invariant is about.  Installs an observer of sends
    and an invariant on ``simulator``; one call per run.
    """
    honest: Optional[Set[PartyId]] = \
        set(honest_servers) if honest_servers is not None else None
    writers: Dict[str, PartyId] = {}
    committed: Dict[Tuple[str, int], Set[bytes]] = {}

    def on_send(message: Message, time: int, pending: int = 0) -> None:
        if message.tag != tag or message.sender.is_server \
                or not message.payload:
            return
        oid = message.payload[0]
        if message.mtype == MSG_STORE:
            writers.setdefault(oid, message.sender)
        elif (message.mtype == MSG_COMMIT and len(message.payload) == 4
              and writers.get(oid) == message.sender):
            _, ts, digest, _ = message.payload
            committed.setdefault((oid, ts), set()).add(digest)

    def check(simulator: Simulator) -> None:
        for process in simulator.processes:
            if not process.pid.is_server:
                continue
            if honest is not None and process.pid not in honest:
                continue
            probe = getattr(process, "register_state", None)
            if probe is None:
                continue
            state = probe(tag)
            scheme = process.config.commitment_scheme
            if not scheme.verify(state.commitment, process.pid.index,
                                 state.block, state.witness):
                raise ProtocolError(
                    f"{process.pid} holds a block of {state.timestamp} "
                    f"that does not verify against its D")
            if state.timestamp == INITIAL_TIMESTAMP:
                continue
            digests = committed.get((state.timestamp.oid,
                                     state.timestamp.ts - 1))
            if digests is None:
                raise ProtocolError(
                    f"{process.pid} adopted {state.timestamp}, which no "
                    f"writer committed")
            if scheme.digest(state.commitment) not in digests:
                raise ProtocolError(
                    f"{process.pid} adopted {state.timestamp} under a "
                    f"cross-checksum its writer did not commit")

    simulator.add_observer(SimpleNamespace(on_send=on_send))
    simulator.add_invariant(check)
