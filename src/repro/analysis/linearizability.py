"""Atomicity (linearizability) checking for register histories.

Definition 1 of the paper requires a total order over terminating reads and
effected writes that respects real-time precedence and register semantics.
This module decides, for a recorded history, whether such an order exists —
the checker is sound and complete for histories in which every write's
value is unique (test workloads guarantee uniqueness by construction).

Algorithm (registers with unique values admit a polynomial check):

1. Map each read to the write it *reads from* via the returned value; a
   value written by no one (and not the initial value) is an immediate
   violation.
2. Group each write with the reads that read from it — its *cluster*.  In
   any valid linearization the members of a cluster are contiguous: if a
   different write were linearized between a write and one of its readers,
   that reader would have read the other write.
3. Build the cluster precedence graph: an edge ``C1 -> C2`` whenever some
   operation of ``C1`` completes before some operation of ``C2`` is
   invoked (real-time order must be preserved across clusters) — that
   is, exactly when ``C1``'s earliest completion is before ``C2``'s
   latest invocation, so the graph costs one pass over the operations
   and one comparison per pair of clusters.  Writes that took effect
   without a recorded interval (Byzantine writers) contribute no
   real-time edges.
4. The history is atomic iff no read completes before its write is
   invoked and the cluster graph is acyclic; a topological order of
   clusters (write first, reads by invocation time) is a witness
   linearization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import AtomicityViolation

KIND_WRITE = "write"
KIND_READ = "read"

#: Synthetic operation identifier of the initial write of ``F_init``.
INITIAL_WRITE_OID = "__initial__"


@dataclass(frozen=True)
class HistoryOp:
    """One operation of a recorded history.

    ``invoke`` / ``complete`` are logical times; either may be ``None``
    for writes that took effect on behalf of Byzantine clients (no
    observable interval) — such writes may be linearized anywhere.
    ``value`` is the value written, or returned by the read.
    """

    kind: str
    oid: str
    value: bytes
    invoke: Optional[int] = None
    complete: Optional[int] = None

    def precedes(self, other: "HistoryOp") -> bool:
        """Real-time precedence: this op completed before ``other`` began."""
        return (self.complete is not None and other.invoke is not None
                and self.complete < other.invoke)


def _precedence_edges(clusters: Dict[str, List[HistoryOp]]
                      ) -> Dict[str, Set[str]]:
    """The real-time edges between clusters: ``C1 -> C2`` exactly when
    the earliest completion in ``C1`` is before the latest invocation in
    ``C2`` (some member of ``C1`` :meth:`~HistoryOp.precedes` some
    member of ``C2``).  Operations with no interval count in neither."""
    first_complete: Dict[str, int] = {}
    last_invoke: Dict[str, int] = {}
    for cluster_oid, members in clusters.items():
        completes = [operation.complete for operation in members
                     if operation.complete is not None]
        if completes:
            first_complete[cluster_oid] = min(completes)
        invokes = [operation.invoke for operation in members
                   if operation.invoke is not None]
        if invokes:
            last_invoke[cluster_oid] = max(invokes)
    edges: Dict[str, Set[str]] = {cluster_oid: set()
                                  for cluster_oid in clusters}
    for first, complete in first_complete.items():
        successors = edges[first]
        for second, invoke in last_invoke.items():
            if complete < invoke and second != first:
                successors.add(second)
    return edges


def check_atomicity(operations: Sequence[HistoryOp],
                    initial_value: bytes = b"") -> List[str]:
    """Verify atomicity; returns a witness linearization (operation ids).

    Raises :class:`AtomicityViolation` with a diagnostic message if no
    valid total order exists.  Requires unique write values (two writes of
    the same value raise ``ValueError`` — generate distinct values in
    workloads).
    """
    writes: Dict[bytes, HistoryOp] = {}
    initial = HistoryOp(kind=KIND_WRITE, oid=INITIAL_WRITE_OID,
                        value=initial_value)
    reads: List[HistoryOp] = []
    for operation in operations:
        if operation.kind == KIND_WRITE:
            if operation.value in writes or (
                    operation.value == initial_value):
                raise ValueError(
                    "atomicity checking requires unique write values "
                    f"(duplicate: {operation.value!r})")
            writes[operation.value] = operation
        elif operation.kind == KIND_READ:
            reads.append(operation)
        else:
            raise ValueError(f"unknown operation kind {operation.kind!r}")

    # 1. reads-from mapping.
    clusters: Dict[str, List[HistoryOp]] = {INITIAL_WRITE_OID: [initial]}
    for write in writes.values():
        clusters[write.oid] = [write]
    for read in reads:
        if read.value == initial_value:
            owner = initial
        elif read.value in writes:
            owner = writes[read.value]
        else:
            raise AtomicityViolation(
                f"read {read.oid} returned a value written by no one: "
                f"{read.value!r}")
        if read.complete is not None and owner.invoke is not None \
                and read.complete < owner.invoke:
            raise AtomicityViolation(
                f"read {read.oid} returned the value of write "
                f"{owner.oid}, which was invoked only after the read "
                f"completed")
        clusters[owner.oid].append(read)

    # 2-3. cluster precedence graph.  The initial write precedes all.
    cluster_ids = list(clusters)
    edges = _precedence_edges(clusters)
    indegree: Dict[str, int] = {cluster_oid: 0 for cluster_oid in clusters}
    for successors in edges.values():
        for successor in successors:
            indegree[successor] += 1
    for cluster_oid in cluster_ids:
        if cluster_oid != INITIAL_WRITE_OID \
                and cluster_oid not in edges[INITIAL_WRITE_OID]:
            edges[INITIAL_WRITE_OID].add(cluster_oid)
            indegree[cluster_oid] += 1

    # 4. topological sort (deterministic: prefer earliest write invocation).
    def sort_key(cluster_oid: str) -> Tuple:
        write = clusters[cluster_oid][0]
        invoke = write.invoke if write.invoke is not None else -1
        return (invoke, cluster_oid)

    available = sorted(
        (cluster_oid for cluster_oid in cluster_ids
         if indegree[cluster_oid] == 0), key=sort_key)
    order: List[str] = []
    processed = 0
    while available:
        cluster_oid = available.pop(0)
        processed += 1
        members = clusters[cluster_oid]
        write, cluster_reads = members[0], members[1:]
        if write.oid != INITIAL_WRITE_OID:
            order.append(write.oid)
        cluster_reads.sort(key=lambda op: (
            op.invoke if op.invoke is not None else -1, op.oid))
        order.extend(read.oid for read in cluster_reads)
        inserted = False
        for successor in edges[cluster_oid]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                available.append(successor)
                inserted = True
        if inserted:
            available.sort(key=sort_key)
    if processed != len(clusters):
        cyclic = [cluster_oid for cluster_oid in cluster_ids
                  if indegree[cluster_oid] > 0]
        raise AtomicityViolation(
            "no linearization exists: cyclic real-time constraints among "
            f"write clusters {sorted(cyclic)}")
    return order
