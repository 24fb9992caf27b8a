"""Analytic complexity model (reconstruction of Section 3.5).

The provided copy of the paper truncates inside the complexity analysis, so
the closed-form expressions here are re-derived from the protocol
pseudo-code (Figures 1-3) and the stated Disperse bound
``O(n |F| + n^3 |H|)`` (``n^2 log n |H|`` with hash trees).  They predict
*leading-order* message counts and byte volumes for isolated operations;
the experiment harness compares them against measured values from the
simulator (experiments T1/T2) — shapes and growth rates are expected to
match, constants approximately.

Conventions: ``F`` value size in bytes, ``H`` hash size, ``S`` threshold
signature/share size, ``L`` bound on concurrent listeners.  A write's cost
includes its Disperse and reliable-broadcast sub-instances (AtomicMd
has neither: its write is a two-phase store/commit, ``6n`` messages).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.crypto.hashing import DIGEST_SIZE


@dataclass(frozen=True)
class Prediction:
    """Leading-order predictions for one protocol at one design point."""

    protocol: str
    resilience: str
    storage_blowup: float
    write_messages: int
    write_bytes: int
    read_messages: int
    read_bytes: int
    storage_per_server: int
    non_skipping: bool
    byzantine_clients: bool
    #: Lamport consistency level the protocol provides: "atomic" or "safe"
    consistency: str = "atomic"


@dataclass
class ComplexityModel:
    """Design point: plug in the deployment parameters once, query all
    protocols."""

    n: int
    t: int
    k: Optional[int] = None
    value_size: int = 1024
    hash_size: int = DIGEST_SIZE
    sig_size: int = 128
    ts_size: int = 16
    listeners: int = 0
    commitment: str = "vector"

    def __post_init__(self) -> None:
        if self.k is None:
            self.k = max(1, self.n - self.t)
        if not 1 <= self.k <= self.n:
            raise ConfigurationError("require 1 <= k <= n")

    # -- shared quantities ----------------------------------------------------

    @property
    def block_size(self) -> int:
        """Erasure-code block bytes, ``ceil(|F| / k)`` plus framing."""
        return (self.value_size + 8 + self.k - 1) // self.k

    @property
    def commitment_size(self) -> int:
        """Bytes of the block commitment ``D`` carried per message."""
        if self.commitment == "merkle":
            return self.hash_size
        return self.n * self.hash_size

    @property
    def witness_size(self) -> int:
        """Per-block witness bytes (inclusion proof for Merkle mode)."""
        if self.commitment == "merkle":
            return self.hash_size * max(1, math.ceil(math.log2(self.n))) \
                if self.n > 1 else self.hash_size
        return 0

    def _block_with_proof(self) -> int:
        return self.block_size + self.commitment_size + self.witness_size

    def _disperse_bytes(self) -> int:
        """Fault-free Protocol Disperse, which sends no server what it
        holds: each echo to its own sender, and each ready to the
        ``n - t`` servers whose echoes made up its sender's quorum, names
        ``H(D)`` and carries no block."""
        n, t, block = self.n, self.t, self._block_with_proof()
        return (n * block                                        # send
                + n * (n - 1) * block + n * self.hash_size       # echo
                + n * (n - t) * self.hash_size + n * t * block)  # ready

    # -- this paper's protocols ------------------------------------------------

    def atomic(self) -> Prediction:
        """Protocol Atomic: Disperse + reliable broadcast per write."""
        n = self.n
        block = self._block_with_proof()
        # get-ts/ts/ack: 3n.  Disperse: n sends + n^2 echoes + n^2 readys.
        # RBC of the timestamp: n + 2 n^2 small messages.
        write_messages = 3 * n + (n + 2 * n * n) + (n + 2 * n * n)
        write_bytes = (
            self._disperse_bytes()
            + (n + 2 * n * n) * self.ts_size              # rbc of ts
            + 2 * n * self.ts_size                        # get-ts/ts
            + n * self.ts_size                            # acks
            + self.listeners * n * block)
        read_messages = 3 * n
        read_bytes = n * (block + self.ts_size) \
            + 2 * n * self.ts_size
        storage = self.block_size + self.commitment_size \
            + self.witness_size + self.ts_size
        return Prediction(
            protocol="atomic", resilience="n > 3t",
            storage_blowup=self.n * self.block_size / self.value_size,
            write_messages=write_messages, write_bytes=write_bytes,
            read_messages=read_messages, read_bytes=read_bytes,
            storage_per_server=storage, non_skipping=False,
            byzantine_clients=True)

    def atomic_ns(self) -> Prediction:
        """Protocol AtomicNS: Atomic plus one round of signature shares."""
        base = self.atomic()
        n = self.n
        share_messages = n * n
        share_bytes = n * n * self.sig_size
        sig_extra = 2 * n * self.sig_size  # signatures in ts replies + rbc
        return Prediction(
            protocol="atomic_ns", resilience="n > 3t",
            storage_blowup=base.storage_blowup,
            write_messages=base.write_messages + share_messages,
            write_bytes=base.write_bytes + share_bytes + sig_extra,
            read_messages=base.read_messages,
            read_bytes=base.read_bytes,
            storage_per_server=base.storage_per_server + self.sig_size,
            non_skipping=True, byzantine_clients=True)

    def atomic_md(self) -> Prediction:
        """Protocol AtomicMd: two-phase write (blocks point-to-point with
        a lock ``H(ts, N)``, then an ``(ts, H(D), N)`` commit), reads in
        one round trip whose replies carry each server's block; one
        version at rest.

        Not part of :meth:`all_protocols` (the paper's comparison
        table): crash-only clients, and it needs ``k <= n - 2t``.
        """
        n, k = self.n, self.k
        if k > n - 2 * self.t:
            raise ConfigurationError("atomic_md requires k <= n - 2t")
        # D, TIMESTAMP and the proof of writing N
        metadata = self.commitment_size + self.ts_size + self.hash_size
        # get-ts/ts, store/stored, commit/ack: n each.
        write_messages = 6 * n
        write_bytes = (
            n * (self._block_with_proof() + self.hash_size)   # md-store
            + n * (self.ts_size + 2 * self.hash_size)         # md-commit
            + 4 * n * self.ts_size                 # get-ts/ts/stored/ack
            + self.listeners * n * (
                metadata + self.block_size + self.witness_size))
        # md-read/md-meta/md-read-complete: n each; every md-meta carries
        # its sender's block and witness.
        read_messages = 3 * n
        read_bytes = n * (metadata + self.block_size + self.witness_size) \
            + 2 * n * self.ts_size
        storage = metadata + self.block_size + self.witness_size
        return Prediction(
            protocol="atomic_md", resilience="n > 3t",
            storage_blowup=n * self.block_size / self.value_size,
            write_messages=write_messages, write_bytes=write_bytes,
            read_messages=read_messages, read_bytes=read_bytes,
            storage_per_server=storage, non_skipping=False,
            byzantine_clients=False)

    # -- baselines ---------------------------------------------------------------

    def martin(self) -> Prediction:
        """Martin et al. (SBQ-L): full replication, client timestamps."""
        n = self.n
        write_messages = 4 * n   # get-ts, ts, store, ack
        write_bytes = n * (self.value_size + self.ts_size) \
            + 3 * n * self.ts_size \
            + self.listeners * n * (self.value_size + self.ts_size)
        read_messages = 3 * n
        read_bytes = n * (self.value_size + self.ts_size) \
            + 2 * n * self.ts_size
        return Prediction(
            protocol="martin", resilience="n > 3t",
            storage_blowup=float(n),
            write_messages=write_messages, write_bytes=write_bytes,
            read_messages=read_messages, read_bytes=read_bytes,
            storage_per_server=self.value_size + self.ts_size,
            non_skipping=False, byzantine_clients=False)

    def bazzi_ding(self) -> Prediction:
        """Bazzi-Ding: replication with non-skipping timestamps, n > 4t."""
        base = self.martin()
        return Prediction(
            protocol="bazzi_ding", resilience="n > 4t",
            storage_blowup=base.storage_blowup,
            write_messages=base.write_messages,
            write_bytes=base.write_bytes,
            read_messages=base.read_messages,
            read_bytes=base.read_bytes,
            storage_per_server=base.storage_per_server,
            non_skipping=True, byzantine_clients=False)

    def goodson(self, rollback_rounds: int = 0,
                versions: int = 1) -> Prediction:
        """Goodson et al.: erasure coding with read-time validation.

        Writes are cheap (no server interaction) but servers keep version
        history and a read pays one extra round per rollback after
        inconsistent writes.
        """
        n = self.n
        cross_checksum = n * self.hash_size
        write_messages = 4 * n
        write_bytes = n * (self.block_size + cross_checksum) \
            + 3 * n * self.ts_size
        rounds = 1 + rollback_rounds
        read_messages = 2 * n * rounds + n
        read_bytes = rounds * n * (self.block_size + cross_checksum
                                   + self.ts_size) + n * self.ts_size
        storage = versions * (self.block_size + cross_checksum
                              + self.ts_size)
        return Prediction(
            protocol="goodson", resilience="n > 4t",
            storage_blowup=self.n * self.block_size / self.value_size,
            write_messages=write_messages, write_bytes=write_bytes,
            read_messages=read_messages, read_bytes=read_bytes,
            storage_per_server=storage, non_skipping=False,
            byzantine_clients=False)

    def phalanx(self) -> Prediction:
        """Phalanx-style safe register: replication, single-round reads,
        no listeners — cheapest, weakest (safe semantics only)."""
        n = self.n
        write_messages = 4 * n
        write_bytes = n * (self.value_size + self.ts_size) \
            + 3 * n * self.ts_size
        read_messages = 2 * n
        read_bytes = n * (self.value_size + self.ts_size) \
            + n * self.ts_size
        return Prediction(
            protocol="phalanx", resilience="n > 4t",
            storage_blowup=float(n),
            write_messages=write_messages, write_bytes=write_bytes,
            read_messages=read_messages, read_bytes=read_bytes,
            storage_per_server=self.value_size + self.ts_size,
            non_skipping=False, byzantine_clients=True,
            consistency="safe")

    def all_protocols(self) -> Dict[str, Prediction]:
        """Predictions for the full comparison table (T1)."""
        return {
            "phalanx": self.phalanx(),
            "martin": self.martin(),
            "goodson": self.goodson(),
            "bazzi_ding": self.bazzi_ding(),
            "atomic": self.atomic(),
            "atomic_ns": self.atomic_ns(),
        }
