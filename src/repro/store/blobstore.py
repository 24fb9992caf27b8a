"""A Byzantine fault-tolerant object (blob) store over atomic registers.

The paper's introduction motivates the register abstraction with
networked storage systems (NAS, object storage, SAN): "a complete storage
system can be modeled as an array of these registers."  This module is
that array put to work — a chunked object store in which every chunk and
every manifest is one atomic register of a cluster:

* ``put(name, data)`` splits the blob into fixed-size chunks, writes each
  chunk to its own register, then writes a *manifest* register recording
  the chunk count, total size, and per-chunk digests.  Because the
  manifest write begins only after every chunk write completed, any
  reader that sees the manifest also sees the chunks (atomic registers
  compose by real-time order).
* ``get(name)`` reads the manifest, fetches the chunks, and verifies each
  against its digest; a digest mismatch means a concurrent ``put``
  overwrote a chunk after this manifest was read, so ``get`` retries with
  a fresh manifest (bounded retries, then :class:`ConcurrentUpdate`).
* Objects are versioned by the writer identity + a local sequence number,
  so concurrent ``put``s to one name linearize like register writes:
  last manifest wins, and every ``get`` returns some complete version.

Everything Byzantine-tolerant about the registers is inherited: up to
``t < n/3`` corrupted servers, Byzantine clients unable to store
inconsistent chunks, erasure-coded per-server storage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

from repro.cluster import Cluster
from repro.common.errors import ReproError
from repro.common.serialization import decode, encode
from repro.crypto.hashing import hash_bytes

DEFAULT_CHUNK_SIZE = 16 * 1024

#: Manifest wire format version (future-proofing the layout).
_MANIFEST_VERSION = 1


class BlobStoreError(ReproError):
    """Base error of the blob store layer."""


class BlobNotFound(BlobStoreError):
    """``get``/``stat`` on a name that has no (non-deleted) manifest."""


class ConcurrentUpdate(BlobStoreError):
    """``get`` kept losing races against concurrent ``put``s."""


@dataclass(frozen=True)
class BlobStat:
    """Metadata of a stored blob."""

    name: str
    size: int
    chunk_count: int
    version: str


class BlobStore:
    """Chunked object store bound to one client of a register cluster.

    Several ``BlobStore`` instances (one per client) may operate on the
    same cluster concurrently; names are shared, operations linearize.
    """

    def __init__(self, cluster: Cluster, client_index: int,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size < 1:
            raise BlobStoreError("chunk size must be positive")
        self._cluster = cluster
        self._client_index = client_index
        self._chunk_size = chunk_size
        self._sequence = itertools.count()

    # -- tags and versions --------------------------------------------------

    def _manifest_tag(self, name: str) -> str:
        return f"blob/{name}/manifest"

    def _chunk_tag(self, name: str, index: int) -> str:
        return f"blob/{name}/chunk{index}"

    def _next_oid(self, verb: str) -> str:
        return f"{verb}-c{self._client_index}-{next(self._sequence)}"

    # -- operations -------------------------------------------------------------

    def put(self, name: str, data: bytes) -> BlobStat:
        """Store ``data`` under ``name`` (overwrites previous versions)."""
        version = self._next_oid("v")
        chunks = [data[offset:offset + self._chunk_size]
                  for offset in range(0, len(data), self._chunk_size)]
        if not chunks:
            chunks = [b""]
        digests: List[bytes] = []
        for index, chunk in enumerate(chunks):
            # Chunk payloads are version-framed so two versions of one
            # chunk never collide byte-for-byte (unique write values).
            framed = encode((version, chunk))
            digests.append(hash_bytes(framed))
            self._cluster.write(self._client_index,
                                self._chunk_tag(name, index),
                                self._next_oid("put"), framed)
        manifest = encode((_MANIFEST_VERSION, version, len(data),
                           len(chunks), digests, False))
        self._cluster.write(self._client_index, self._manifest_tag(name),
                            self._next_oid("put"), manifest)
        return BlobStat(name=name, size=len(data),
                        chunk_count=len(chunks), version=version)

    def delete(self, name: str) -> None:
        """Delete ``name`` by writing a tombstone manifest."""
        version = self._next_oid("v")
        manifest = encode((_MANIFEST_VERSION, version, 0, 0, [], True))
        self._cluster.write(self._client_index, self._manifest_tag(name),
                            self._next_oid("del"), manifest)

    def _read_manifest(self, name: str):
        handle = self._cluster.read(self._client_index,
                                    self._manifest_tag(name),
                                    self._next_oid("get"))
        if not handle.result:
            return None  # initial register value: never written
        try:
            record = decode(handle.result)
        except Exception as exc:
            raise BlobStoreError(f"corrupt manifest for {name!r}") from exc
        if not (isinstance(record, tuple) and len(record) == 6
                and record[0] == _MANIFEST_VERSION):
            raise BlobStoreError(f"unknown manifest layout for {name!r}")
        return record

    def stat(self, name: str) -> BlobStat:
        """Metadata of the current version of ``name``."""
        record = self._read_manifest(name)
        if record is None or record[5]:
            raise BlobNotFound(name)
        _, version, size, chunk_count, _, _ = record
        return BlobStat(name=name, size=size, chunk_count=chunk_count,
                        version=version)

    def exists(self, name: str) -> bool:
        """Whether a non-deleted version of ``name`` is stored."""
        record = self._read_manifest(name)
        return record is not None and not record[5]

    def get(self, name: str, max_attempts: int = 8) -> bytes:
        """Fetch the blob stored under ``name``.

        Retries when a concurrent ``put`` overwrites chunks between the
        manifest read and the chunk reads; raises
        :class:`ConcurrentUpdate` after ``max_attempts`` lost races.
        """
        for _ in range(max_attempts):
            record = self._read_manifest(name)
            if record is None or record[5]:
                raise BlobNotFound(name)
            _, version, size, chunk_count, digests, _ = record
            chunks = self._read_chunks(name, version, chunk_count, digests)
            if chunks is None:
                continue  # lost a race: refetch the manifest
            data = b"".join(chunks)
            if len(data) != size:
                raise BlobStoreError(
                    f"manifest/chunk size mismatch for {name!r}")
            return data
        raise ConcurrentUpdate(
            f"get({name!r}) lost {max_attempts} races against "
            f"concurrent puts")

    def _read_chunks(self, name: str, version: str, chunk_count: int,
                     digests) -> Optional[List[bytes]]:
        chunks: List[bytes] = []
        for index in range(chunk_count):
            handle = self._cluster.read(self._client_index,
                                        self._chunk_tag(name, index),
                                        self._next_oid("get"))
            framed = handle.result
            if framed is None or hash_bytes(framed) != digests[index]:
                return None  # overwritten by a newer version mid-read
            chunk_version, chunk = decode(framed)
            if chunk_version != version:
                return None
            chunks.append(chunk)
        return chunks
