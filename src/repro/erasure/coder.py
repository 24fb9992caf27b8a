"""Value-level erasure coding: framing, padding, encode, decode.

The protocols store arbitrary byte-string *values* ``F``.  This module
turns the block-level :class:`~repro.erasure.reed_solomon.ReedSolomonCode`
into the paper's value-level interface:

* ``encode(F)`` produces the vector ``[F_1, ..., F_n]`` where each block
  has ``ceil((|F| + header) / k)`` bytes — the ``|F_j| ~ |F| / k`` storage
  saving that motivates information dispersal;
* ``decode({(j, F_j)})`` reconstructs ``F`` from any ``k`` blocks.

Framing: the value is prefixed with its 8-byte big-endian length and
zero-padded to a multiple of ``k``, so decoding is unambiguous for every
value length including zero.

Both directions carry a small value-keyed memo per coder (deterministic
insertion-ordered :class:`~repro.common.lru.LruCache`): protocols
re-encode the same value at every server and re-decode the same block
set at every reader quorum, so repeat calls with identical content are
dictionary hits.  Only successful results are memoized — validation
errors always re-raise.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.common.errors import ConfigurationError, DecodingError
from repro.common.lru import LruCache
from repro.erasure.reed_solomon import ReedSolomonCode

_LENGTH_HEADER = 8

#: Entries per coder in the value-level memos.  Each is the smallest
#: power of two at which every kvperf workload shape computes within 5 %
#: of the encodes and decodes an unbounded memo computes (hit curves in
#: docs/PERFORMANCE.md §2.13).  Encodes repeat while a value is in
#: flight, and four sessions have at most four writes in flight per
#: shard.  Decodes also repeat across a run's history, when a popular
#: value is read again, so that memo is deeper.  An encode entry keeps
#: the value and its ``n`` blocks, a decode entry ``k`` blocks and the
#: value, so an entry past the knee of the curve holds payload for
#: almost no saved work.
_ENCODE_MEMO_CAPACITY = 4
_DECODE_MEMO_CAPACITY = 32


class ErasureCoder:
    """An ``(n, k)`` erasure code over whole byte-string values.

    This is the object the register protocols hold; ``k <= n - t`` is the
    paper's constraint so that the blocks held by honest servers always
    suffice to reconstruct (Theorem 2 allows any ``1 <= k <= n - t``).
    The symbol field follows from ``n`` (see :class:`ReedSolomonCode`).
    """

    def __init__(self, n: int, k: int):
        self._code = ReedSolomonCode(n, k)
        self._encode_memo = LruCache(_ENCODE_MEMO_CAPACITY)
        self._decode_memo = LruCache(_DECODE_MEMO_CAPACITY)

    @property
    def n(self) -> int:
        return self._code.n

    @property
    def k(self) -> int:
        return self._code.k

    def block_length(self, value_length: int) -> int:
        """Byte length of each block for a value of ``value_length`` bytes."""
        padded = value_length + _LENGTH_HEADER
        length = (padded + self.k - 1) // self.k
        # Round up to whole symbols (2 bytes in GF(2^16)).
        symbol_bytes = self._code.field.symbol_bytes
        return -(-length // symbol_bytes) * symbol_bytes

    def encode(self, value: bytes) -> List[bytes]:
        """Encode ``value`` into ``n`` blocks, any ``k`` of which decode."""
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise ConfigurationError("values must be byte strings")
        value = bytes(value)
        cached = self._encode_memo.get(value)
        if cached is not None:
            return list(cached)
        framed = len(value).to_bytes(_LENGTH_HEADER, "big") + value
        block_length = self.block_length(len(value))
        total = block_length * self.k
        if len(framed) < total:  # ljust always copies; pad only if needed
            framed = framed.ljust(total, b"\x00")
        data_blocks = [framed[i * block_length:(i + 1) * block_length]
                       for i in range(self.k)]
        blocks = self._code.encode_blocks(data_blocks)
        self._encode_memo.put(value, tuple(blocks))
        return blocks

    def decode(self, blocks: Iterable[Tuple[int, bytes]]) -> bytes:
        """Reconstruct the value from ``(index, block)`` pairs (1-based
        indices ``j`` as in the paper; any ``k`` distinct indices work).

        Raises :class:`DecodingError` on insufficient, duplicate-index, or
        malformed input.
        """
        by_index: Dict[int, bytes] = {}
        for index, block in blocks:
            if not 1 <= index <= self.n:
                raise DecodingError(f"block index {index} out of range")
            zero_based = index - 1
            data = block if type(block) is bytes else bytes(block)
            previous = by_index.get(zero_based)
            if previous is not None and previous != data:
                raise DecodingError(
                    f"conflicting blocks supplied for index {index}")
            by_index[zero_based] = data
        key = tuple(sorted(by_index.items()))
        cached = self._decode_memo.get(key)
        if cached is not None:
            return cached
        data_blocks = self._code.decode_blocks(by_index)
        framed = b"".join(data_blocks)
        length = int.from_bytes(framed[:_LENGTH_HEADER], "big")
        if length > len(framed) - _LENGTH_HEADER:
            raise DecodingError("corrupt framing: length exceeds payload")
        value = framed[_LENGTH_HEADER:_LENGTH_HEADER + length]
        self._decode_memo.put(key, value)
        return value

    def storage_blowup(self, value_length: int) -> float:
        """Measured storage blow-up ``n * |F_j| / |F|`` for this coder."""
        if value_length <= 0:
            raise ConfigurationError("value length must be positive")
        return self.n * self.block_length(value_length) / value_length
