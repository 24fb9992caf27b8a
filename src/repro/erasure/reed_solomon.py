"""Systematic ``(n, k)`` Reed–Solomon erasure code over GF(2^8) or GF(2^16).

This is the ``(n, k)``-erasure code ``C`` of Section 2.3: ``encode``
produces ``n`` blocks of ``|F| / k`` bytes each, and ``decode``
reconstructs the value from *any* ``k`` blocks with their indices.

Construction: take the ``n x k`` Vandermonde matrix over
:func:`~repro.erasure.field.field_for` ``(n)`` and right-multiply by the
inverse of its top ``k x k`` square, yielding a systematic generator
matrix (identity on top) in which every ``k``-row subset is invertible.
Block arithmetic is :meth:`~repro.erasure.field.GaloisField.matvec`.

Hot-path design (the decode kernel dominates the F1/F2/F3 sweeps):

* **Decode plans.**  Decoding from a given index subset always performs
  the same linear algebra, and sweeps decode from the *same* few subsets
  thousands of times.  ``decode_blocks`` therefore compiles the chosen
  index tuple into a :class:`_DecodePlan` — which data rows are present,
  which are missing, and the solve matrix mapping the supplied blocks
  directly to the missing rows — and memoizes it in a deterministic,
  insertion-ordered :class:`~repro.common.lru.LruCache`.
* **Partial-systematic solve.**  Present data rows are returned as-is;
  only the ``m`` missing data rows are solved for, via an ``m x m``
  inversion (not ``k x k``) composed with the parity coefficients into a
  single ``m x k`` matrix, so the per-decode matvec work drops from
  ``k^2`` to ``m * k`` coefficient-block products.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, DecodingError
from repro.common.lru import LruCache
from repro.erasure.field import Matrix, field_for

#: Decode plans cached per code instance: chosen k-subsets recur
#: constantly across sweeps, and 128 distinct subsets comfortably covers
#: every experiment in the repository.
_PLAN_CACHE_CAPACITY = 128


class _DecodePlan(NamedTuple):
    """Compiled decoder for one chosen index tuple.

    ``known`` are the chosen systematic indices (data rows supplied
    directly); ``missing`` are the data rows to solve for; ``matrix`` is
    the composed ``m x k`` solve matrix applied to the supplied blocks
    (ordered by ascending chosen index, i.e. known rows then parity
    rows).  ``matrix`` is ``None`` for the all-systematic plan.
    """

    known: Tuple[int, ...]
    missing: Tuple[int, ...]
    matrix: Optional[Matrix]


def _as_bytes(block) -> bytes:
    return block if type(block) is bytes else bytes(block)


class ReedSolomonCode:
    """A systematic ``(n, k)`` Reed–Solomon code over bytes.

    ``encode`` maps ``k`` equal-length data blocks to ``n`` blocks whose
    first ``k`` entries are the data itself; ``decode`` recovers the data
    blocks from any ``k`` of the ``n``.

    Parameters
    ----------
    n:
        Total number of blocks (at most 65535; beyond 255, symbols are
        2 bytes, so block lengths must be even).
    k:
        Number of blocks sufficient for reconstruction (``1 <= k <= n``).
    use_numpy:
        Vectorize block arithmetic with numpy (default when available).
    """

    def __init__(self, n: int, k: int, use_numpy: bool = True):
        if not 1 <= k <= n:
            raise ConfigurationError(f"require 1 <= k <= n, got n={n} k={k}")
        self.field = field = field_for(n)
        if n > field.order - 1:
            raise ConfigurationError(
                f"{field} Reed-Solomon supports n <= {field.order - 1}")
        self.n = n
        self.k = k
        self._use_numpy = use_numpy
        vandermonde = field.vandermonde_matrix(n, k)
        top_inverse = field.matrix_invert([row[:] for row in vandermonde[:k]])
        self._generator: Matrix = field.matrix_multiply(vandermonde,
                                                        top_inverse)
        #: Parity rows only (rows ``k..n-1``): the systematic top rows
        #: are the identity, so encoding never multiplies by them.
        self._parity_rows: Matrix = [row[:] for row in self._generator[k:]]
        self._plan_cache = LruCache(_PLAN_CACHE_CAPACITY)

    @property
    def generator_matrix(self) -> Matrix:
        """The systematic ``n x k`` generator matrix (row ``j`` makes block
        ``j``; the top ``k`` rows are the identity)."""
        return [row[:] for row in self._generator]

    # -- encoding ---------------------------------------------------------

    def encode_blocks(self, data_blocks: Sequence[bytes]) -> List[bytes]:
        """Encode ``k`` equal-length data blocks into ``n`` blocks."""
        if len(data_blocks) != self.k:
            raise ConfigurationError(
                f"encode_blocks expects {self.k} data blocks, "
                f"got {len(data_blocks)}")
        lengths = {len(block) for block in data_blocks}
        if len(lengths) != 1:
            raise ConfigurationError("data blocks must have equal length")
        if lengths.pop() % self.field.symbol_bytes:
            raise ConfigurationError(
                f"{self.field} blocks must have even byte length")
        data = [_as_bytes(block) for block in data_blocks]
        # Systematic fast path: the first k output blocks *are* the data;
        # only the parity rows need arithmetic.
        return data + self.field.matvec(self._parity_rows, data,
                                        self._use_numpy)

    # -- decoding ---------------------------------------------------------

    def _choose_indices(self, blocks: Dict[int, bytes]) -> Tuple[int, ...]:
        """Validate and pick the ``k`` decode indices (lowest valid win).

        Extras beyond the chosen ``k`` are ignored without being sorted
        or length-checked — only the blocks actually decoded are
        validated.
        """
        valid = [index for index in blocks if 0 <= index < self.n]
        if len(valid) < self.k:
            raise DecodingError(
                f"need {self.k} blocks to decode, got {len(valid)}")
        if len(valid) == self.k:
            chosen = sorted(valid)
        else:
            chosen = heapq.nsmallest(self.k, valid)
        lengths = {len(blocks[index]) for index in chosen}
        if len(lengths) != 1:
            raise DecodingError("blocks must have equal length")
        if lengths.pop() % self.field.symbol_bytes:
            raise DecodingError(f"{self.field} blocks must have even length")
        return tuple(chosen)

    def _build_plan(self, chosen: Tuple[int, ...]) -> _DecodePlan:
        """Compile the solve for one index subset (see module docstring)."""
        k = self.k
        known = tuple(index for index in chosen if index < k)
        if len(known) == k:
            return _DecodePlan(known, (), None)
        parity = [index for index in chosen if index >= k]
        present = set(known)
        missing = tuple(j for j in range(k) if j not in present)
        generator = self._generator
        field = self.field
        # Solve B x = rhs where B is the parity coefficients over the
        # missing columns; every k-row subset of the generator is
        # invertible, and with unit rows eliminated that reduces to B.
        b_matrix = [[generator[p][j] for j in missing] for p in parity]
        try:
            b_inverse = field.matrix_invert(b_matrix)
        except ValueError as exc:  # pragma: no cover - cannot happen for RS
            raise DecodingError(str(exc)) from exc
        # Compose into one m x k matrix over the supplied blocks
        # [known..., parity...]: rhs_p = block_p + sum_j G[p][j] block_j,
        # so missing = (Binv C) known + Binv parity.
        m = len(missing)
        matrix: Matrix = []
        for r in range(m):
            row = []
            for j in known:
                acc = 0
                for x in range(m):
                    acc ^= field.mul(b_inverse[r][x], generator[parity[x]][j])
                row.append(acc)
            row.extend(b_inverse[r])
            matrix.append(row)
        return _DecodePlan(known, missing, matrix)

    def decode_blocks(self, blocks: Dict[int, bytes]) -> List[bytes]:
        """Recover the ``k`` data blocks from ``{index: block}`` pairs.

        ``blocks`` must contain at least ``k`` entries with distinct
        indices in ``[0, n)``; extras are ignored deterministically
        (lowest indices win).  Raises :class:`DecodingError` otherwise.
        """
        chosen = self._choose_indices(blocks)
        plan = self._plan_cache.get_or_compute(
            chosen, lambda: self._build_plan(chosen))
        supplied = [_as_bytes(blocks[index]) for index in chosen]
        if not plan.missing:
            # All-systematic fast path: the data blocks are present.
            return supplied
        solved = self.field.matvec(plan.matrix, supplied, self._use_numpy)
        out: List[bytes] = [b""] * self.k
        for position, index in enumerate(plan.known):
            out[index] = supplied[position]
        for position, index in enumerate(plan.missing):
            out[index] = solved[position]
        return out
