"""Information dispersal substrate: Reed–Solomon erasure coding.

Implements the ``(n, k)``-erasure code of Section 2.3 of the paper: any
``k`` of the ``n`` encoded blocks reconstruct the value, and each block has
roughly ``|F| / k`` bytes.  One systematic Reed–Solomon code over GF(2^8)
(``n <= 255``) or GF(2^16) (``n <= 65535``), the field chosen by ``n``.
"""

from repro.erasure.coder import ErasureCoder
from repro.erasure.reed_solomon import ReedSolomonCode

__all__ = ["ErasureCoder", "ReedSolomonCode"]
