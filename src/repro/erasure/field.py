"""Arithmetic in the binary fields GF(2^8) and GF(2^16).

The ``(n, k)`` erasure code (paper, Section 2.3) is a Reed–Solomon code
over GF(2^m) with ``n`` distinct evaluation points, so :func:`field_for`
picks GF(2^8) (primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``) for
``n <= 255`` and GF(2^16) (``x^16 + x^12 + x^3 + x + 1``) beyond; both
are generated by 2.  Elements are Python ints in ``[0, 2^m)``; a block is
a byte string of big-endian ``m``-bit symbols.  One :class:`GaloisField`
class serves both widths, its tables built on first use.

Block products use the standard library only.  A :class:`BlockMatrix`
splits each block into byte planes, multiplies a plane by a constant
with one ``bytes.translate`` through a 256-byte table, and sums a row by
XOR-ing ``int.from_bytes`` values.  GF(2^8) shares its 256 tables
(64 KiB) across all matrices; GF(2^16) compiles up to four tables per
distinct coefficient into each matrix, so whatever caches the matrix
bounds their memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

Matrix = List[List[int]]


def identity_matrix(size: int) -> Matrix:
    """The ``size x size`` identity matrix (the same in every field)."""
    return [[1 if i == j else 0 for j in range(size)] for i in range(size)]


class GaloisField:
    """GF(2^``bits``) modulo the primitive polynomial ``poly``.

    ``bits`` is 8 or 16, so a symbol is a whole number of bytes
    (``symbol_bytes``) and blocks split into symbols without bit packing.
    """

    def __init__(self, bits: int, poly: int) -> None:
        self.bits = bits
        self.poly = poly
        self.order = 1 << bits
        self.symbol_bytes = bits // 8
        self._tables: Optional[tuple] = None
        self._terms: Optional[Dict[int, tuple]] = None

    def __repr__(self) -> str:
        return f"GF(2^{self.bits})"

    def tables(self) -> tuple:
        """The ``(exp, log)`` lists: ``exp[log[a]] == a`` for ``a != 0``;
        ``exp`` is doubled so a sum of two logs needs no reduction."""
        if self._tables is None:
            cycle = self.order - 1
            exp = [0] * (2 * cycle)
            log = [0] * self.order
            value = 1
            for power in range(cycle):
                exp[power] = value
                log[value] = power
                value <<= 1
                if value & self.order:
                    value ^= self.poly
            exp[cycle:] = exp[:cycle]
            self._tables = (exp, log)
        return self._tables

    # -- scalar ops (addition and subtraction are XOR) ------------------------

    def mul(self, a: int, b: int) -> int:
        """Multiplication."""
        if a == 0 or b == 0:
            return 0
        exp, log = self.tables()
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ``ZeroDivisionError`` on 0."""
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in {self}")
        exp, log = self.tables()
        return exp[self.order - 1 - log[a]]

    def pow(self, a: int, exponent: int) -> int:
        """Exponentiation (negative exponents allowed for ``a != 0``)."""
        if a == 0:
            if exponent < 0:
                raise ZeroDivisionError(f"zero has no inverse in {self}")
            return 1 if exponent == 0 else 0
        exp, log = self.tables()
        return exp[(log[a] * exponent) % (self.order - 1)]

    # -- matrices, as lists of row lists ---------------------------------------

    def matrix_multiply(self, a: Matrix, b: Matrix) -> Matrix:
        """Matrix product."""
        rows, inner, cols = len(a), len(b), len(b[0])
        if any(len(row) != inner for row in a):
            raise ValueError("matrix dimensions do not match")
        result = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            out = result[i]
            for s in range(inner):
                coefficient = a[i][s]
                if coefficient == 0:
                    continue
                b_row = b[s]
                for j in range(cols):
                    out[j] ^= self.mul(coefficient, b_row[j])
        return result

    def matrix_invert(self, matrix: Matrix) -> Matrix:
        """Invert a square matrix by Gauss–Jordan elimination.

        Raises ``ValueError`` if the matrix is singular.
        """
        size = len(matrix)
        if any(len(row) != size for row in matrix):
            raise ValueError("matrix is not square")
        mul = self.mul
        work = [list(row) for row in matrix]
        inverse = identity_matrix(size)
        for col in range(size):
            pivot_row = next(
                (r for r in range(col, size) if work[r][col] != 0), None)
            if pivot_row is None:
                raise ValueError(f"matrix is singular over {self}")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inverse[col], inverse[pivot_row] = inverse[pivot_row], inverse[col]
            pivot_inv = self.inv(work[col][col])
            work[col] = [mul(pivot_inv, value) for value in work[col]]
            inverse[col] = [mul(pivot_inv, value) for value in inverse[col]]
            for row in range(size):
                if row == col or work[row][col] == 0:
                    continue
                factor = work[row][col]
                work[row] = [value ^ mul(factor, pivot)
                             for value, pivot in zip(work[row], work[col])]
                inverse[row] = [value ^ mul(factor, pivot)
                                for value, pivot in zip(inverse[row],
                                                        inverse[col])]
        return inverse

    def vandermonde_matrix(self, rows: int, cols: int) -> Matrix:
        """The ``rows x cols`` Vandermonde matrix ``V[i][j] = i^j``.

        Any ``cols`` distinct rows are linearly independent as long as
        ``rows < order``, which is what makes every ``k``-subset of
        encoded blocks decodable.
        """
        if rows > self.order - 1:
            raise ValueError(
                f"{self} Vandermonde supports at most {self.order - 1} rows")
        return [[self.pow(i, j) for j in range(cols)] for i in range(rows)]

    # -- block arithmetic ------------------------------------------------------

    def matvec(self, matrix: Matrix, blocks: Sequence[bytes]) -> List[bytes]:
        """Multiply ``matrix`` by the column vector of equal-length blocks:
        one block per matrix row (see :class:`BlockMatrix`)."""
        return BlockMatrix(self, matrix).matvec(blocks)

    def _term_cache(self) -> Dict[int, tuple]:
        """Coefficient -> terms for one :class:`BlockMatrix`.  GF(2^8)
        shares one full dict, 256 tables of 256 bytes built on first use;
        GF(2^16) gets a fresh one, so its tables live and die with the
        matrix using them."""
        if self.bits != 8:
            return {}
        if self._terms is None:
            self._terms = {c: self._coefficient_terms(c)
                           for c in range(self.order)}
        return self._terms

    def _coefficient_terms(self, coefficient: int) -> tuple:
        """Multiplication by ``coefficient`` as ``(p_in, p_out, table)``
        byte-plane terms (plane 0 is a symbol's most significant byte):
        plane ``p_out`` of ``c·x`` is the XOR of ``table[x_p_in]`` over the
        terms targeting it.  All-zero tables are dropped and the identity
        table is ``None``, so coefficient 1 is a bare XOR."""
        if coefficient == 0:
            return ()
        exp, log = self.tables()
        width = self.symbol_bytes
        terms = []
        for p_in in range(width):
            # c·x^(8·(width-1-p_in) + i): the images of plane p_in's bits.
            base = log[coefficient] + 8 * (width - 1 - p_in)
            products = _product_table([exp[base + i] for i in range(8)],
                                      width)
            for p_out in range(width):
                table = products[width - 1 - p_out::width]
                if table != _ZERO_TABLE:
                    terms.append((p_in, p_out,
                                  None if table == _IDENTITY_TABLE else table))
        return tuple(terms)


_ZERO_TABLE = bytes(256)
_IDENTITY_TABLE = bytes(range(256))


def _product_table(images: Sequence[int], width: int) -> bytes:
    """The 256 values, ``width`` bytes each, little-endian, of the
    GF(2)-linear map on bytes that sends bit ``i`` to ``images[i]``.

    Entries ``[2^i, 2^(i+1))`` are the ones below XOR ``images[i]``, so
    the table doubles eight times as one integer; byte ``p`` of every
    entry is the slice ``[p::width]``.
    """
    broadcast = _BROADCAST[width]
    bits = 8 * width
    table = 0
    for i, image in enumerate(images):
        table |= (table ^ image * broadcast[i]) << (bits << i)
    return table.to_bytes(256 * width, "little")


#: ``_BROADCAST[width][i]`` has a 1 in the low byte of each of ``2^i``
#: ``width``-byte entries: times a symbol, that symbol in every entry.
_BROADCAST = {width: [int.from_bytes((b"\x01" + bytes(width - 1)) * (1 << i),
                                     "little") for i in range(8)]
              for width in (1, 2)}


class BlockMatrix:
    """A matrix over ``field`` compiled for products with blocks.

    A block splits into ``symbol_bytes`` byte planes (``block[p::width]``);
    multiplying a plane by a constant is one ``bytes.translate``, and a
    row sums its terms by XOR-ing ``int.from_bytes`` values before writing
    each output plane with one ``to_bytes``.  ``rows[i]`` holds row ``i``'s
    ``(source plane, target plane, table)`` terms, where the source plane
    indexes ``column * symbol_bytes + p_in``; coefficient 0 contributes no
    term.  In GF(2^16) the tables belong to this object (up to four
    256-byte tables per distinct coefficient), so the cache holding a
    matrix bounds their memory.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: GaloisField, matrix: Matrix) -> None:
        self.field = field
        width = field.symbol_bytes
        cache = field._term_cache()
        rows = []
        for row in matrix:
            terms = []
            for column, coefficient in enumerate(row):
                coefficient_terms = cache.get(coefficient)
                if coefficient_terms is None:
                    coefficient_terms = cache[coefficient] = (
                        field._coefficient_terms(coefficient))
                terms.extend((column * width + p_in, p_out, table)
                             for p_in, p_out, table in coefficient_terms)
            rows.append(terms)
        self.rows = rows

    def matvec(self, blocks: Sequence[bytes]) -> List[bytes]:
        """One block per row: the row's combination of ``blocks``."""
        width = self.field.symbol_bytes
        if width == 1:
            planes = blocks
        else:
            planes = [block[p::width] for block in blocks
                      for p in range(width)]
        size = len(planes[0]) if planes else 0
        from_bytes = int.from_bytes
        out = []
        for terms in self.rows:
            sums = [0] * width
            for source, target, table in terms:
                plane = planes[source]
                sums[target] ^= from_bytes(
                    plane if table is None else plane.translate(table),
                    "little")
            if width == 1:
                out.append(sums[0].to_bytes(size, "little"))
                continue
            block = bytearray(size * width)
            for p, total in enumerate(sums):
                block[p::width] = total.to_bytes(size, "little")
            out.append(bytes(block))
        return out


GF256 = GaloisField(8, 0x11D)
GF65536 = GaloisField(16, 0x1100B)


def field_for(n: int) -> GaloisField:
    """The smallest field whose Vandermonde matrix has ``n`` rows:
    GF(2^8) for ``n <= 255``, GF(2^16) beyond."""
    return GF256 if n <= 255 else GF65536
