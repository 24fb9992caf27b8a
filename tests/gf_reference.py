"""A numpy reference for Reed-Solomon block products, for tests only.

The package's block kernel is standard-library Python; this vectorised
reference shares none of its code or tables.  It multiplies whole symbol
arrays by shift-and-add, reducing by the field's polynomial, so agreement
with ``GaloisField.matvec`` and ``ReedSolomonCode`` checks the kernel
against the field's definition rather than against itself.
"""

import numpy as np


def _dtype(field):
    return np.dtype(">u2") if field.symbol_bytes == 2 else np.dtype(np.uint8)


def _mul(field, coefficient, symbols):
    """``coefficient * symbols`` elementwise, by shift-and-add."""
    product = np.zeros_like(symbols)
    shifted = symbols.copy()
    while coefficient:
        if coefficient & 1:
            product ^= shifted
        coefficient >>= 1
        shifted <<= 1
        shifted ^= np.where(shifted & field.order, field.poly, 0).astype(
            shifted.dtype)
    return product


def numpy_matvec(field, matrix, blocks):
    """``matrix`` times the column of ``blocks``, one row per block out;
    each block is big-endian symbols of ``field.symbol_bytes`` bytes."""
    dtype = _dtype(field)
    columns = [np.frombuffer(block, dtype=dtype).astype(np.uint32)
               for block in blocks]
    out = []
    for row in matrix:
        total = np.zeros_like(columns[0])
        for coefficient, symbols in zip(row, columns):
            total ^= _mul(field, coefficient, symbols)
        out.append(total.astype(dtype).tobytes())
    return out


def numpy_encode(code, data):
    """``code.encode_blocks(data)`` by the reference: the data, then the
    generator's parity rows times the data."""
    return list(data) + numpy_matvec(code.field, code._generator[code.k:],
                                     data)


def numpy_decode(code, blocks):
    """``code.decode_blocks(blocks)`` by the reference: invert the
    generator rows of the first ``k`` supplied indices and apply it."""
    chosen = sorted(blocks)[:code.k]
    rows = [list(code._generator[index]) for index in chosen]
    inverse = code.field.matrix_invert(rows)
    return numpy_matvec(code.field, inverse, [blocks[index] for index in chosen])
