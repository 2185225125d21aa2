"""Z-order (Morton) curve encoding (paper, Section III-A, Example 2).

The z-value of a grid cell is the bitwise interleaving of its horizontal
and vertical coordinates.  The paper's Example 2: a cell at horizontal
010 and vertical 101 has z-value 011001 — horizontal bits occupy the
*even* positions counting from the most significant bit, i.e. the
interleaving order is (x2 y2 x1 y1 x0 y0) for 3-bit coordinates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["interleave", "deinterleave", "z_encode", "z_decode",
           "z_encode_array", "z_decode_cells"]

# Magic-number spreading for 32-bit coordinates -> 64-bit Morton codes.
_MASKS = (
    0x0000_FFFF_0000_FFFF,
    0x00FF_00FF_00FF_00FF,
    0x0F0F_0F0F_0F0F_0F0F,
    0x3333_3333_3333_3333,
    0x5555_5555_5555_5555,
)


def _spread(value: int) -> int:
    """Spread the low 32 bits of ``value`` into even bit positions."""
    v = value & 0xFFFF_FFFF
    v = (v | (v << 16)) & _MASKS[0]
    v = (v | (v << 8)) & _MASKS[1]
    v = (v | (v << 4)) & _MASKS[2]
    v = (v | (v << 2)) & _MASKS[3]
    v = (v | (v << 1)) & _MASKS[4]
    return v


def _compact(value: int) -> int:
    """Inverse of :func:`_spread`: gather even bit positions."""
    v = value & _MASKS[4]
    v = (v | (v >> 1)) & _MASKS[3]
    v = (v | (v >> 2)) & _MASKS[2]
    v = (v | (v >> 4)) & _MASKS[1]
    v = (v | (v >> 8)) & _MASKS[0]
    v = (v | (v >> 16)) & 0xFFFF_FFFF
    return v


def interleave(x: int, y: int) -> int:
    """Interleave coordinate bits: x into even, y into odd positions.

    With ``bits``-wide coordinates the result reads, MSB first,
    ``x_{b-1} y_{b-1} ... x_0 y_0`` — matching the paper's Example 2
    where (x=010, y=101) yields 011001.
    """
    return (_spread(x) << 1) | _spread(y)


def deinterleave(z: int) -> tuple[int, int]:
    """Inverse of :func:`interleave`, returning ``(x, y)``."""
    return _compact(z >> 1), _compact(z)


def z_encode(x: int, y: int) -> int:
    """Z-value of the cell with column ``x`` and row ``y``."""
    if x < 0 or y < 0:
        raise ValueError(f"cell coordinates must be non-negative, got ({x}, {y})")
    return interleave(x, y)


def z_decode(z: int) -> tuple[int, int]:
    """Cell (column, row) of a z-value."""
    if z < 0:
        raise ValueError(f"z-value must be non-negative, got {z}")
    return deinterleave(z)


def z_encode_array(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`z_encode` over uint64 coordinate arrays."""
    v = xs.astype(np.uint64)
    w = ys.astype(np.uint64)

    def spread(a: np.ndarray) -> np.ndarray:
        a = a & np.uint64(0xFFFF_FFFF)
        a = (a | (a << np.uint64(16))) & np.uint64(_MASKS[0])
        a = (a | (a << np.uint64(8))) & np.uint64(_MASKS[1])
        a = (a | (a << np.uint64(4))) & np.uint64(_MASKS[2])
        a = (a | (a << np.uint64(2))) & np.uint64(_MASKS[3])
        a = (a | (a << np.uint64(1))) & np.uint64(_MASKS[4])
        return a

    return (spread(v) << np.uint64(1)) | spread(w)


#: (column, row) of every 8-bit Morton code.  A z-value decodes one
#: byte at a time, each byte holding four bits of either coordinate.
_BYTE_CELLS = np.array([deinterleave(code) for code in range(256)],
                       dtype=np.int64)


def z_decode_cells(zs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`z_decode`: the ``(n, 2)`` int64 array of
    (column, row) pairs for a z-value array.

    One table gather per byte that any z-value still has set, so the
    z-values of a small grid cost a handful of array operations.
    """
    z = np.asarray(zs).astype(np.uint64)
    byte, eight = np.uint64(0xFF), np.uint64(8)
    cells = _BYTE_CELLS[z & byte]
    shift = 4
    z = z >> eight
    while z.any():
        cells = cells | (_BYTE_CELLS[z & byte] << shift)
        shift += 4
        z = z >> eight
    return cells
