"""Bit-manipulation helpers shared across the predictor implementations.

All predictor index functions in this repository are ultimately built from a
small set of primitive operations on non-negative integers interpreted as bit
vectors: masking, extracting bits and bit fields, and XOR-folding long vectors
down to a fixed width.  Keeping them here (and testing them exhaustively) lets
the index-function modules read like the equations in the paper.
"""

from __future__ import annotations

__all__ = ["bit", "bits", "mask", "xor_fold"]


def mask(width: int) -> int:
    """Return a bit mask of ``width`` low-order ones.

    >>> mask(4)
    15
    >>> mask(0)
    0
    """
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bit(value: int, position: int) -> int:
    """Return bit ``position`` of ``value`` (0 or 1).

    >>> bit(0b1010, 1)
    1
    >>> bit(0b1010, 0)
    0
    """
    if position < 0:
        raise ValueError(f"bit position must be non-negative, got {position}")
    return (value >> position) & 1


def bits(value: int, low: int, width: int) -> int:
    """Return the ``width``-bit field of ``value`` starting at bit ``low``.

    >>> bits(0b110100, 2, 3)
    5
    """
    if low < 0:
        raise ValueError(f"low bit must be non-negative, got {low}")
    if width < 0:
        raise ValueError(f"field width must be non-negative, got {width}")
    return (value >> low) & mask(width)


def xor_fold(value: int, width: int) -> int:
    """Fold an arbitrarily long bit vector down to ``width`` bits by XORing
    successive ``width``-wide segments.

    This is the standard technique for hashing a history register that is
    longer than the predictor index (Section 5.3 of the paper notes the EV8
    uses 21 history bits to index a 64K-entry table; the surplus bits must be
    folded into the index).

    >>> xor_fold(0b1111_0000_1010, 4)
    5
    >>> xor_fold(0b101, 8)
    5
    """
    if width <= 0:
        raise ValueError(f"fold width must be positive, got {width}")
    folded = 0
    segment_mask = mask(width)
    while value:
        folded ^= value & segment_mask
        value >>= width
    return folded
