"""Skewing functions for multi-bank predictors.

The e-gskew and 2Bc-gskew predictors index each bank with a *different*
hashing function of the same (address, history) pair, chosen so that two
information vectors colliding in one bank are unlikely to collide in the
others — the majority vote then tolerates any single-bank collision.  The
paper uses the function family of the skewed-associative cache papers
(Seznec & Bodin [17], Michaud et al. [15]); Section 8.1.1: "indexing
functions from the family presented in [17, 15] were used for all
predictors".

That family is built from a bijection ``H`` on n-bit values and its inverse:
``H`` is a one-position shift with an XOR feedback (a Galois LFSR step).  For
a 2n-bit information word split into halves ``(v2, v1)``, bank ``k`` uses one
of::

    f0 = H(v1)    ^ Hinv(v2) ^ v2
    f1 = H(v1)    ^ Hinv(v2) ^ v1
    f2 = Hinv(v1) ^ H(v2)    ^ v2
    f3 = Hinv(v1) ^ H(v2)    ^ v1

Two words that differ in either half map to different indices under at least
three of the four functions ("inter-bank dispersion").

``H`` and its inverse are shifts with XOR feedback, linear over GF(2), so the
batched engine compiles the skewed index functions into byte tables
(:mod:`repro.indexing.gf2`) from these scalar definitions; there is no
separate array version to keep in step.
"""

from __future__ import annotations

from repro.common.bitops import mask

__all__ = ["h_function", "h_inverse", "skew_index", "SKEW_FUNCTION_COUNT"]

SKEW_FUNCTION_COUNT = 4


def h_function(value: int, width: int) -> int:
    """The skewing bijection ``H`` on ``width``-bit values.

    Rotate left one position, feeding back the XOR of the two top bits into
    bit 0:  ``H(x_{n-1}..x_0) = (x_{n-2}, ..., x_0, x_{n-1} XOR x_{n-2})``.

    >>> h_function(0b1000, 4)
    1
    >>> all(len({h_function(x, 6) for x in range(64)}) == 64 for _ in [0])
    True
    """
    if width < 2:
        raise ValueError(f"H needs at least 2 bits, got width={width}")
    value &= mask(width)
    top = (value >> (width - 1)) & 1
    second = (value >> (width - 2)) & 1
    return ((value << 1) & mask(width)) | (top ^ second)


def h_inverse(value: int, width: int) -> int:
    """The inverse of :func:`h_function`.

    >>> all(h_inverse(h_function(x, 7), 7) == x for x in range(128))
    True
    """
    if width < 2:
        raise ValueError(f"H needs at least 2 bits, got width={width}")
    value &= mask(width)
    low = value & 1
    rest = value >> 1
    top_restored = low ^ (rest >> (width - 2))  # x_{n-1} = y_0 ^ y_{n-1}
    return rest | ((top_restored & 1) << (width - 1))


def skew_index(rank: int, info: int, width: int) -> int:
    """Bank ``rank``'s index for a 2*``width``-bit information word.

    ``rank`` selects one of the four functions of the family; callers with
    more than four banks may also vary the information word per bank.
    """
    if not 0 <= rank < SKEW_FUNCTION_COUNT:
        raise ValueError(
            f"rank must be in 0..{SKEW_FUNCTION_COUNT - 1}, got {rank}")
    v1 = info & mask(width)
    v2 = (info >> width) & mask(width)
    if rank == 0:
        return h_function(v1, width) ^ h_inverse(v2, width) ^ v2
    if rank == 1:
        return h_function(v1, width) ^ h_inverse(v2, width) ^ v1
    if rank == 2:
        return h_inverse(v1, width) ^ h_function(v2, width) ^ v2
    return h_inverse(v1, width) ^ h_function(v2, width) ^ v1
