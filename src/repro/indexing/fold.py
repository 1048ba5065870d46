"""Building and compressing (address, history, path) information words.

Predictor tables have a fixed index width; the information vector (PC bits,
history bits — possibly longer than the index, Section 5.3 — and path
addresses) must be compressed into that width.  The standard academic
technique, used throughout the paper's own simulations, is to concatenate
the fields and XOR-fold the result.

These scalar functions are the only definition of each hash.  XOR-folding
and concatenation are linear over GF(2), so the batched engine compiles
every index function built from them into byte tables
(:mod:`repro.indexing.gf2`) instead of restating it over numpy arrays.
"""

from __future__ import annotations

from repro.common.bitops import mask, xor_fold

__all__ = ["PC_FIELD_BITS", "info_word", "gshare_index"]

PC_FIELD_BITS = 20
"""Address bits retained in information words (instruction-granular: the
2 byte-offset bits are dropped first).  20 bits cover code footprints up to
4 MB, far beyond the synthetic workloads."""


def info_word(pc: int, history: int, history_length: int, width: int,
              path: int = 0, path_bits: int = 0) -> int:
    """Compress (pc, history, path) into a ``width``-bit word.

    The history field is placed above the PC field and the (optional) path
    field above the history, then the concatenation is XOR-folded down to
    ``width`` bits.  With ``history_length = 0`` this degenerates to a pure
    address hash.
    """
    if history_length < 0:
        raise ValueError(f"history length must be >= 0, got {history_length}")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    vector = (pc >> 2) & mask(PC_FIELD_BITS)
    offset = PC_FIELD_BITS
    if history_length:
        vector |= (history & mask(history_length)) << offset
        offset += history_length
    if path_bits:
        vector |= (path & mask(path_bits)) << offset
    return xor_fold(vector, width)


def gshare_index(pc: int, history: int, history_length: int,
                 width: int) -> int:
    """McFarling's gshare index: PC XOR global history, history aligned to
    the most significant index bits.

    When the history is longer than the index it is XOR-folded first
    (Section 5.3's long-history regime).
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    pc_part = (pc >> 2) & mask(width)
    history &= mask(history_length)
    if history_length <= width:
        history_part = history << (width - history_length)
    else:
        history_part = xor_fold(history, width)
    return pc_part ^ history_part
