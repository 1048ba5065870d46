"""The EV8's hardware-constrained index functions (Section 7 of the paper).

Physical reality first (Section 7.1): the predictor is four banks, each one
a prediction array and a hysteresis array of 64 wordlines; every wordline
holds 32 8-bit words of each of G0/G1/Meta and 8 words of BIM.  A table
index therefore decomposes, LSB to MSB, into::

    (i1, i0)                bank number           (Section 6.2 computation)
    (i4, i3, i2)            offset in 8-bit word  (the "unshuffle")
    (i10, ..., i5)          wordline, 64 lines    (shared, UNHASHED)
    (i15, ..., i11)         column (5 bits G0/G1/Meta, 3 bits BIM)

Hardware constraints on each field:

* bank + wordline (8 bits total) are **shared** by all four tables;
* the wordline bits cannot be hashed at all (the decoder is on the critical
  path) — the EV8 uses ``(h3, h2, h1, h0, a8, a7)``;
* each column bit may use at most **one 2-entry XOR gate**;
* the unshuffle parameter (i4, i3, i2) may use arbitrarily wide XOR trees
  (a full cycle is available), and permutes the 8 predictions within the
  word: the branch in fetch slot ``s`` (its PC bits 4..2) reads word bit
  ``s XOR (i4, i3, i2)``.

Notation below follows the paper: ``h0`` is the youngest lghist bit, ``a``
the fetch-block address, ``z``/``y`` the previous two fetch-block addresses.

OCR note: the supplied paper text lost parts of the G0 and BIM equations and
the exact grouping of G1's unshuffle.  Functions marked RECONSTRUCTED were
completed using the paper's own stated rules (Section 7.5): G0 and Meta
share i15/i14; each table XORs *different* pairs of history bits in its
columns; whenever two bits are XORed in a column bit, at least one of them
also feeds the unshuffle tree; G1's unshuffle XORs up to 11 bits; BIM's
remaining bits take path information from block Z.
"""

from __future__ import annotations

import random

import numpy as np

from repro.history.providers import InfoVector, VectorBatch
from repro.predictors.twobcgskew import IndexScheme, TableConfig

__all__ = ["EV8IndexScheme", "decompose_index", "WORDLINE_MODES"]

WORDLINE_MODES = ("history", "address")
"""Wordline-number sources evaluated in Fig 9: the EV8's mixed
history+address bits, or pure address bits ("address only" rows)."""


_FIELDS = ("history", "address", "branch_pc", "path", "bank")
"""The information-vector fields an index may depend on; ``path`` is the
youngest previous fetch-block address (the paper's Z)."""

_BYTE_TABLES: dict[tuple, list[tuple[str, int, np.ndarray]]] = {}
"""Byte tables per (scheme class, wordline_mode, use_block_bank)."""


def _bit(value: int, position: int) -> int:
    return (value >> position) & 1


def _packed(scheme: "EV8IndexScheme", fields: dict[str, int],
            configs: tuple[TableConfig, ...]) -> int:
    """``scheme.compute`` of the vector with these fields (others zero), its
    four indices packed LSB-first into 16-bit lanes."""
    history, address, branch_pc, path, bank = (fields.get(field, 0)
                                               for field in _FIELDS)
    word = 0
    for lane, index in enumerate(scheme.compute(
            InfoVector(history, address, branch_pc, (path,), bank), configs)):
        if not 0 <= index < 1 << 16:
            raise ValueError(f"index {index} does not fit 16 bits")
        word |= index << (16 * lane)
    return word


def _build_byte_tables(scheme: "EV8IndexScheme",
                       configs: tuple[TableConfig, ...]
                       ) -> list[tuple[str, int, np.ndarray]]:
    """Tabulate ``scheme.compute`` as ``(field, byte, table)`` lookups.

    Section 7 builds every index bit from XOR gates only, so ``compute`` is
    linear over GF(2): its value on a vector is the XOR of its values on
    the vector's set bits.  Probing each unit bit of each field gives those
    values; the eight bits of a field byte that reaches an index combine
    into a 256-entry table of packed indices.  Raises :class:`ValueError`
    for what the tables cannot represent: nonzero indices for the zero
    vector, an index wider than 16 bits, or a mismatch on 64 seeded random
    full-width vectors."""
    if _packed(scheme, {}, configs):
        raise ValueError("the zero vector has nonzero indices")
    tables = []
    for field in _FIELDS:
        responses = [_packed(scheme, {field: 1 << bit}, configs)
                     for bit in range(64)]
        for byte in range(8):
            basis = responses[8 * byte:8 * byte + 8]
            if not any(basis):
                continue
            table = np.zeros(256, dtype=np.uint64)
            for bit, response in enumerate(basis):
                half = 1 << bit
                table[half:2 * half] = table[:half] ^ np.uint64(response)
            tables.append((field, byte, table))
    rng = random.Random(2002)
    for _ in range(64):
        fields = {field: rng.getrandbits(64) for field in _FIELDS}
        tabulated = 0
        for field, byte, table in tables:
            tabulated ^= int(table[(fields[field] >> (8 * byte)) & 0xFF])
        if tabulated != _packed(scheme, fields, configs):
            raise ValueError(f"{type(scheme).__name__}.compute is not "
                             f"linear over GF(2): it differs on {fields}")
    return tables


def decompose_index(index: int, column_bits: int = 5) -> tuple[int, int, int, int]:
    """Split a table index into (bank, word offset, wordline, column).

    Mirrors the physical layout above; used by the structural tests and the
    banked-array model.
    """
    bank = index & 0b11
    offset = (index >> 2) & 0b111
    line = (index >> 5) & 0b111111
    column = (index >> 11) & ((1 << column_bits) - 1)
    return bank, offset, line, column


class EV8IndexScheme(IndexScheme):
    """The final EV8 index functions, pluggable into
    :class:`~repro.predictors.twobcgskew.TwoBcGskewPredictor`.

    Parameters
    ----------
    wordline_mode:
        ``"history"`` — the EV8 choice, wordline = (h3, h2, h1, h0, a8, a7);
        ``"address"`` — the Fig 9 "address only" alternative, wordline =
        (a12, ..., a7).
    use_block_bank:
        Use the front-end-computed conflict-free bank number from the
        information vector (the EV8).  When False, bank = (a6, a5) — pure
        address interleaving, used by the Fig 9 "address only" rows.
    """

    #: :meth:`compute_batch` is tabulated from :meth:`compute`, so the
    #: hardware configuration runs batched with one definition of the hash.
    vectorized = True

    def __init__(self, wordline_mode: str = "history",
                 use_block_bank: bool = True) -> None:
        if wordline_mode not in WORDLINE_MODES:
            raise ValueError(
                f"wordline_mode must be one of {WORDLINE_MODES}, got "
                f"{wordline_mode!r}")
        self.wordline_mode = wordline_mode
        self.use_block_bank = use_block_bank

    # -- shared fields -----------------------------------------------------

    def _shared(self, vector: InfoVector) -> tuple[int, int, int]:
        """(bank, wordline, slot) common to all four tables."""
        a = vector.address
        if self.use_block_bank:
            bank = vector.bank & 0b11
        else:
            bank = (a >> 5) & 0b11
        if self.wordline_mode == "history":
            # (i10..i5) = (h3, h2, h1, h0, a8, a7) — Section 7.3.
            line = ((vector.history & 0b1111) << 2) | ((a >> 7) & 0b11)
        else:
            line = (a >> 7) & 0b111111  # (a12..a7), address only
        slot = (vector.branch_pc >> 2) & 0b111
        return bank, line, slot

    @staticmethod
    def _compose(column: int, line: int, slot: int, unshuffle: int,
                 bank: int) -> int:
        return (column << 11) | (line << 5) | ((slot ^ unshuffle) << 2) | bank

    # -- per-table functions -------------------------------------------------

    def compute(self, vector: InfoVector,
                configs: tuple[TableConfig, TableConfig, TableConfig,
                               TableConfig]) -> tuple[int, int, int, int]:
        bank, line, slot = self._shared(vector)
        h = vector.history
        a = vector.address
        z = vector.path[0] if vector.path else 0

        # --- BIM (14-bit index: 3 column bits) ---------------------------
        # Paper: (i13, i12, i11, i4, i3, i2) = (a11, ?, ?, a4, ?, ?) with
        # path information from Z.  RECONSTRUCTED: the lost partners pair
        # the next address bits with z6/z5.
        bim_column = ((_bit(a, 11) << 2)
                      | ((_bit(a, 10) ^ _bit(z, 6)) << 1)
                      | (_bit(a, 9) ^ _bit(z, 5)))
        bim_unshuffle = ((_bit(a, 4) << 2)
                         | ((_bit(a, 3) ^ _bit(z, 6)) << 1)
                         | (_bit(a, 2) ^ _bit(z, 5)))
        bim_index = self._compose(bim_column, line, slot, bim_unshuffle, bank)

        # --- G0 (history length 13: wordline h0..h3, columns h4..h12) ----
        # Paper: G0 and Meta share i15 and i14.  Columns RECONSTRUCTED with
        # history-bit pairs distinct from G1's and Meta's.
        g0_column = (((_bit(h, 7) ^ _bit(h, 11)) << 4)    # i15 (= Meta i15)
                     | ((_bit(h, 8) ^ _bit(h, 12)) << 3)  # i14 (= Meta i14)
                     | ((_bit(h, 6) ^ _bit(h, 10)) << 2)  # i13 RECONSTRUCTED
                     | ((_bit(h, 5) ^ _bit(h, 9)) << 1)   # i12 RECONSTRUCTED
                     | (_bit(a, 10) ^ _bit(h, 4)))        # i11 RECONSTRUCTED
        # Paper gives i3 and i2; i4 RECONSTRUCTED.
        g0_i4 = (_bit(a, 3) ^ _bit(a, 12) ^ _bit(a, 13) ^ _bit(h, 5)
                 ^ _bit(h, 8) ^ _bit(h, 11) ^ _bit(z, 5))
        g0_i3 = (_bit(a, 11) ^ _bit(h, 9) ^ _bit(h, 10) ^ _bit(h, 12)
                 ^ _bit(z, 6) ^ _bit(a, 5))
        g0_i2 = (_bit(a, 2) ^ _bit(a, 14) ^ _bit(a, 10) ^ _bit(h, 6)
                 ^ _bit(h, 4) ^ _bit(h, 7) ^ _bit(a, 6))
        g0_index = self._compose(g0_column, line, slot,
                                 (g0_i4 << 2) | (g0_i3 << 1) | g0_i2, bank)

        # --- G1 (history length 21: columns/unshuffle use h4..h20) -------
        # Columns verbatim from the paper.
        g1_column = (((_bit(h, 19) ^ _bit(h, 12)) << 4)
                     | ((_bit(h, 18) ^ _bit(h, 11)) << 3)
                     | ((_bit(h, 17) ^ _bit(h, 10)) << 2)
                     | ((_bit(h, 16) ^ _bit(h, 4)) << 1)
                     | (_bit(h, 15) ^ _bit(h, 20)))
        # i4 verbatim; i3/i2 grouping RECONSTRUCTED (the text runs the
        # terms together); 11-bit-wide trees as the paper highlights.
        g1_i4 = (_bit(h, 9) ^ _bit(h, 14) ^ _bit(h, 15) ^ _bit(h, 16)
                 ^ _bit(z, 6))
        g1_i3 = (_bit(a, 3) ^ _bit(a, 4) ^ _bit(a, 6) ^ _bit(a, 10)
                 ^ _bit(a, 11) ^ _bit(a, 13) ^ _bit(a, 14) ^ _bit(h, 5)
                 ^ _bit(h, 11) ^ _bit(h, 20) ^ _bit(z, 5))
        g1_i2 = (_bit(a, 2) ^ _bit(a, 5) ^ _bit(a, 9) ^ _bit(h, 4)
                 ^ _bit(h, 7) ^ _bit(h, 8) ^ _bit(h, 10) ^ _bit(h, 12)
                 ^ _bit(h, 13) ^ _bit(h, 14) ^ _bit(h, 17))
        g1_index = self._compose(g1_column, line, slot,
                                 (g1_i4 << 2) | (g1_i3 << 1) | g1_i2, bank)

        # --- Meta (history length 15) — verbatim from the paper ----------
        meta_column = (((_bit(h, 7) ^ _bit(h, 11)) << 4)
                       | ((_bit(h, 8) ^ _bit(h, 12)) << 3)
                       | ((_bit(h, 5) ^ _bit(h, 13)) << 2)
                       | ((_bit(h, 4) ^ _bit(h, 9)) << 1)
                       | (_bit(a, 9) ^ _bit(h, 6)))
        meta_i4 = (_bit(a, 4) ^ _bit(a, 10) ^ _bit(a, 5) ^ _bit(h, 7)
                   ^ _bit(h, 10) ^ _bit(h, 14) ^ _bit(h, 13) ^ _bit(z, 5))
        meta_i3 = (_bit(a, 3) ^ _bit(a, 12) ^ _bit(a, 14) ^ _bit(a, 6)
                   ^ _bit(h, 4) ^ _bit(h, 6) ^ _bit(h, 8) ^ _bit(h, 14))
        meta_i2 = (_bit(a, 2) ^ _bit(a, 9) ^ _bit(a, 11) ^ _bit(a, 13)
                   ^ _bit(h, 5) ^ _bit(h, 9) ^ _bit(h, 11) ^ _bit(h, 12)
                   ^ _bit(z, 6))
        meta_index = self._compose(meta_column, line, slot,
                                   (meta_i4 << 2) | (meta_i3 << 1) | meta_i2,
                                   bank)

        return bim_index, g0_index, g1_index, meta_index

    def compute_batch(self, batch: VectorBatch,
                      configs: tuple[TableConfig, TableConfig, TableConfig,
                                     TableConfig]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
        """Columnar :meth:`compute`: XOR one byte-table lookup per input byte
        that reaches an index (:func:`_build_byte_tables`), then split the
        packed word into its four 16-bit indices.  A batch without path or
        bank columns reads them as zero, as :meth:`compute` does."""
        columns = {"history": batch.history, "address": batch.address,
                   "branch_pc": batch.branch_pc,
                   "path": batch.path[0] if batch.path_depth else None,
                   "bank": batch.bank}
        # compute ignores configs: the physical layout fixes index widths.
        key = (type(self), self.wordline_mode, self.use_block_bank)
        if key not in _BYTE_TABLES:
            _BYTE_TABLES[key] = _build_byte_tables(self, configs)
        packed = np.zeros(len(batch), dtype="<u8")
        for field, byte, table in _BYTE_TABLES[key]:
            column = columns[field]
            if column is not None:
                octets = np.ascontiguousarray(column, "<u8").view(np.uint8)
                packed ^= table.take(octets[byte::8])
        lanes = packed.view("<u2").reshape(-1, 4).T.astype(np.uint64)
        return tuple(lanes)
