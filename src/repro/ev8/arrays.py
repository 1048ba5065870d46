"""The physical memory-array layout of the EV8 predictor (Section 7.1).

Logically the predictor has four tables x (prediction + hysteresis) = eight
arrays; physically it is **two arrays per bank** (one prediction, one
hysteresis), eight total, where *"each word line in the arrays is made up
of the four logical predictor components"*:

* each bank has 64 wordlines;
* each wordline holds 32 8-bit words of each of G0, G1 and Meta plus 8
  8-bit words of BIM — 832 prediction bits per line;
* a prediction read selects one wordline, then one 8-bit word per logical
  component (column selection), then permutes the word (unshuffle).

This module computes the bit-accurate physical coordinates of every logical
table entry and proves the layout sound: the mapping is a bijection onto
``banks x wordlines x 832`` bits.  It exists for structural verification
(``tests/test_arrays.py`` asserts the logical predictor state and the
physical image agree) and for layout inspection through the public
:class:`WordlineLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ev8.config import EV8Config, EV8_CONFIG

__all__ = ["PhysicalCoordinate", "WordlineLayout"]

_TABLE_ORDER = ("BIM", "G0", "G1", "Meta")


@dataclass(frozen=True)
class PhysicalCoordinate:
    """Where one logical prediction bit lives on silicon."""

    bank: int
    wordline: int
    bit: int
    """Bit offset within the 832-bit wordline."""

    array: str = "prediction"
    """``"prediction"`` or ``"hysteresis"`` — which of the bank's two
    physical arrays."""


class WordlineLayout:
    """Bit-accurate wordline layout for a (validated) EV8 configuration.

    Within a wordline, components are laid out in the fixed order BIM, G0,
    G1, Meta; within a component, words in column order; within a word,
    bits in offset order.  (The real floorplan interleaves differently, but
    any fixed bijection is equivalent for verification purposes.)
    """

    def __init__(self, config: EV8Config | None = None) -> None:
        self.config = config or EV8_CONFIG
        self.config.validate()
        self.banks = self.config.banks
        self.wordlines = 1 << self.config.wordline_bits
        self.word_bits = 1 << self.config.word_bits
        # Words of each component per wordline: entries spread evenly over
        # banks and wordlines.
        self._words_per_line: dict[str, int] = {}
        self._component_base: dict[str, int] = {}
        base = 0
        for name, table in zip(_TABLE_ORDER, self.config.tables()):
            words = table.entries // (self.banks * self.wordlines
                                      * self.word_bits)
            if words == 0:
                raise ValueError(
                    f"{name} too small for the {self.banks}x"
                    f"{self.wordlines} bank/wordline grid")
            self._words_per_line[name] = words
            self._component_base[name] = base
            base += words * self.word_bits
        self.line_bits = base

    # -- geometry ------------------------------------------------------------

    def words_per_line(self, table: str) -> int:
        """8-bit words of one component per wordline (paper: 32 for
        G0/G1/Meta, 8 for BIM)."""
        return self._words_per_line[table]

    def component_bit_range(self, table: str) -> tuple[int, int]:
        """[start, end) bit offsets of a component within the wordline."""
        start = self._component_base[table]
        return start, start + self._words_per_line[table] * self.word_bits

    # -- mapping ------------------------------------------------------------

    def locate(self, table: str, index: int,
               array: str = "prediction") -> PhysicalCoordinate:
        """Physical coordinate of logical ``table[index]``.

        The index decomposes exactly as the read pipeline does: bank (low 2
        bits), word offset (3 bits), wordline (6 bits), column (the rest).
        """
        if table not in _TABLE_ORDER:
            raise ValueError(f"unknown table {table!r}")
        if array not in ("prediction", "hysteresis"):
            raise ValueError(f"unknown array {array!r}")
        position = _TABLE_ORDER.index(table)
        spec = self.config.tables()[position]
        entries = (spec.entries if array == "prediction"
                   else (spec.hysteresis_entries or spec.entries))
        if not 0 <= index < entries:
            raise ValueError(
                f"{table} {array} index {index} out of range {entries}")
        bank = index & (self.banks - 1)
        offset = (index >> 2) & (self.word_bits - 1)
        wordline = (index >> 5) & (self.wordlines - 1)
        column = index >> (2 + self.config.word_bits
                           + self.config.wordline_bits)
        bit = (self._component_base[table] + column * self.word_bits
               + offset)
        return PhysicalCoordinate(bank=bank, wordline=wordline, bit=bit,
                                  array=array)

    def total_prediction_bits(self) -> int:
        """Capacity of the four prediction arrays combined."""
        return self.banks * self.wordlines * self.line_bits

    def enumerate_all(self, array: str = "prediction"):
        """Yield ``(table, index, coordinate)`` for every logical bit
        (exhaustive; used by the bijection tests on scaled-down configs)."""
        for name, table in zip(_TABLE_ORDER, self.config.tables()):
            entries = (table.entries if array == "prediction"
                       else (table.hysteresis_entries or table.entries))
            for index in range(entries):
                yield name, index, self.locate(name, index, array)
