"""The Alpha EV8 branch predictor configuration (Table 1 of the paper).

======  ================  ================  ==============
table   prediction        hysteresis        history length
======  ================  ================  ==============
BIM     16K entries       16K entries       4
G0      64K entries       32K entries       13
G1      64K entries       64K entries       21
Meta    64K entries       32K entries       15
======  ================  ================  ==============

Totals: 208 Kbits of prediction + 144 Kbits of hysteresis = **352 Kbits**.

Note an inconsistency inside the paper itself: the prose of Section 4.4 says
G1 and Meta have half-size hysteresis, but Table 1 and Section 8.4 both
halve **G0 and Meta** — and only the Table 1 assignment sums to the stated
208/144 Kbit split, so that is what we (and this module's validation)
follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.predictors.twobcgskew import TableConfig

__all__ = ["EV8Config", "EV8_CONFIG", "TABLE1"]


@dataclass(frozen=True)
class EV8Config:
    """Sizes and history lengths of the four logical tables, plus the
    structural parameters of the banked implementation (Sections 6-7)."""

    bim: TableConfig = field(default_factory=lambda: TableConfig(
        entries=16 * 1024, history_length=4, hysteresis_entries=16 * 1024))
    g0: TableConfig = field(default_factory=lambda: TableConfig(
        entries=64 * 1024, history_length=13, hysteresis_entries=32 * 1024))
    g1: TableConfig = field(default_factory=lambda: TableConfig(
        entries=64 * 1024, history_length=21, hysteresis_entries=64 * 1024))
    meta: TableConfig = field(default_factory=lambda: TableConfig(
        entries=64 * 1024, history_length=15, hysteresis_entries=32 * 1024))

    banks: int = 4
    """The predictor is 4-way bank-interleaved (Section 6)."""
    wordline_bits: int = 6
    """Each bank has 64 wordlines (Section 7.1)."""
    word_bits: int = 3
    """8 predictions per word — one aligned fetch block (Section 7.1)."""

    def tables(self) -> tuple[TableConfig, TableConfig, TableConfig, TableConfig]:
        """(BIM, G0, G1, Meta)."""
        return (self.bim, self.g0, self.g1, self.meta)

    @property
    def prediction_bits(self) -> int:
        """Prediction-array budget in bits (paper: 208 Kbits)."""
        return sum(table.entries for table in self.tables())

    @property
    def hysteresis_bits(self) -> int:
        """Hysteresis-array budget in bits (paper: 144 Kbits)."""
        return sum(table.hysteresis_entries or table.entries
                   for table in self.tables())

    @property
    def total_bits(self) -> int:
        """Total memory budget (paper: 352 Kbits)."""
        return self.prediction_bits + self.hysteresis_bits

    def validate(self) -> None:
        """Check the structural invariants of Sections 6-7.

        * every table's index decomposes into bank + word offset + wordline
          (+ columns),
        * all four tables share bank and wordline bits, so every table needs
          at least bank+offset+wordline index bits,
        * G0/G1/Meta are equally sized (they share column-selection wiring).
        """
        shared_bits = 2 + self.word_bits + self.wordline_bits  # bank+off+line
        for label, table in zip(("BIM", "G0", "G1", "Meta"), self.tables()):
            if table.index_bits < shared_bits:
                raise ValueError(
                    f"{label} has {table.index_bits} index bits; the shared "
                    f"bank/offset/wordline fields need {shared_bits}")
        if not (self.g0.entries == self.g1.entries == self.meta.entries):
            raise ValueError(
                "G0, G1 and Meta must be equally sized — they share wordline "
                "and column-selection wiring (Section 7.1)")
        if self.banks != 4:
            raise ValueError(
                f"the bank-number computation of Section 6.2 is defined for "
                f"4 banks, got {self.banks}")


EV8_CONFIG = EV8Config()
"""The shipped Alpha EV8 configuration (Table 1)."""

TABLE1 = {
    "BIM": {"prediction": 16 * 1024, "hysteresis": 16 * 1024, "history": 4},
    "G0": {"prediction": 64 * 1024, "hysteresis": 32 * 1024, "history": 13},
    "G1": {"prediction": 64 * 1024, "hysteresis": 64 * 1024, "history": 21},
    "Meta": {"prediction": 64 * 1024, "hysteresis": 32 * 1024, "history": 15},
}
"""Table 1 of the paper, verbatim, for tests and reports."""
