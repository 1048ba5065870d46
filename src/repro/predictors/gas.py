"""GAs: global two-level adaptive predictor (Yeh & Patt, 1992).

The global history register selects, concatenated with low PC bits, an entry
in a table of 2-bit counters: the history occupies the high index bits and
the address the low bits (no XOR — this is the pre-gshare "concatenation"
scheme the paper cites as a conventional aliased predictor [27]).
"""

from __future__ import annotations

from repro.common.bitops import mask, xor_fold
from repro.common.counters import SplitCounterArray
from repro.history.providers import InfoVector
from repro.indexing.gf2 import ByteTables, byte_tables
from repro.predictors.base import BatchCapable, Predictor

__all__ = ["GAsPredictor"]


class GAsPredictor(BatchCapable, Predictor):
    """Two-level GAs: index = history bits concatenated with PC bits."""

    def __init__(self, entries: int, history_length: int,
                 name: str | None = None) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        if not 0 <= history_length <= self.index_bits:
            raise ValueError(
                f"GAs history length must be in 0..{self.index_bits} "
                f"(the history is concatenated, not hashed), got "
                f"{history_length}")
        self.history_length = history_length
        self.address_bits = self.index_bits - history_length
        self.name = name or f"gas-{entries // 1024}K-h{history_length}"
        self._counters = SplitCounterArray(entries)

    def _index(self, vector: InfoVector) -> int:
        address_part = (vector.branch_pc >> 2) & mask(self.address_bits)
        if self.address_bits < 20:
            # Fold the rest of the PC in so small partitions still
            # discriminate addresses (standard set-index folding).
            address_part = xor_fold((vector.branch_pc >> 2),
                                    self.address_bits) if self.address_bits else 0
        history_part = vector.history & mask(self.history_length)
        return (history_part << self.address_bits) | address_part

    def predict(self, vector: InfoVector) -> bool:
        return self._counters.predict(self._index(vector))

    def update(self, vector: InfoVector, taken: bool) -> None:
        self._counters.update(self._index(vector), taken)

    def access(self, vector: InfoVector, taken: bool) -> bool:
        index = self._index(vector)
        prediction = self._counters.predict(index)
        self._counters.update(index, taken)
        return prediction

    def _index_tables(self) -> ByteTables:
        return byte_tables(
            (type(self), self.history_length, self.address_bits), self._index)

    batch_access = BatchCapable.batch_access  # see BatchCapable

    @property
    def storage_bits(self) -> int:
        return self._counters.storage_bits
