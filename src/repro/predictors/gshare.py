"""gshare predictor (McFarling, 1993).

A single 2-bit counter table indexed by the XOR of the branch address and
the global history.  The paper's Fig 5 uses a 1M-entry (2 Mbit) gshare with
its best history length (20) as the classic "aliased" global-history
baseline that the de-aliased schemes are measured against.
"""

from __future__ import annotations

from repro.common.bitops import mask
from repro.common.counters import SplitCounterArray
from repro.history.providers import InfoVector
from repro.indexing.fold import gshare_index
from repro.indexing.gf2 import ByteTables, byte_tables
from repro.predictors.base import BatchCapable, Predictor

__all__ = ["GsharePredictor"]


class GsharePredictor(BatchCapable, Predictor):
    """Global-history XOR address indexed counter table."""

    def __init__(self, entries: int, history_length: int,
                 name: str | None = None) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        if history_length < 0:
            raise ValueError(
                f"history length must be >= 0, got {history_length}")
        self.entries = entries
        self.history_length = history_length
        self.index_bits = entries.bit_length() - 1
        self.name = name or f"gshare-{entries // 1024}K-h{history_length}"
        self._counters = SplitCounterArray(entries)
        self._history_mask = mask(history_length)

    def _index(self, vector: InfoVector) -> int:
        return gshare_index(vector.branch_pc, vector.history,
                            self.history_length, self.index_bits)

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
        return byte_tables((type(self), self.history_length, self.index_bits),
                           self._index)

    batch_access = BatchCapable.batch_access  # see BatchCapable

    @property
    def storage_bits(self) -> int:
        return self._counters.storage_bits
