"""Bimodal predictor (J. Smith, 1981).

A single table of 2-bit saturating counters indexed by branch address.
Captures per-branch bias, nothing else.  It is both the paper's simplest
baseline and the BIM component of 2Bc-gskew (Section 4.1), where it
"accurately predicts strongly biased static branches".
"""

from __future__ import annotations

import numpy as np

from repro.common.counters import SplitCounterArray
from repro.history.providers import InfoVector, VectorBatch
from repro.indexing.gf2 import ByteTables, byte_tables
from repro.predictors.base import BatchCapable, Predictor

__all__ = ["BimodalPredictor"]


class BimodalPredictor(BatchCapable, Predictor):
    """PC-indexed 2-bit counter table.

    Parameters
    ----------
    entries:
        Table size (power of two).
    hysteresis_entries:
        Optional smaller hysteresis array (Section 4.4 sharing).
    """

    def __init__(self, entries: int, hysteresis_entries: int | None = None,
                 name: str = "bimodal") -> None:
        self.name = name
        self.entries = entries
        self._counters = SplitCounterArray(entries, hysteresis_entries)
        self._mask = entries - 1

    def _index(self, vector: InfoVector) -> int:
        return (vector.branch_pc >> 2) & self._mask

    def predict(self, vector: InfoVector) -> bool:
        return self._counters.predict(self._index(vector))

    def update(self, vector: InfoVector, taken: bool) -> None:
        self._counters.update(self._index(vector), taken)

    def access(self, vector: InfoVector, taken: bool) -> bool:
        index = (vector.branch_pc >> 2) & self._mask
        prediction = self._counters.predict(index)
        self._counters.update(index, taken)
        return prediction

    def _index_tables(self) -> ByteTables:
        return byte_tables((type(self), self._mask), self._index)

    def batch_access(self, batch: VectorBatch) -> np.ndarray:
        (indices,) = self._index_streams(batch)
        return self._counters.batch_access(indices, batch.takens)

    @property
    def storage_bits(self) -> int:
        return self._counters.storage_bits
