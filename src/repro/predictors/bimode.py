"""Bi-mode predictor (Lee, Chen & Mudge, MICRO 1997).

A de-aliased global-history scheme: branches are dynamically sorted into a
taken-biased and a not-taken-biased stream by a PC-indexed *choice* table;
each stream has its own gshare-indexed *direction* table, so branches of
opposite bias no longer destructively alias.

The paper's Fig 5 configuration: two 128K-entry direction tables plus a
16K-entry bimodal choice table — 544 Kbits total (footnote 1 notes that for
large predictors a choice table smaller than the direction tables is more
cost-effective; above 16K entries added nothing on their benchmarks).
"""

from __future__ import annotations

from repro.common.counters import SplitCounterArray
from repro.history.providers import InfoVector
from repro.indexing.fold import gshare_index
from repro.indexing.gf2 import ByteTables, byte_tables
from repro.predictors.base import BatchCapable, Predictor

__all__ = ["BiModePredictor"]


class BiModePredictor(BatchCapable, Predictor):
    """Choice table + two direction tables.

    Parameters
    ----------
    direction_entries:
        Entries in each of the two direction tables.
    choice_entries:
        Entries in the PC-indexed choice table.
    history_length:
        Global history length for the direction tables' gshare index.
    """

    def __init__(self, direction_entries: int, choice_entries: int,
                 history_length: int, name: str | None = None) -> None:
        for label, value in (("direction_entries", direction_entries),
                             ("choice_entries", choice_entries)):
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{label} must be a power of two, got {value}")
        self.direction_entries = direction_entries
        self.choice_entries = choice_entries
        self.history_length = history_length
        self.direction_bits = direction_entries.bit_length() - 1
        self.name = name or (f"bimode-{direction_entries // 1024}K"
                             f"-h{history_length}")
        self.choice = SplitCounterArray(choice_entries)
        self.taken_table = SplitCounterArray(direction_entries,
                                             init_taken=True)
        self.not_taken_table = SplitCounterArray(direction_entries)

    def _indices(self, vector: InfoVector) -> tuple[int, int]:
        choice_index = (vector.branch_pc >> 2) & (self.choice_entries - 1)
        direction_index = gshare_index(vector.branch_pc, vector.history,
                                       self.history_length,
                                       self.direction_bits)
        return choice_index, direction_index

    def predict(self, vector: InfoVector) -> bool:
        choice_index, direction_index = self._indices(vector)
        if self.choice.predict(choice_index):
            return self.taken_table.predict(direction_index)
        return self.not_taken_table.predict(direction_index)

    def update(self, vector: InfoVector, taken: bool) -> None:
        indices = self._indices(vector)
        choice = self.choice.predict(indices[0])
        table = self.taken_table if choice else self.not_taken_table
        prediction = table.predict(indices[1])
        self._train(indices, choice, table, prediction, taken)

    def access(self, vector: InfoVector, taken: bool) -> bool:
        indices = self._indices(vector)
        choice = self.choice.predict(indices[0])
        table = self.taken_table if choice else self.not_taken_table
        prediction = table.predict(indices[1])
        self._train(indices, choice, table, prediction, taken)
        return prediction

    def _train(self, indices, choice: bool, table: SplitCounterArray,
               prediction: bool, taken: bool) -> None:
        """Bi-mode update rules:

        * only the *selected* direction table trains (the other stream's
          state is untouched — that is the de-aliasing),
        * the choice table trains towards the outcome, except when it
          disagreed with the outcome but the selected direction table still
          predicted correctly (the choice is then doing its job of stream
          assignment and is left alone).
        """
        choice_index, direction_index = indices
        table.update(direction_index, taken)
        if not (choice != taken and prediction == taken):
            self.choice.update(choice_index, taken)

    def _index_tables(self) -> ByteTables:
        return byte_tables((type(self), self.choice_entries,
                            self.history_length, self.direction_bits),
                           self._indices)

    _KERNEL = "bimode_replay"
    batch_access = BatchCapable.batch_access  # see BatchCapable

    def _kernel_banks(self) -> tuple[SplitCounterArray, ...]:
        return (self.choice, self.not_taken_table, self.taken_table)

    @property
    def storage_bits(self) -> int:
        return (self.choice.storage_bits + self.taken_table.storage_bits
                + self.not_taken_table.storage_bits)
