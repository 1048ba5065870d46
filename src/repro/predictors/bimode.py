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

import numpy as np

from repro import kernels
from repro.common.counters import ARM_NONE, SplitCounterArray
from repro.history.providers import InfoVector, VectorBatch
from repro.indexing.fold import gshare_index, gshare_index_vec
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

    def batch_supported(self) -> bool:
        return kernels.available()

    def batch_access(self, batch: VectorBatch) -> np.ndarray:
        """Batched replay: the choice and direction index streams are
        computed once in numpy, then the compiled ``bimode_replay`` kernel
        (``repro/kernels/replay.c``) walks them in stream order, restating
        :meth:`access` and :meth:`_train` on the tables' raw buffers.

        Event code per position: bit 0 the prediction, bit 1 the choice,
        bits 2-3 the selected direction table's write arm and bits 4-5 the
        choice table's (``ARM_*`` from :mod:`repro.common.counters`);
        telemetry is reduced from the codes.
        """
        lib = kernels.require()
        choice_idx = (batch.branch_pc.astype(np.uint64, copy=False)
                      >> np.uint64(2))
        direction_idx = kernels.stream(gshare_index_vec(
            batch.branch_pc, batch.history, self.history_length,
            self.direction_bits))
        takens = kernels.stream(batch.takens, np.bool_)
        codes = np.empty(len(batch), dtype=np.uint8)
        banks = kernels.banks(self.choice, self.not_taken_table,
                              self.taken_table)
        lib.bimode_replay(len(codes), kernels.address(choice_idx),
                          kernels.address(direction_idx),
                          kernels.address(takens), banks.ctypes.data,
                          codes.ctypes.data)
        if self._telemetry.enabled:
            self._count_events(codes)
        return (codes & 1).view(np.bool_)

    def _count_events(self, codes: np.ndarray) -> None:
        """Every ``bank.*`` counter of the scalar walk, from the codes."""
        values, weights = np.unique(codes, return_counts=True)
        choice = (values >> 1) & 1
        self.choice.count_replayed(weights, np.ones(len(values),
                                                    dtype=np.bool_),
                                   values >> 4)
        for table, selected in ((self.not_taken_table, choice == 0),
                                (self.taken_table, choice == 1)):
            table.count_replayed(weights, selected,
                                 np.where(selected, (values >> 2) & 3,
                                          ARM_NONE))

    @property
    def storage_bits(self) -> int:
        return (self.choice.storage_bits + self.taken_table.storage_bits
                + self.not_taken_table.storage_bits)
