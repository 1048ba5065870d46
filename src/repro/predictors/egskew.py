"""e-gskew: the enhanced skewed branch predictor (Michaud, Seznec & Uhlig,
ISCA 1997).

Three banks of 2-bit counters vote by majority.  "Enhanced" means (a) one of
the banks — BIM — is indexed by address only, acting as a bimodal fallback,
and (b) a *partial* update policy: on a correct prediction only the banks
that voted correctly are strengthened; on a misprediction all banks train.

e-gskew is both a Fig 5-era standalone predictor and the sub-structure of
2Bc-gskew (Section 4.1: "Bank BIM is the bimodal predictor, but is also part
of the e-gskew predictor").
"""

from __future__ import annotations

from repro import kernels
from repro.common.bitops import mask
from repro.common.counters import SplitCounterArray
from repro.history.providers import InfoVector
from repro.indexing.fold import info_word
from repro.indexing.gf2 import ByteTables, byte_tables
from repro.indexing.skew import skew_index
from repro.predictors.base import BatchCapable, Predictor

__all__ = ["EGskewPredictor"]


class EGskewPredictor(BatchCapable, Predictor):
    """Three-bank majority-vote skewed predictor with partial update.

    Parameters
    ----------
    entries:
        Entries per bank (all three banks equal, as in the original paper).
    history_length:
        Global history length used by banks G0 and G1.  ``g0_history_length``
        optionally de-synchronises the two (Section 4.5 shows different
        lengths help slightly).
    """

    def __init__(self, entries: int, history_length: int,
                 g0_history_length: int | None = None,
                 update_policy: str = "partial",
                 name: str | None = None) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        if update_policy not in ("partial", "total"):
            raise ValueError(
                f"update_policy must be 'partial' or 'total', got "
                f"{update_policy!r}")
        self.entries = entries
        self.index_bits = entries.bit_length() - 1
        self.history_length = history_length
        self.g0_history_length = (history_length if g0_history_length is None
                                  else g0_history_length)
        self.update_policy = update_policy
        self.name = name or f"egskew-3x{entries // 1024}K-h{history_length}"
        self.bim = SplitCounterArray(entries)
        self.g0 = SplitCounterArray(entries)
        self.g1 = SplitCounterArray(entries)

    def _indices(self, vector: InfoVector) -> tuple[int, int, int]:
        bim_index = (vector.branch_pc >> 2) & mask(self.index_bits)
        g0_word = info_word(vector.address, vector.history,
                            self.g0_history_length, 2 * self.index_bits)
        g1_word = info_word(vector.address, vector.history,
                            self.history_length, 2 * self.index_bits)
        return (bim_index,
                skew_index(1, g0_word, self.index_bits),
                skew_index(2, g1_word, self.index_bits))

    def predict(self, vector: InfoVector) -> bool:
        bim_i, g0_i, g1_i = self._indices(vector)
        votes = (int(self.bim.predict(bim_i)) + int(self.g0.predict(g0_i))
                 + int(self.g1.predict(g1_i)))
        return votes >= 2

    def update(self, vector: InfoVector, taken: bool) -> None:
        indices = self._indices(vector)
        self._train(indices, taken)

    def access(self, vector: InfoVector, taken: bool) -> bool:
        indices = self._indices(vector)
        bim_i, g0_i, g1_i = indices
        p_bim = self.bim.predict(bim_i)
        p_g0 = self.g0.predict(g0_i)
        p_g1 = self.g1.predict(g1_i)
        prediction = (int(p_bim) + int(p_g0) + int(p_g1)) >= 2
        self._train_with_reads(indices, (p_bim, p_g0, p_g1), prediction, taken)
        return prediction

    def _train(self, indices, taken: bool) -> None:
        bim_i, g0_i, g1_i = indices
        reads = (self.bim.predict(bim_i), self.g0.predict(g0_i),
                 self.g1.predict(g1_i))
        prediction = sum(map(int, reads)) >= 2
        self._train_with_reads(indices, reads, prediction, taken)

    def _index_tables(self) -> ByteTables:
        return byte_tables((type(self), self.index_bits, self.history_length,
                            self.g0_history_length), self._indices)

    _KERNEL = "egskew_replay"
    batch_access = BatchCapable.batch_access  # see BatchCapable

    def _kernel_banks(self) -> tuple[SplitCounterArray, ...]:
        return (self.bim, self.g0, self.g1)

    def _kernel_tables(self) -> tuple:
        return (kernels.banks(*self._kernel_banks()),
                self.update_policy == "partial")

    def _train_with_reads(self, indices, reads, prediction: bool,
                          taken: bool) -> None:
        banks = (self.bim, self.g0, self.g1)
        if self.update_policy == "total" or prediction != taken:
            for bank, index in zip(banks, indices):
                bank.update(index, taken)
            return
        # Partial update on a correct prediction: strengthen only the banks
        # that participated in the correct majority.
        for bank, index, read in zip(banks, indices, reads):
            if read == taken:
                bank.strengthen(index, taken)

    @property
    def storage_bits(self) -> int:
        return (self.bim.storage_bits + self.g0.storage_bits
                + self.g1.storage_bits)
