"""2Bc-gskew: the hybrid skewed predictor the EV8 implements (Section 4).

Structure (Fig 2 of the paper): four banks of 2-bit counters —

* **BIM**, a bimodal table (also one of the three e-gskew banks),
* **G0** and **G1**, the two other e-gskew banks,
* **Meta**, the meta-predictor choosing, per prediction, between BIM alone
  and the majority vote of {BIM, G0, G1}.

This class is the *generic, fully configurable* engine used across the
paper's design-space exploration: per-table sizes (Section 4.6), per-table
history lengths (Section 4.5), half-size shared hysteresis (Section 4.4),
partial vs total update (Section 4.2), and a pluggable index scheme
(Section 7 constraints are a different scheme, injected by
:mod:`repro.ev8`).  The flagship EV8 configuration is built on top of it in
:mod:`repro.ev8.predictor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.common.bitops import mask
from repro.common.counters import SplitCounterArray, count_selected
from repro.history.providers import InfoVector, VectorBatch
from repro.indexing.fold import info_word, info_word_vec
from repro.indexing.skew import skew_index, skew_index_vec
from repro.predictors.base import BatchCapable, Predictor

__all__ = ["TableConfig", "IndexScheme", "SkewedIndexScheme",
           "TwoBcGskewPredictor"]

# The arms of the partial update policy (``_train_partial``), as the replay
# kernel's event codes carry them (``UPDATE_*`` in ``kernels/replay.c``).
(_UPDATE_SUPPRESSED, _UPDATE_STRENGTHENED, _UPDATE_CHOOSER_FIXED,
 _UPDATE_FULL) = range(4)

_PATH_BITS_PER_BLOCK = 2
"""Address bits taken from each previous-block address when the index scheme
embeds path information (Section 5.2).  Kept deliberately small: the real
EV8 consumes only a handful of path bits (z6, z5 in the column/unshuffle
functions, y6, y5 through the bank number) — path information disambiguates
aliased histories, but every extra bit also fragments the index space."""


@dataclass(frozen=True)
class TableConfig:
    """Size and history length of one logical predictor table.

    ``hysteresis_entries`` defaults to ``entries`` (private hysteresis); the
    EV8 halves it for G0 and Meta (Table 1).
    """

    entries: int
    history_length: int
    hysteresis_entries: int | None = None

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entries & (self.entries - 1):
            raise ValueError(
                f"table entries must be a power of two, got {self.entries}")
        if self.history_length < 0:
            raise ValueError(
                f"history length must be >= 0, got {self.history_length}")

    @property
    def index_bits(self) -> int:
        return self.entries.bit_length() - 1


class IndexScheme:
    """Maps an :class:`InfoVector` to the four table indices
    (BIM, G0, G1, Meta).

    Injected into :class:`TwoBcGskewPredictor`; the default is the academic
    skewed family below, and :mod:`repro.ev8.indexfuncs` provides the
    hardware-constrained EV8 functions.
    """

    #: Whether :meth:`compute_batch` is implemented (the batched engine
    #: falls back to scalar for schemes that stay False, such as a custom
    #: scheme with only :meth:`compute`).
    vectorized = False

    def compute(self, vector: InfoVector,
                configs: tuple[TableConfig, TableConfig, TableConfig,
                               TableConfig]) -> tuple[int, int, int, int]:
        raise NotImplementedError

    def compute_batch(self, batch: VectorBatch,
                      configs: tuple[TableConfig, TableConfig, TableConfig,
                                     TableConfig]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
        """Vectorized :meth:`compute` over a whole batch (bit-identical)."""
        raise NotImplementedError


class SkewedIndexScheme(IndexScheme):
    """Unconstrained indexing: BIM by address; G0/G1/Meta by distinct
    members of the skewing family over (address, history[, path]) words.

    ``use_path_addresses`` additionally folds
    :data:`_PATH_BITS_PER_BLOCK` bits of each previous fetch-block address
    into the information words — the "path information from the three last
    fetch blocks" of Section 5.2.
    """

    def __init__(self, use_path_addresses: bool = False) -> None:
        self.use_path_addresses = use_path_addresses

    def _path_word(self, vector: InfoVector) -> tuple[int, int]:
        if not self.use_path_addresses or not vector.path:
            return 0, 0
        word = 0
        offset = 0
        for address in vector.path:
            word |= ((address >> 2) & mask(_PATH_BITS_PER_BLOCK)) << offset
            offset += _PATH_BITS_PER_BLOCK
        return word, offset

    vectorized = True

    def compute(self, vector, configs):
        bim, g0, g1, meta = configs
        path_word, path_bits = self._path_word(vector)
        address = vector.address
        history = vector.history
        # BIM: bimodal component — address-only unless configured with
        # history (the EV8's BIM uses 4 bits, Section 7.3).
        if bim.history_length:
            bim_index = info_word(vector.branch_pc, history,
                                  bim.history_length, bim.index_bits)
        else:
            bim_index = (vector.branch_pc >> 2) & mask(bim.index_bits)
        indices = [bim_index]
        for rank, config in ((1, g0), (2, g1), (3, meta)):
            word = info_word(address, history, config.history_length,
                             2 * config.index_bits, path_word, path_bits)
            indices.append(skew_index(rank, word, config.index_bits))
        return tuple(indices)

    def _path_word_batch(self, batch: VectorBatch) -> tuple[np.ndarray | None,
                                                            int]:
        if not self.use_path_addresses or batch.path_depth == 0:
            return None, 0
        word = np.zeros(len(batch), dtype=np.uint64)
        offset = 0
        for age in range(batch.path_depth):
            field = ((batch.path[age] >> np.uint64(2))
                     & np.uint64(mask(_PATH_BITS_PER_BLOCK)))
            word |= field << np.uint64(offset)
            offset += _PATH_BITS_PER_BLOCK
        return word, offset

    def compute_batch(self, batch, configs):
        bim, g0, g1, meta = configs
        path_word, path_bits = self._path_word_batch(batch)
        if bim.history_length:
            bim_index = info_word_vec(batch.branch_pc, batch.history,
                                      bim.history_length, bim.index_bits)
        else:
            bim_index = ((batch.branch_pc >> np.uint64(2))
                         & np.uint64(mask(bim.index_bits)))
        indices = [bim_index]
        for rank, config in ((1, g0), (2, g1), (3, meta)):
            word = info_word_vec(batch.address, batch.history,
                                 config.history_length,
                                 2 * config.index_bits, path_word, path_bits)
            indices.append(skew_index_vec(rank, word, config.index_bits))
        return tuple(indices)


class TwoBcGskewPredictor(BatchCapable, Predictor):
    """The 2Bc-gskew hybrid skewed predictor.

    Parameters
    ----------
    bim, g0, g1, meta:
        Per-table configurations (sizes, history lengths, hysteresis sizes).
    index_scheme:
        An :class:`IndexScheme`; defaults to the unconstrained skewed family.
    update_policy:
        ``"partial"`` (the EV8 policy of Section 4.2) or ``"total"``
        (conventional always-update, for the ablation).
    """

    #: Meta polarity: a taken meta-prediction selects the e-gskew majority.
    USE_MAJORITY = True

    def __init__(self, bim: TableConfig, g0: TableConfig, g1: TableConfig,
                 meta: TableConfig, index_scheme: IndexScheme | None = None,
                 update_policy: str = "partial",
                 name: str = "2bc-gskew") -> None:
        if update_policy not in ("partial", "total"):
            raise ValueError(
                f"update_policy must be 'partial' or 'total', got "
                f"{update_policy!r}")
        self.name = name
        self.configs = (bim, g0, g1, meta)
        self.index_scheme = index_scheme or SkewedIndexScheme()
        self.update_policy = update_policy
        self.bim = SplitCounterArray(bim.entries, bim.hysteresis_entries)
        self.g0 = SplitCounterArray(g0.entries, g0.hysteresis_entries)
        self.g1 = SplitCounterArray(g1.entries, g1.hysteresis_entries)
        self.meta = SplitCounterArray(meta.entries, meta.hysteresis_entries)
        self._banks = (self.bim, self.g0, self.g1)

    # -- prediction --------------------------------------------------------

    def indices(self, vector: InfoVector) -> tuple[int, int, int, int]:
        """The four table indices for an information vector."""
        return self.index_scheme.compute(vector, self.configs)

    def _read(self, indices):
        bim_i, g0_i, g1_i, meta_i = indices
        p_bim = self.bim.predict(bim_i)
        p_g0 = self.g0.predict(g0_i)
        p_g1 = self.g1.predict(g1_i)
        use_majority = self.meta.predict(meta_i)
        majority = (int(p_bim) + int(p_g0) + int(p_g1)) >= 2
        overall = majority if use_majority else p_bim
        return p_bim, p_g0, p_g1, use_majority, majority, overall

    def predict(self, vector: InfoVector) -> bool:
        return self._read(self.indices(vector))[-1]

    def update(self, vector: InfoVector, taken: bool) -> None:
        indices = self.indices(vector)
        state = self._read(indices)
        self._train(indices, state, taken)

    def access(self, vector: InfoVector, taken: bool) -> bool:
        indices = self.indices(vector)
        state = self._read(indices)
        self._train(indices, state, taken)
        return state[-1]

    def batch_supported(self) -> bool:
        return self.index_scheme.vectorized and kernels.available()

    def batch_access(self, batch: VectorBatch) -> np.ndarray:
        """Batched replay: all four index streams are precomputed with the
        vectorized index scheme, then replayed in stream order by the
        compiled ``twobcgskew_replay`` kernel (``repro/kernels/replay.c``).

        The partial-update policy couples BIM/G0/G1/Meta through the
        majority vote and the chooser on almost every branch, so one kernel
        walks all four tables together.  It restates :meth:`_read` and
        :meth:`_train` on the banks' raw buffers and writes one event code
        per position (layout in ``replay.c``); every ``bank.*``,
        ``arbitration.*`` and ``update.*`` counter is a reduction of those
        codes (:meth:`_count_events`).
        """
        lib = kernels.require()
        streams = [kernels.stream(indices) for indices in
                   self.index_scheme.compute_batch(batch, self.configs)]
        takens = kernels.stream(batch.takens, np.bool_)
        codes = np.empty(len(batch), dtype=np.uint32)
        banks = kernels.banks(self.bim, self.g0, self.g1, self.meta)
        lib.twobcgskew_replay(len(codes), *map(kernels.address, streams),
                              kernels.address(takens), banks.ctypes.data,
                              self.update_policy == "partial",
                              codes.ctypes.data)
        if self._telemetry.enabled:
            self._count_events(codes)
        return (codes & 1).astype(np.bool_)

    def _count_events(self, codes: np.ndarray) -> None:
        """Every counter of the scalar walk's :meth:`_train` and bank
        reads/writes, from the kernel's event codes."""
        values, weights = np.unique(codes, return_counts=True)
        reads = [(values >> bit) & 1 for bit in (1, 2, 3)]
        majority = (reads[0] + reads[1] + reads[2]) >= 2
        use_majority = (values >> 4) & 1 == 1
        taken = (values >> 5) & 1
        update = (values >> 6) & 3
        sink = self._telemetry
        for name, selected in (
                ("arbitration.majority_chosen", use_majority),
                ("arbitration.bim_chosen", ~use_majority),
                ("arbitration.bim_correct", reads[0] == taken),
                ("arbitration.majority_correct", majority == taken),
                ("arbitration.chosen_correct", (values & 1) == taken),
                ("update.suppressed", update == _UPDATE_SUPPRESSED),
                ("update.strengthened", update == _UPDATE_STRENGTHENED),
                ("update.chooser_fixed", update == _UPDATE_CHOOSER_FIXED),
                ("update.full", update == _UPDATE_FULL)):
            count_selected(sink, name, weights, selected)
        # Rationale 1 suppressed the three e-gskew bank writes a
        # total-update policy would have issued.
        count_selected(sink, "update.suppressed_writes", weights,
                       update == _UPDATE_SUPPRESSED, 3)
        every = np.ones(len(values), dtype=np.bool_)
        for k, bank in enumerate((self.bim, self.g0, self.g1, self.meta)):
            bank.count_replayed(weights, every, (values >> (8 + 2 * k)) & 3,
                                (values >> (16 + k)) & 1 == 1)

    # -- training ------------------------------------------------------------

    def _train(self, indices, state, taken: bool) -> None:
        telemetry = self._telemetry
        if telemetry.enabled:
            p_bim, _, _, use_majority, majority, overall = state
            telemetry.count("arbitration.majority_chosen" if use_majority
                            else "arbitration.bim_chosen")
            if p_bim == taken:
                telemetry.count("arbitration.bim_correct")
            if majority == taken:
                telemetry.count("arbitration.majority_correct")
            if overall == taken:
                telemetry.count("arbitration.chosen_correct")
        if self.update_policy == "partial":
            self._train_partial(indices, state, taken)
        else:
            self._train_total(indices, state, taken)

    def _strengthen_majority_side(self, indices, state, taken: bool) -> None:
        """Strengthen every e-gskew bank that predicted correctly."""
        bim_i, g0_i, g1_i, _ = indices
        p_bim, p_g0, p_g1 = state[0], state[1], state[2]
        if p_bim == taken:
            self.bim.strengthen(bim_i, taken)
        if p_g0 == taken:
            self.g0.strengthen(g0_i, taken)
        if p_g1 == taken:
            self.g1.strengthen(g1_i, taken)

    def _update_all_banks(self, indices, taken: bool) -> None:
        bim_i, g0_i, g1_i, _ = indices
        self.bim.update(bim_i, taken)
        self.g0.update(g0_i, taken)
        self.g1.update(g1_i, taken)

    def _train_partial(self, indices, state, taken: bool) -> None:
        """The EV8 partial update policy, verbatim from Section 4.2.

        On a correct prediction:
          * all three predictors agreeing -> no update (Rationale 1: leave
            the counters stealable);
          * otherwise strengthen Meta if BIM and the majority disagreed, and
            strengthen the correct prediction on the participating tables.
        On a misprediction:
          * if BIM and the majority disagreed, first update the chooser,
            recompute the overall prediction with the new chooser value,
            then either strengthen the (now correct) participating tables or
            update all banks (Rationale 2: avoid stealing entries when the
            chooser alone fixes the misprediction);
          * if both agreed (both wrong), update all banks.
        """
        bim_i, g0_i, g1_i, meta_i = indices
        p_bim, p_g0, p_g1, use_majority, majority, overall = state
        telemetry = self._telemetry
        if overall == taken:
            if p_bim == p_g0 == p_g1:
                if telemetry.enabled:
                    # Rationale 1 suppressed the three e-gskew bank writes a
                    # total-update policy would have issued.
                    telemetry.count("update.suppressed")
                    telemetry.count("update.suppressed_writes", 3)
                return
            if telemetry.enabled:
                telemetry.count("update.strengthened")
            if p_bim != majority:
                # The used side was the correct one; reinforce the choice.
                self.meta.strengthen(meta_i, majority == taken)
            if use_majority:
                self._strengthen_majority_side(indices, state, taken)
            else:
                self.bim.strengthen(bim_i, taken)
            return
        # Misprediction.
        if p_bim != majority:
            self.meta.update(meta_i, majority == taken)
            # peek, not predict: the chooser re-read is update-time logic,
            # not a fetch-port read, so it stays out of bank.meta.reads.
            new_use_majority = self.meta.peek(meta_i)
            new_overall = majority if new_use_majority else p_bim
            if new_overall == taken:
                if telemetry.enabled:
                    telemetry.count("update.chooser_fixed")
                if new_use_majority:
                    self._strengthen_majority_side(indices, state, taken)
                else:
                    self.bim.strengthen(bim_i, taken)
                return
        if telemetry.enabled:
            telemetry.count("update.full")
        self._update_all_banks(indices, taken)

    def _train_total(self, indices, state, taken: bool) -> None:
        """Conventional total update: every bank trains on every outcome,
        the chooser trains whenever its inputs disagree."""
        _, _, _, _, majority, _ = state
        p_bim = state[0]
        if self._telemetry.enabled:
            self._telemetry.count("update.full")
        if p_bim != majority:
            self.meta.update(indices[3], majority == taken)
        self._update_all_banks(indices, taken)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def storage_bits(self) -> int:
        return (self.bim.storage_bits + self.g0.storage_bits
                + self.g1.storage_bits + self.meta.storage_bits)

    def table_sizes(self) -> dict[str, tuple[int, int]]:
        """(prediction entries, hysteresis entries) per logical table."""
        return {
            "BIM": (self.bim.size, self.bim.hysteresis_size),
            "G0": (self.g0.size, self.g0.hysteresis_size),
            "G1": (self.g1.size, self.g1.hysteresis_size),
            "Meta": (self.meta.size, self.meta.hysteresis_size),
        }
