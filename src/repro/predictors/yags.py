"""YAGS: Yet Another Global Scheme (Eden & Mudge, MICRO 1998).

Section 8.2 of the EV8 paper describes the exact configuration compared in
Fig 5: a bimodal choice table and two *partially tagged* direction caches
(6-bit tags).  When the bimodal table predicts taken, the **not-taken**
cache is probed (it stores only the exceptions to the bias); on a tag hit
the cache's counter provides the prediction, on a miss the bimodal does.
Symmetrically for a not-taken bimodal prediction.

The EV8 paper finds "no clear winner between the YAGS predictor and
2Bc-gskew", but notes YAGS's tag read-and-match of 16 predictions in 1.5
cycles would have been unimplementable.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro import kernels
from repro.common.bitops import mask
from repro.common.counters import ARM_NONE, SplitCounterArray
from repro.history.providers import InfoVector, VectorBatch
from repro.indexing.fold import gshare_index, gshare_index_vec
from repro.obs import NullTelemetry
from repro.predictors.base import BatchCapable, Predictor

__all__ = ["YagsPredictor"]


class _DirectionCache:
    """A partially tagged cache of exception counters.

    Tags and valid bits live in flat byte buffers: a ``bytearray`` for tags
    of up to 8 bits, else the narrowest unsigned ``array.array`` that holds
    them.
    """

    __slots__ = ("entries", "tag_bits", "_counters", "_tags", "_valid")

    def __init__(self, entries: int, tag_bits: int, init_taken: bool) -> None:
        self.entries = entries
        self.tag_bits = tag_bits
        self._counters = SplitCounterArray(entries, init_taken=init_taken)
        if tag_bits <= 8:
            self._tags = bytearray(entries)
        else:
            # Tags are bits of a 64-bit branch address.
            code = next(code for code in "HIQ"
                        if 8 * array(code).itemsize >= min(tag_bits, 64))
            self._tags = array(code, bytes(array(code).itemsize * entries))
        self._valid = bytearray(entries)

    def probe(self, index: int, tag: int) -> bool | None:
        """Counter direction on a tag hit, ``None`` on a miss."""
        if self._valid[index] and self._tags[index] == tag:
            return self._counters.predict(index)
        return None

    def train_hit(self, index: int, taken: bool) -> None:
        self._counters.update(index, taken)

    def insert(self, index: int, tag: int, taken: bool) -> None:
        """Allocate (or re-purpose) the entry for a new exception."""
        self._tags[index] = tag
        self._valid[index] = 1
        self._counters.set_counter(index, 2 if taken else 1)  # weak outcome

    @property
    def storage_bits(self) -> int:
        # counters + tags + valid bits
        return (self._counters.storage_bits + self.entries * self.tag_bits
                + self.entries)


class YagsPredictor(BatchCapable, Predictor):
    """Bimodal choice table + two partially tagged exception caches."""

    def __init__(self, cache_entries: int, choice_entries: int,
                 history_length: int, tag_bits: int = 6,
                 name: str | None = None) -> None:
        for label, value in (("cache_entries", cache_entries),
                             ("choice_entries", choice_entries)):
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{label} must be a power of two, got {value}")
        if tag_bits < 1:
            raise ValueError(f"tag_bits must be >= 1, got {tag_bits}")
        self.cache_entries = cache_entries
        self.choice_entries = choice_entries
        self.history_length = history_length
        self.tag_bits = tag_bits
        self.cache_bits = cache_entries.bit_length() - 1
        self.name = name or f"yags-{cache_entries // 1024}K-h{history_length}"
        self.choice = SplitCounterArray(choice_entries)
        # The taken cache stores exceptions to a not-taken bias and vice
        # versa; initialise each towards the direction it will store.
        self.taken_cache = _DirectionCache(cache_entries, tag_bits,
                                           init_taken=True)
        self.not_taken_cache = _DirectionCache(cache_entries, tag_bits,
                                               init_taken=False)

    def _indices(self, vector: InfoVector) -> tuple[int, int, int]:
        choice_index = (vector.branch_pc >> 2) & (self.choice_entries - 1)
        cache_index = gshare_index(vector.branch_pc, vector.history,
                                   self.history_length, self.cache_bits)
        tag = (vector.branch_pc >> 2) & mask(self.tag_bits)
        return choice_index, cache_index, tag

    def _consult(self, choice: bool, cache_index: int, tag: int):
        """The cache probed for a given choice, and its probe result."""
        cache = self.not_taken_cache if choice else self.taken_cache
        return cache, cache.probe(cache_index, tag)

    def predict(self, vector: InfoVector) -> bool:
        choice_index, cache_index, tag = self._indices(vector)
        choice = self.choice.predict(choice_index)
        _, cached = self._consult(choice, cache_index, tag)
        return choice if cached is None else cached

    def update(self, vector: InfoVector, taken: bool) -> None:
        self._access(vector, taken)

    def access(self, vector: InfoVector, taken: bool) -> bool:
        return self._access(vector, taken)

    def _access(self, vector: InfoVector, taken: bool) -> bool:
        choice_index, cache_index, tag = self._indices(vector)
        choice = self.choice.predict(choice_index)
        cache, cached = self._consult(choice, cache_index, tag)
        prediction = choice if cached is None else cached
        # -- update rules (YAGS paper):
        # The probed cache trains on a hit; it allocates when the bimodal
        # choice mispredicted (the branch is an exception to its bias).
        if cached is not None:
            cache.train_hit(cache_index, taken)
        elif choice != taken:
            cache.insert(cache_index, tag, taken)
        # The choice table trains towards the outcome, except when it was
        # wrong but the cache corrected it (leave the bias in place).
        if not (choice != taken and cached is not None and cached == taken):
            self.choice.update(choice_index, taken)
        return prediction

    def attach_telemetry(self, sink: NullTelemetry) -> None:
        """Also route the caches' counters, as ``bank.taken_cache.*`` and
        ``bank.not_taken_cache.*``."""
        super().attach_telemetry(sink)
        self.taken_cache._counters.attach_telemetry(sink, "taken_cache")
        self.not_taken_cache._counters.attach_telemetry(sink,
                                                        "not_taken_cache")

    def batch_supported(self) -> bool:
        return kernels.available()

    def batch_access(self, batch: VectorBatch) -> np.ndarray:
        """Batched replay: the choice index, cache index and tag streams
        are computed once in numpy, then the compiled ``yags_replay`` kernel
        (``repro/kernels/replay.c``) walks them in stream order, restating
        :meth:`_access` on the raw choice, counter, tag and valid buffers.

        Event code per position: bit 0 the prediction, bit 1 the choice,
        bit 2 a tag hit, bits 3-4 the probed cache's counter write arm
        (``ARM_NONE`` on a miss, which allocates iff the choice erred) and
        bits 5-6 the choice table's (``ARM_*`` from
        :mod:`repro.common.counters`); telemetry is reduced from the codes.
        """
        lib = kernels.require()
        word = batch.branch_pc.astype(np.uint64, copy=False) >> np.uint64(2)
        cache_idx = kernels.stream(gshare_index_vec(
            batch.branch_pc, batch.history, self.history_length,
            self.cache_bits))
        tags = word & np.uint64(mask(min(self.tag_bits, 64)))
        takens = kernels.stream(batch.takens, np.bool_)
        codes = np.empty(len(batch), dtype=np.uint8)
        choice = kernels.banks(self.choice)
        caches = kernels.yags_caches(self.taken_cache, self.not_taken_cache)
        lib.yags_replay(len(codes), kernels.address(word),
                        kernels.address(cache_idx), kernels.address(tags),
                        kernels.address(takens), choice.ctypes.data,
                        caches.ctypes.data, codes.ctypes.data)
        if self._telemetry.enabled:
            self._count_events(codes)
        return (codes & 1).view(np.bool_)

    def _count_events(self, codes: np.ndarray) -> None:
        """Every ``bank.*`` counter of the scalar walk, from the codes."""
        values, weights = np.unique(codes, return_counts=True)
        choice = (values >> 1) & 1
        hit = (values & 4) != 0
        self.choice.count_replayed(weights, np.ones(len(values),
                                                    dtype=np.bool_),
                                   values >> 5)
        for cache, probed in ((self.taken_cache, choice == 0),
                              (self.not_taken_cache, choice == 1)):
            cache._counters.count_replayed(
                weights, probed & hit,
                np.where(probed, (values >> 3) & 3, ARM_NONE))

    @property
    def storage_bits(self) -> int:
        return (self.choice.storage_bits + self.taken_cache.storage_bits
                + self.not_taken_cache.storage_bits)
