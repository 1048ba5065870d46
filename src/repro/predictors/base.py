"""Common predictor interface.

Every predictor consumes an :class:`~repro.history.providers.InfoVector`
(address + history + path) and answers taken/not-taken.  The simulation
driver performs trace-driven *immediate update* — the paper's validated
methodology (Section 8.1.1) — through :meth:`Predictor.access`, which
predictors may override with a fused fast path that computes table indices
once for both the prediction and the update.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.common.counters import SplitCounterArray
from repro.history.providers import InfoVector, VectorBatch
from repro.indexing.gf2 import ByteTables, Lookups, NotLinear
from repro.obs import NULL_TELEMETRY, NullTelemetry

__all__ = ["Predictor", "BatchCapable"]


class Predictor:
    """Base class for all branch predictors.

    Subclasses implement :meth:`predict` and :meth:`update`, expose their
    memory budget through :attr:`storage_bits`, and carry a human-readable
    ``name`` used in experiment reports.
    """

    name: str = "predictor"

    #: The telemetry sink instrumented predictors record into.  The class
    #: default is the shared null sink, so un-instrumented simulations pay
    #: only an ``enabled`` flag test per instrumented block; the engines
    #: call :meth:`attach_telemetry` when a recording sink is active.
    _telemetry: NullTelemetry = NULL_TELEMETRY

    def attach_telemetry(self, sink: NullTelemetry) -> None:
        """Route this predictor's instrumentation into ``sink``.

        The default implementation also attaches every
        :class:`~repro.common.counters.SplitCounterArray` attribute under
        its attribute name (so 2Bc-gskew's banks report as ``bank.bim.*``,
        ``bank.g0.*``, ``bank.g1.*``, ``bank.meta.*``).  Telemetry never
        changes predictions or table state — only what is recorded about
        them.
        """
        self._telemetry = sink
        for attr, value in vars(self).items():
            if isinstance(value, SplitCounterArray):
                value.attach_telemetry(sink, attr.lstrip("_"))

    def predict(self, vector: InfoVector) -> bool:
        """Predict the branch described by ``vector`` (True = taken)."""
        raise NotImplementedError

    def update(self, vector: InfoVector, taken: bool) -> None:
        """Train on the architectural outcome."""
        raise NotImplementedError

    def access(self, vector: InfoVector, taken: bool) -> bool:
        """Predict-then-train in one call (immediate update).

        The default implementation composes :meth:`predict` and
        :meth:`update`; stateful multi-table predictors override it to reuse
        the index computation.
        """
        prediction = self.predict(vector)
        self.update(vector, taken)
        return prediction

    @property
    def storage_bits(self) -> int:
        """Total predictor memory in bits (as the paper accounts sizes)."""
        raise NotImplementedError

    @property
    def storage_kbits(self) -> float:
        """Storage in Kbits (1 Kbit = 1024 bits), the paper's unit."""
        return self.storage_bits / 1024.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class BatchCapable:
    """Mixin for predictors that can replay a whole trace in bulk.

    Opting in gives a predictor :meth:`batch_access`: given a
    :class:`~repro.history.providers.VectorBatch` (the trace's information
    vectors and outcomes as parallel arrays), it returns the per-branch
    predictions the scalar ``access`` loop would have produced, **bit for
    bit**, and leaves the predictor tables in the same final state.  The
    batched engine (:class:`repro.sim.engine.BatchedEngine`) verifies
    :meth:`batch_supported` first and falls back to the scalar engine when a
    configuration cannot honor the equivalence guarantee (an index function
    that is not linear over GF(2), or no compiled replay tier).

    Implementations name their scalar index function and what it reads in
    :meth:`_index_tables`; :mod:`repro.indexing.gf2` compiles it into byte
    tables, bound to the batch as one lookup descriptor (:meth:`_lookups`).
    **One** compiled predict-then-train kernel per predictor (see
    :mod:`repro.kernels`) gathers the indices from it a block of rows at a
    time and replays each block.  The defaults replay one table,
    ``self._counters``, through ``counter_replay``; a multi-table predictor
    names its kernel in :attr:`_KERNEL`, lists its counter arrays in
    :meth:`_kernel_banks` and may override :meth:`_kernel_tables`.
    Telemetry comes from that same replay: the kernel counts into
    ``uint64`` slots, :data:`~repro.kernels.BANK_SLOTS` per bank and then
    one per name of :attr:`_SLOTS`, and :meth:`_record` names them.

    Each opted-in class binds ``batch_access = BatchCapable.batch_access``
    in its own body, so that perfbench's tracer can time each class's
    replay on its own.
    """

    #: The ``replay.c`` kernel :meth:`batch_access` calls, and the names of
    #: the slots it counts after its banks' blocks.
    _KERNEL = "counter_replay"
    _SLOTS: tuple[str, ...] = ()

    def _index_tables(self) -> ByteTables:
        """The compiled tables of this configuration's scalar index function
        (:func:`repro.indexing.gf2.byte_tables`); raises ``NotLinear``."""
        raise NotImplementedError

    def batch_supported(self) -> bool:
        """Whether this instance's configuration can run batched: the
        compiled replay tier loaded and the index tables compile."""
        if not kernels.available():
            return False
        try:
            self._index_tables()
        except NotLinear:
            return False
        return True

    def _lookups(self, batch: VectorBatch) -> Lookups:
        """The lookup descriptor of the index tables over ``batch``, timed
        as the ``index`` telemetry span (set-up only: the gather runs inside
        the kernel)."""
        with self._telemetry.span("index"):
            return self._index_tables().bind(batch)

    def _kernel_banks(self) -> tuple[SplitCounterArray, ...]:
        """The counter arrays the kernel replays, in the order of its bank
        descriptors and slot blocks."""
        return (self._counters,)

    def _kernel_tables(self) -> tuple:
        """The kernel's arguments between the takens and the predictions:
        table descriptor arrays (passed by address, and kept alive by the
        caller for the call) and flags."""
        return (kernels.banks(*self._kernel_banks()),)

    def _record(self, counts: np.ndarray) -> None:
        """Record the kernel's slots: each bank's block into that bank,
        then the :attr:`_SLOTS` under their names, skipping zeros as the
        scalar walk never counts a zero."""
        values = counts.tolist()
        banks = self._kernel_banks()
        for k, bank in enumerate(banks):
            bank.record(values[kernels.BANK_SLOTS * k:
                               kernels.BANK_SLOTS * (k + 1)])
        for name, value in zip(self._SLOTS,
                               values[kernels.BANK_SLOTS * len(banks):]):
            if value:
                self._telemetry.count(name, value)

    def batch_access(self, batch: VectorBatch) -> np.ndarray:
        """Predict-then-train over the whole batch; returns predictions.

        The lookup descriptor (:meth:`_lookups`), the outcomes and
        :meth:`_kernel_tables` go to the :attr:`_KERNEL` kernel, which
        gathers the indices and walks them in stream order on the tables'
        own buffers, restating the scalar ``access``, and writes one
        prediction per position.  Under a recording sink it also counts the
        telemetry events into slots, which :meth:`_record` records.
        """
        lib = kernels.require()
        lookups = self._lookups(batch)
        takens = kernels.stream(batch.takens, np.bool_)
        if len(takens) != len(batch):
            raise ValueError("the outcomes must have one entry per branch "
                             "of the batch")
        tables = self._kernel_tables()
        counts = None
        if self._telemetry.enabled:
            counts = np.zeros(kernels.BANK_SLOTS * len(self._kernel_banks())
                              + len(self._SLOTS), dtype=np.uint64)
        predictions = np.empty(len(batch), dtype=np.bool_)
        getattr(lib, self._KERNEL)(
            len(predictions), *map(_argument, (lookups.descriptor, takens,
                                               *tables, predictions, counts)))
        if counts is not None:
            self._record(counts)
        return predictions


def _argument(value):
    """A kernel argument as ``ctypes`` takes it: an array by the address of
    its first element, anything else as it is."""
    return value.ctypes.data if isinstance(value, np.ndarray) else value
