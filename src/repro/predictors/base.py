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

from repro.common.counters import SplitCounterArray
from repro.history.providers import InfoVector, VectorBatch
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

    Opting in means implementing :meth:`batch_access`: given a
    :class:`~repro.history.providers.VectorBatch` (the trace's information
    vectors and outcomes as parallel arrays), return the per-branch
    predictions the scalar ``access`` loop would have produced, **bit for
    bit**, and leave the predictor tables in the same final state.  The
    batched engine (:class:`repro.sim.engine.BatchedEngine`) verifies
    :meth:`batch_supported` first and falls back to the scalar engine when a
    configuration cannot honor the equivalence guarantee (e.g. a
    non-vectorizable index scheme, or no compiled replay tier).

    Implementations precompute their table-index streams with the
    vectorized helpers in :mod:`repro.indexing.fold` /
    :mod:`repro.indexing.skew`, then replay them through **one** compiled
    predict-then-train kernel per predictor (see :mod:`repro.kernels`): a
    single-table predictor through
    :meth:`repro.common.counters.SplitCounterArray.batch_access`, an
    update-coupled one through its own kernel.  Telemetry comes from that
    same replay, as a reduction of the kernel's event codes.
    """

    def batch_supported(self) -> bool:
        """Whether this instance's configuration can run batched."""
        return True

    def batch_access(self, batch: VectorBatch) -> np.ndarray:
        """Predict-then-train over the whole batch; returns predictions."""
        raise NotImplementedError

