"""Publishing hooks for :func:`repro.sim.sweep.sweep_parallel`.

A parallel sweep materializes each trace's information-vector batch once,
in the calling process, and ships trace and batch to the workers inside
pickled work units.  Nothing here shares memory between processes.

These names exist only because the benchmark harness (``perfbench/``)
still references them: its tracer times ``PlaneStore.publish_trace`` and
``PlaneStore.publish_batch`` as the ``sim.planes.publish`` span, and its
teardown calls :func:`release_plane_store` and scans for segments named
with :data:`SEGMENT_PREFIX`.  Once the harness drops them, this module
folds into :mod:`repro.sim.sweep`.
"""

from __future__ import annotations

from repro.history.providers import HistoryProvider, VectorBatch
from repro.traces.model import Trace

__all__ = ["SEGMENT_PREFIX", "PlaneStore", "release_plane_store"]

SEGMENT_PREFIX = "repro-planes"
"""Name prefix the harness's leak checks scan for; no segment carries it."""


class PlaneStore:
    """What a sweep publishes once per trace before dispatching units."""

    def publish_trace(self, trace: Trace) -> Trace:
        """The trace itself: it travels pickled inside the work units."""
        return trace

    def publish_batch(self, trace: Trace, provider: HistoryProvider
                      ) -> tuple[tuple, VectorBatch] | None:
        """``(plane_key, batch)`` with ``provider``'s batch for ``trace``,
        or ``None`` when the provider cannot be keyed or materialized."""
        key = provider.plane_key()
        batch = provider.materialize(trace) if key is not None else None
        return None if batch is None else (key, batch)


def release_plane_store() -> None:
    """Nothing to release: sweeps hold no process-wide resources here."""
