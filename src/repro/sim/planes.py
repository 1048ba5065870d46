"""Publishing hooks that :func:`repro.sim.sweep.sweep_parallel` no longer
calls.

A parallel sweep runs its cells on threads that share each trace and its
materialized batches (:func:`repro.sim.sweep.run_cells`).  Nothing here
shares memory between processes, and nothing in ``repro`` calls this
module.

These names exist only because the benchmark harness (``perfbench/``)
still references them: its tracer wraps ``PlaneStore.publish_trace`` and
``PlaneStore.publish_batch`` as the ``sim.planes.publish`` span (which
therefore reads zero), and its teardown calls :func:`release_plane_store`
and scans for segments named with :data:`SEGMENT_PREFIX`.  Once the
harness drops them, this module can go.
"""

from __future__ import annotations

from repro.history.providers import HistoryProvider, VectorBatch
from repro.traces.model import Trace

__all__ = ["SEGMENT_PREFIX", "PlaneStore", "release_plane_store"]

SEGMENT_PREFIX = "repro-planes"
"""Name prefix the harness's leak checks scan for; no segment carries it."""


class PlaneStore:
    """What a sweep once published per trace before dispatching units."""

    def publish_trace(self, trace: Trace) -> Trace:
        """The trace itself."""
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
