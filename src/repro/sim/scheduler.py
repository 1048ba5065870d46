"""Names that :func:`repro.sim.sweep.run_cells` no longer uses.

A parallel sweep runs its cells on threads in the calling process
(:func:`repro.sim.sweep.run_cells`): the replay kernels and the
trace-side walks are ``ctypes`` calls that release the GIL, so nothing is
forked, pickled or materialized twice, and no pool outlives a call.

These names exist only because the benchmark harness (``perfbench/``)
still references them: its tracer wraps :meth:`SweepScheduler.run` as the
``sim.scheduler.run`` span (which therefore reads zero), and its teardown
calls :func:`shutdown_schedulers`.  Once the harness drops them, this
module can go.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["SweepScheduler", "shutdown_schedulers"]


class SweepScheduler:
    """What once dispatched sweep cells to a process pool."""

    def run(self, fn: Callable, payloads: Sequence) -> list:
        """``fn`` over every payload, in order, in the calling thread."""
        return [fn(payload) for payload in payloads]


def shutdown_schedulers() -> None:
    """Nothing to shut down: no pool outlives a sweep."""
