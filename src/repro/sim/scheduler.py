"""Persistent work-stealing scheduler for the cells
:func:`repro.sim.sweep.run_cells` runs on more than one worker:

* **persistent pools** — :func:`get_scheduler` memoizes
  :class:`SweepScheduler` instances per ``(max_workers, start_method)``, so
  successive sweeps reuse one warm pool; :func:`shutdown_schedulers` (also
  registered ``atexit``) tears them down.
* **explicit start method** — :func:`default_start_method` picks ``fork``
  where it is safe and cheap (Linux) and ``spawn`` where fork is a trap or
  unavailable (macOS, Windows), and callers may override per sweep.
* **work-stealing chunking** — callers enqueue fine-grained units (one
  cell each); the scheduler groups them into chunks of roughly
  ``n / (workers * 4)`` units so idle workers steal remaining chunks from
  the shared queue instead of waiting on a straggler, while per-unit
  dispatch overhead stays amortized.

Results always come back in submission order — the scheduler adds
concurrency, never nondeterminism.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.obs import get_telemetry

__all__ = ["SchedulerUnavailable", "default_start_method", "SweepScheduler",
           "get_scheduler", "shutdown_schedulers"]

_STEAL_FACTOR = 4
"""Chunks per worker: 1 would re-create whole-point straggling, while
per-unit chunks pay dispatch overhead ~n times.  Four chunks per worker
keeps the tail bounded by ~1/4 of a worker's share."""


class SchedulerUnavailable(RuntimeError):
    """The process pool cannot run work (failed to start, or broke
    mid-flight).  Callers should fall back to serial execution."""


def default_start_method() -> str:
    """The multiprocessing start method used when callers do not choose:
    ``fork`` on Linux (cheap, inherits warm module caches), ``spawn``
    everywhere fork is unsafe or missing (macOS's framework-library
    restrictions, Windows)."""
    if sys.platform in ("win32", "darwin"):
        return "spawn"
    return "fork"


def _run_chunk(fn: Callable, payloads: Sequence) -> list:
    """Worker-side chunk body (module-level so every start method can
    pickle it)."""
    return [fn(payload) for payload in payloads]


class SweepScheduler:
    """A persistent process pool dispatching chunked work units.

    The pool is created lazily on the first :meth:`run` and reused until
    :meth:`shutdown`; a pool that breaks (worker killed, executor error) is
    discarded so the next ``run`` starts fresh.
    """

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        self.max_workers = max_workers or os.cpu_count() or 1
        self.start_method = start_method or default_start_method()
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                try:
                    context = multiprocessing.get_context(self.start_method)
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.max_workers, mp_context=context)
                except (ValueError, OSError, PermissionError) as error:
                    raise SchedulerUnavailable(
                        f"cannot start a {self.start_method!r} process pool: "
                        f"{error!r}") from error
                sink = get_telemetry(None)
                if sink.enabled:
                    sink.count("scheduler.pools_started")
            return self._executor

    def chunk_payloads(self, payloads: Sequence) -> list[list]:
        """Split ``payloads`` into work-stealing chunks (order-preserving:
        concatenating the chunks reproduces the input sequence)."""
        n = len(payloads)
        if n == 0:
            return []
        size = max(1, -(-n // (self.max_workers * _STEAL_FACTOR)))
        return [list(payloads[lo:lo + size]) for lo in range(0, n, size)]

    def run(self, fn: Callable, payloads: Sequence) -> list:
        """Run ``fn`` over every payload on the pool; results come back in
        submission order.  Raises :class:`SchedulerUnavailable` when the
        pool cannot start or breaks (the broken pool is discarded), and
        propagates exceptions raised by ``fn`` itself unchanged, leaving
        the pool running.  Every chunk has settled when this returns or
        raises, so no work is in flight for a later :meth:`shutdown`."""
        chunks = self.chunk_payloads(payloads)
        if not chunks:
            return []
        executor = self._ensure_executor()
        sink = get_telemetry(None)
        if sink.enabled:
            sink.count("scheduler.runs")
            sink.count("scheduler.units", len(payloads))
            sink.count("scheduler.chunks", len(chunks))
        try:
            futures = [executor.submit(_run_chunk, fn, chunk)
                       for chunk in chunks]
        except RuntimeError as error:  # broken or already shut down
            self.shutdown()
            raise SchedulerUnavailable(
                f"process pool failed: {error!r}") from error
        # Wait for every chunk, not just up to the first failure.  A chunk
        # still in flight when the pool is shut down with cancel_futures
        # and then fails to pickle is never retired by CPython's executor
        # (its manager thread waits on it forever, and interpreter exit
        # hangs joining that thread).
        wait(futures)
        try:
            return [result for future in futures
                    for result in future.result()]
        except BrokenProcessPool as error:  # a worker died mid-flight
            self.shutdown()
            raise SchedulerUnavailable(
                f"process pool failed: {error!r}") from error

    def shutdown(self) -> None:
        """Stop the pool (idempotent); the next :meth:`run` starts anew.

        Waits until the pool's threads and workers are gone.  A pool forked
        while an old pool's manager thread is still exiting copies that
        thread's held state lock into its workers, and those workers then
        hang at exit joining it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


_SCHEDULERS: dict[tuple[int, str], SweepScheduler] = {}
_SCHEDULERS_LOCK = threading.Lock()


def get_scheduler(max_workers: int | None = None,
                  start_method: str | None = None) -> SweepScheduler:
    """The memoized scheduler for ``(max_workers, start_method)`` — the
    persistence point that lets successive sweeps reuse one warm pool."""
    workers = max_workers or os.cpu_count() or 1
    method = start_method or default_start_method()
    with _SCHEDULERS_LOCK:
        scheduler = _SCHEDULERS.get((workers, method))
        if scheduler is None:
            scheduler = SweepScheduler(max_workers=workers,
                                       start_method=method)
            _SCHEDULERS[(workers, method)] = scheduler
        return scheduler


def shutdown_schedulers() -> None:
    """Shut down every memoized scheduler (registered ``atexit``; also the
    explicit teardown hook for experiment runners and tests)."""
    with _SCHEDULERS_LOCK:
        schedulers = list(_SCHEDULERS.values())
        _SCHEDULERS.clear()
    for scheduler in schedulers:
        scheduler.shutdown()


atexit.register(shutdown_schedulers)
