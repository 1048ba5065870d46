"""Parameter sweeps, and the one cell runner behind every grid.

The paper repeatedly reports "best history length" results (Fig 5) and the
penalty of clamping history to log2(table size) (Fig 6).  These helpers run
a predictor factory across a range of a parameter and locate the best
configuration by mean misp/KI across benchmarks.

Every simulation a grid asks for is a :class:`Cell`: a predictor factory,
a provider factory and a trace.  :func:`sweep`, :func:`sweep_parallel` and
:func:`repro.sim.compare.run_comparison` each build one list of cells and
pass it to :func:`run_cells`, which returns the results in cell order.  Its
calling thread keys each cell and answers result-cache hits itself,
fingerprinting each distinct factory once, and builds a predictor only for
a cell it must simulate.  On one worker it runs those cells itself; on
more, they go to a pool of threads in this process, made on the first
such cell.  Threads suffice because the replay kernels and the
trace-side walks are ``ctypes`` calls that release the GIL; the cells
share each trace and its memo (:meth:`Trace.derived`), so a batch is
materialized once whichever thread asks first.  A threaded grid is a
serial grid with the simulations spread over threads: both return
identical results and accumulate identical telemetry counters.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import (FIRST_COMPLETED, Future, ThreadPoolExecutor,
                                wait)
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.history.providers import HistoryProvider
from repro.obs import NullTelemetry, Telemetry, get_telemetry
from repro.predictors.base import Predictor
from repro.sim import result_cache
from repro.sim.driver import as_hit, load_hit, run_and_store
from repro.sim.engine import SimulationEngine, get_engine
from repro.sim.metrics import SimulationResult
from repro.traces.model import Trace

__all__ = ["Cell", "run_cells", "SweepPoint", "sweep", "sweep_parallel",
           "best_history_length"]


@dataclass(frozen=True)
class Cell:
    """One simulation: a fresh predictor and provider from the factories,
    replayed over ``trace``.  Factories, because every cell needs fresh
    table state; ``make_provider`` ``None`` means per-branch global
    history.

    A factory must return an equal fresh object on every call: same
    structure, same table contents, same display ``name``.
    :func:`run_cells` fingerprints each distinct factory object once per
    call and keys all of its cells from that one object, so a factory
    whose objects differ between calls would key cells it never built.
    """

    make_predictor: Callable[[], Predictor]
    make_provider: Callable[[], HistoryProvider] | None
    trace: Trace


def run_cells(cells: list[Cell],
              engine: str | SimulationEngine | None = None,
              use_cache: bool | None = None,
              telemetry: NullTelemetry | None = None,
              workers: int | None = None) -> list[SimulationResult]:
    """Simulate every cell; results come back in ``cells`` order.

    ``workers`` (default: one per CPU) bounds the threads that simulate.
    The calling thread walks the cells in order.  With the cache on, it
    keys and loads each cell (see :class:`_Planner`) and answers a hit
    itself; a cell whose key an earlier cell of this call already missed
    shares that cell's result as a hit, as a serial load would.  Every
    other cell is a job.  With one worker the calling thread runs each
    job as it comes.  With more, the jobs go to a thread pool, made on
    the first job and joined before the call returns, so a grid of hits
    starts no thread.  At most ``workers + 1`` keyed cells are on the
    pool at once, one per thread and one queued, so a thread that
    finishes a cell starts the next without waiting for the calling
    thread, and at most that many simulations' tables are alive.  A cell
    that is not keyed holds no table until its pool thread builds it, so
    every such cell is submitted at once.

    Each cell records into its own sink, and the sinks merge into
    ``telemetry`` in cell order, so one worker and many accumulate the
    same counters.  The process-global sink counts ``scheduler.runs`` and
    ``scheduler.units`` for the cells a pool ran.  An error a cell raises
    propagates unchanged, no later cell starts, and the cells not yet
    started are cancelled.
    """
    resolved = get_engine(engine)
    sink = get_telemetry(telemetry)
    if use_cache is None:
        use_cache = result_cache.cache_enabled()
    workers = workers or os.cpu_count() or 1
    sinks = [Telemetry() if sink.enabled else sink for _ in cells]
    planner = _Planner(resolved)
    results: list[SimulationResult | Future | None] = [None] * len(cells)
    in_flight: set[Future] = set()
    pool = None
    try:
        for index, (cell, cell_sink) in enumerate(zip(cells, sinks)):
            if use_cache:
                results[index], job = planner.plan(index, cell, cell_sink)
                if job is None:
                    continue
            else:
                job = functools.partial(_build_and_run, cell, resolved,
                                        cell_sink)
            if workers <= 1:
                results[index] = job()
                continue
            if pool is None:
                pool = ThreadPoolExecutor(max_workers=workers)
                _count_scheduler("scheduler.runs")
            if len(in_flight) > workers:
                done, in_flight = wait(in_flight,
                                       return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()  # a failed cell stops the walk here
            results[index] = pool.submit(job)
            if use_cache:  # built here: its tables are alive until it ends
                in_flight.add(results[index])
            _count_scheduler("scheduler.units")
        results = [result.result() if isinstance(result, Future) else result
                   for result in results]
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    for index, first, predictor_name in planner.shared:
        results[index] = as_hit(results[first], predictor_name,
                                cells[index].trace.name, sinks[index])
    if sink.enabled:
        for cell_sink in sinks:
            sink.merge_snapshot(cell_sink.snapshot())
    return results


def _no_provider() -> None:
    """The provider factory of a cell whose ``make_provider`` is ``None``."""
    return None


class _Planner:
    """Keys and loads the cells of one :func:`run_cells` call on its
    calling thread.

    Each distinct factory object (compared by identity) is called once,
    on its first cell, and that object is fingerprinted; every later cell
    of the factory is keyed from the stored fingerprint, its trace's
    digest, the warmup and the engine, and a hit takes the display name
    of that one build.  The memo lives only as long as the call, so a
    fresh grid pays the full walk again.  If the factory's first cell
    misses, the object built to fingerprint it is the one that cell
    simulates; if it hits, the object is dropped at once, so a grid of
    hits holds one predictor at a time.  Every other miss builds its own
    here, before its job is submitted, so each simulated cell builds
    exactly once, and every table a keyed cell uses is allocated on this
    thread (a pool thread's allocations stay in its own ``malloc`` arena
    and kept about 1.3 MiB more resident after a cold grid).  A factory
    whose object cannot be fingerprinted leaves its cells unkeyed.
    """

    def __init__(self, engine: SimulationEngine) -> None:
        self.engine = engine
        # (fingerprint function, id of factory) -> (fingerprint or None,
        # display name); the cells hold every factory for the whole call.
        self.fingerprints: dict[tuple[Callable, int],
                                tuple[result_cache.Fingerprint | None,
                                      str | None]] = {}
        self.missed: dict[str, int] = {}  # key -> first cell with it
        self.shared: list[tuple[int, int, str]] = []  # (cell, first, name)

    def _fingerprint(self, factory: Callable, fingerprint: Callable):
        """``(fingerprint or None, name, built)`` for ``factory``.
        ``built`` is the object this call made to fingerprint it, on the
        factory's first cell; ``None`` on every later one."""
        slot = (fingerprint, id(factory))
        known = self.fingerprints.get(slot)
        if known is not None:
            return (*known, None)
        built = factory()
        try:
            digest = fingerprint(built)
        except result_cache.UncacheableError:
            digest = None
        name = getattr(built, "name", None)
        self.fingerprints[slot] = digest, name
        return digest, name, built

    def plan(self, index: int, cell: Cell, sink: NullTelemetry,
             ) -> tuple[SimulationResult | None, Callable | None]:
        """Key and load cell ``index``.

        Returns ``(hit, None)`` for a cache hit.  A cell whose key an
        earlier cell of this call missed joins ``shared`` as ``(index,
        that cell, predictor name)``, counts the hit a serial load would,
        and returns ``(None, None)``.  Any other cell returns ``(None,
        job)``, ``job`` simulating it; its key, if it has one, joins
        ``missed``; the job holds the cell's predictor and provider.
        """
        predictor_key, name, predictor = self._fingerprint(
            cell.make_predictor, result_cache.predictor_fingerprint)
        provider_key, _, provider = self._fingerprint(
            cell.make_provider if cell.make_provider is not None
            else _no_provider, result_cache.fingerprint)
        key = None
        if predictor_key is not None and provider_key is not None:
            key = result_cache.result_key(predictor_key, cell.trace,
                                          provider_key, 0, self.engine.name)
            if key in self.missed:
                if sink.enabled:
                    sink.count("result_cache.hits")
                self.shared.append((index, self.missed[key], name))
                return None, None
            hit = load_hit(key, name, cell.trace, sink)
            if hit is not None:
                return hit, None
            self.missed[key] = index
        if predictor is None:
            predictor = cell.make_predictor()
        if provider is None and cell.make_provider is not None:
            provider = cell.make_provider()
        return None, functools.partial(run_and_store, predictor, cell.trace,
                                       provider, 0, self.engine, key, sink)


def _build_and_run(cell: Cell, engine: SimulationEngine,
                   sink: NullTelemetry) -> SimulationResult:
    """An unkeyed cell, built and run where it runs (on a pool thread)."""
    predictor = cell.make_predictor()
    provider = (cell.make_provider() if cell.make_provider is not None
                else None)
    return run_and_store(predictor, cell.trace, provider, 0, engine, None,
                         sink)


def _count_scheduler(name: str) -> None:
    global_sink = get_telemetry(None)
    if global_sink.enabled:
        global_sink.count(name)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated parameter value."""

    value: int
    mean_misp_per_ki: float
    per_benchmark: dict[str, float]


def sweep(make_predictor: Callable[[int], Predictor],
          values: Iterable[int],
          traces: dict[str, Trace],
          make_provider: Callable[[], HistoryProvider] | None = None,
          engine: str | SimulationEngine | None = None,
          use_cache: bool | None = None,
          telemetry: NullTelemetry | None = None,
          ) -> list[SweepPoint]:
    """Evaluate ``make_predictor(value)`` for every value, on every
    trace: :func:`sweep_parallel` on one worker."""
    return sweep_parallel(make_predictor, values, traces, make_provider,
                          engine, 1, use_cache, telemetry)


def sweep_parallel(make_predictor: Callable[[int], Predictor],
                   values: Iterable[int],
                   traces: dict[str, Trace],
                   make_provider: Callable[[], HistoryProvider] | None = None,
                   engine: str | SimulationEngine | None = None,
                   max_workers: int | None = None,
                   use_cache: bool | None = None,
                   telemetry: NullTelemetry | None = None,
                   ) -> list[SweepPoint]:
    """:func:`sweep` with its cells spread over ``max_workers`` threads
    (default: one per CPU; one runs serially, see :func:`run_cells`).

    One cell per ``(point, trace)``, so a slow benchmark never straggles a
    whole point while other threads idle.  The cells of one value share
    one factory, so a cached sweep fingerprints each point once.  Cells
    are trace-major (every value of the first trace, then the next
    trace), so the threads work on one trace at a time and its
    materialized batch is computed once, by whichever cell asks first.
    ``engine`` may be a name or an instance (engines are stateless).
    Points come in ``values`` order, ``per_benchmark`` in ``traces``
    order.  Scalar-engine cells hold the GIL throughout, so threads give
    them the serial counts but no speed.
    """
    values = list(values)
    factories = [functools.partial(make_predictor, value) for value in values]
    cells = [Cell(factory, make_provider, trace)
             for trace in traces.values() for factory in factories]
    results = run_cells(cells, engine, use_cache, telemetry, max_workers)
    points = []
    for index, value in enumerate(values):
        per_benchmark = {name: result.misp_per_ki for name, result
                         in zip(traces, results[index::len(values)])}
        points.append(SweepPoint(
            value=value, per_benchmark=per_benchmark,
            mean_misp_per_ki=sum(per_benchmark.values()) / len(traces)))
    return points


def best_history_length(make_predictor: Callable[[int], Predictor],
                        lengths: Iterable[int],
                        traces: dict[str, Trace],
                        make_provider: Callable[[], HistoryProvider] | None = None,
                        engine: str | SimulationEngine | None = None,
                        use_cache: bool | None = None,
                        ) -> SweepPoint:
    """The history length minimising mean misp/KI across the benchmark set
    (the paper's per-configuration "best history length")."""
    points = sweep(make_predictor, lengths, traces, make_provider, engine,
                   use_cache)
    if not points:
        raise ValueError("no history lengths supplied")
    return min(points, key=lambda point: point.mean_misp_per_ki)
