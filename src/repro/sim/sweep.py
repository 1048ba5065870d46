"""Parameter sweeps, and the one cell runner behind every grid.

The paper repeatedly reports "best history length" results (Fig 5) and the
penalty of clamping history to log2(table size) (Fig 6).  These helpers run
a predictor factory across a range of a parameter and locate the best
configuration by mean misp/KI across benchmarks.

Every simulation a grid asks for is a :class:`Cell`: a predictor factory,
a provider factory and a trace.  :func:`sweep`, :func:`sweep_parallel` and
:func:`repro.sim.compare.run_comparison` each build one list of cells and
pass it to :func:`run_cells`, which returns the results in cell order.  On
one worker it calls :func:`simulate` per cell.  On more, its calling
thread keys each cell and answers result-cache hits itself, and only the
cells it must simulate go to a pool of threads in this process, made on
the first such cell.  Threads suffice because the replay kernels and the
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
from repro.sim.driver import (as_hit, cache_key, load_hit, run_and_store,
                              simulate)
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
    history."""

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
    With one, each cell is a :func:`simulate` call on the calling thread,
    recording straight into ``telemetry``.  With more, the calling thread
    walks the cells in order.  With the cache on, it builds, keys and
    loads each cell and answers a hit itself; a cell whose key an earlier
    cell of this call already missed shares that cell's result as a hit,
    as a serial load would.  Every other cell goes to a thread pool, made
    on the first such cell and joined before the call returns, so a grid
    of hits starts no thread.  At most ``workers + 1`` keyed cells are on
    the pool at once, one per thread and one queued, so a thread that
    finishes a cell starts the next without waiting for the calling
    thread.  A cell that is not keyed holds no table until its pool thread
    builds it, so every such cell is submitted at once.

    Each cell records into its own sink, and the sinks merge into
    ``telemetry`` in cell order, so every path accumulates the serial
    counters.  The process-global sink counts ``scheduler.runs`` and
    ``scheduler.units`` for the cells a pool ran.  An error a cell raises
    propagates unchanged, no later cell starts, and the cells not yet
    started are cancelled.
    """
    resolved = get_engine(engine)
    sink = get_telemetry(telemetry)
    if use_cache is None:
        use_cache = result_cache.cache_enabled()
    workers = workers or os.cpu_count() or 1
    if workers <= 1:
        return [simulate(*_build(cell), engine=resolved, use_cache=use_cache,
                         telemetry=sink) for cell in cells]
    sinks = [Telemetry() if sink.enabled else sink for _ in cells]
    results: list[SimulationResult | Future | None] = [None] * len(cells)
    missed: dict[str, int] = {}  # key -> the first cell of this call with it
    shared: list[tuple[int, int, str]] = []  # (cell, cell it shares, name)
    in_flight: set[Future] = set()
    pool = None
    try:
        for index, (cell, cell_sink) in enumerate(zip(cells, sinks)):
            if use_cache:
                results[index], job = _key_and_load(
                    index, cell, resolved, cell_sink, missed, shared)
                if job is None:
                    continue
            else:
                job = functools.partial(_build_and_run, cell, resolved,
                                        cell_sink)
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
    for index, first, predictor_name in shared:
        results[index] = as_hit(results[first], predictor_name,
                                cells[index].trace.name, sinks[index])
    if sink.enabled:
        for cell_sink in sinks:
            sink.merge_snapshot(cell_sink.snapshot())
    return results


def _build(cell: Cell) -> tuple[Predictor, Trace, HistoryProvider | None]:
    """A cell's fresh predictor, its trace and its fresh provider."""
    return (cell.make_predictor(), cell.trace,
            cell.make_provider() if cell.make_provider is not None else None)


def _key_and_load(index: int, cell: Cell, engine: SimulationEngine,
                  sink: NullTelemetry, missed: dict[str, int],
                  shared: list[tuple[int, int, str]],
                  ) -> tuple[SimulationResult | None, Callable | None]:
    """Build, key and load cell ``index`` on the calling thread.

    Returns ``(hit, None)`` for a cache hit.  A cell whose key an earlier
    cell of this call missed joins ``shared`` as ``(index, that cell,
    predictor name)``, counts the hit a serial load would, and returns
    ``(None, None)``.  Any other cell returns ``(None, job)``, ``job``
    simulating it; its key, if it has one, joins ``missed``.  Only the job
    holds the predictor once this returns, so a hit's tables are freed
    before the next cell builds its own, and the allocator reuses them.
    """
    predictor, trace, provider = _build(cell)
    key = cache_key(predictor, trace, provider, 0, engine)
    if key in missed:
        if sink.enabled:
            sink.count("result_cache.hits")
        shared.append((index, missed[key], predictor.name))
        return None, None
    if key is not None:
        hit = load_hit(key, predictor, trace, sink)
        if hit is not None:
            return hit, None
        missed[key] = index
    return None, functools.partial(run_and_store, predictor, trace, provider,
                                   0, engine, key, sink)


def _build_and_run(cell: Cell, engine: SimulationEngine,
                   sink: NullTelemetry) -> SimulationResult:
    """An unkeyed cell, built and run where it runs (on a pool thread)."""
    return run_and_store(*_build(cell), 0, engine, None, sink)


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
    whole point while other threads idle.  Cells are trace-major (every
    value of the first trace, then the next trace), so the threads work on
    one trace at a time and its materialized batch is computed once, by
    whichever cell asks first.  ``engine`` may be a name or an instance
    (engines are stateless).  Points come in ``values`` order,
    ``per_benchmark`` in ``traces`` order.  Scalar-engine cells hold the
    GIL throughout, so threads give them the serial counts but no speed.
    """
    values = list(values)
    cells = [Cell(functools.partial(make_predictor, value), make_provider,
                  trace)
             for trace in traces.values() for value in values]
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
