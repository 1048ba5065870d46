"""Parameter sweeps, and the one cell runner behind every grid.

The paper repeatedly reports "best history length" results (Fig 5) and the
penalty of clamping history to log2(table size) (Fig 6).  These helpers run
a predictor factory across a range of a parameter and locate the best
configuration by mean misp/KI across benchmarks.

Every simulation a grid asks for is a :class:`Cell`: a predictor factory,
a provider factory and a trace.  :func:`sweep`, :func:`sweep_parallel` and
:func:`repro.sim.compare.run_comparison` each build one list of cells and
pass it to :func:`run_cells`, which runs the cells in the order given,
serially or as units on the persistent pool, and calls :func:`simulate`
per cell.  A parallel sweep is a serial sweep with the loop moved into
worker processes: both return identical points and accumulate identical
telemetry counters.
"""

from __future__ import annotations

import functools
import os
import pickle
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.history.providers import HistoryProvider
from repro.obs import NULL_TELEMETRY, NullTelemetry, Telemetry, get_telemetry
from repro.predictors.base import Predictor
from repro.sim import scheduler as sweep_scheduler
from repro.sim.driver import simulate
from repro.sim.engine import SimulationEngine
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


def _simulate_cell(cell: Cell, engine, use_cache: bool | None,
                   telemetry: NullTelemetry | None) -> SimulationResult:
    provider = (cell.make_provider() if cell.make_provider is not None
                else None)
    return simulate(cell.make_predictor(), cell.trace, provider,
                    engine=engine, use_cache=use_cache, telemetry=telemetry)


def _pool_unit(cell: Cell, engine, use_cache: bool | None,
               record: bool) -> SimulationResult:
    """One cell on a pool worker (module-level so it pickles).  With
    ``record``, it records into a fresh sink whose snapshot travels back
    on the result's ``telemetry``; process-global bookkeeping
    (``provider.materialize_computed``) stays in the worker.  Without, it
    records nothing, not even into a recording sink that a forked worker
    inherited as its process-global one."""
    return _simulate_cell(cell, engine, use_cache,
                          Telemetry() if record else NULL_TELEMETRY)


def run_cells(cells: list[Cell],
              engine: str | SimulationEngine | None = None,
              use_cache: bool | None = None,
              telemetry: NullTelemetry | None = None,
              workers: int = 1,
              start_method: str | None = None) -> list[SimulationResult]:
    """Simulate every cell; results come back in ``cells`` order.

    Serially (``workers`` 1), each cell records straight into
    ``telemetry``.  With more workers the cells run as units on the
    persistent pool (:func:`repro.sim.scheduler.get_scheduler`), each
    recording into its own sink whose snapshot merges into ``telemetry``
    in cell order, so both paths accumulate identical counters.  When the
    pool cannot be used (a factory that does not pickle, a pool that
    cannot start or breaks), the cells run serially with a warning; an
    error a cell raises itself propagates unchanged, since a serial rerun
    would only raise it again.  Nothing here computes a result key: only
    ``use_cache`` makes :func:`simulate` key a cell.
    """
    sink = get_telemetry(telemetry)
    if workers > 1 and cells:
        unit = functools.partial(_pool_unit, engine=engine,
                                 use_cache=use_cache, record=sink.enabled)
        try:
            # Probe the factories, not the traces, before dispatch.
            pickle.dumps((unit, [(cell.make_predictor, cell.make_provider)
                                 for cell in cells]))
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            reason = error
        else:
            pool = sweep_scheduler.get_scheduler(workers, start_method)
            try:
                results = pool.run(unit, cells)
            except sweep_scheduler.SchedulerUnavailable as error:
                reason = error
            else:
                for result in results:
                    if result.telemetry is not None:
                        sink.merge_snapshot(result.telemetry)
                return results
        warnings.warn(f"sweep_parallel falling back to serial sweep: "
                      f"{reason!r}", RuntimeWarning, stacklevel=3)
    return [_simulate_cell(cell, engine, use_cache, sink) for cell in cells]


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
                   engine: str | None = None,
                   max_workers: int | None = None,
                   use_cache: bool | None = None,
                   telemetry: NullTelemetry | None = None,
                   start_method: str | None = None,
                   ) -> list[SweepPoint]:
    """:func:`sweep` fanned out over the persistent work-stealing pool.

    One cell per ``(point, trace)``, so a slow benchmark never straggles a
    whole point while other workers idle.  Cells are trace-major (every
    value of the first trace, then the next trace): a scheduler chunk then
    holds few distinct traces, and pickling, which memoizes repeated
    objects, ships each of them once per chunk.  Each worker materializes
    what it needs, once per chunk and trace.

    The pool is persistent and keyed by ``(max_workers, start_method)``
    (default: one worker per CPU), with the start method chosen explicitly
    per platform (``fork`` on Linux, ``spawn`` on macOS/Windows) unless
    overridden via ``start_method``.  One worker runs serially, and a pool
    that cannot be used degrades to the serial path with a warning
    (:func:`run_cells`).  ``engine`` must be a registered engine *name*
    here, as engine instances do not cross process boundaries.  Points
    come in ``values`` order, ``per_benchmark`` in ``traces`` order.
    """
    values = list(values)
    cells = [Cell(functools.partial(make_predictor, value), make_provider,
                  trace)
             for trace in traces.values() for value in values]
    results = run_cells(cells, engine, use_cache, telemetry,
                        max_workers or os.cpu_count() or 1, start_method)
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
