"""Parameter sweeps, and the one cell runner behind every grid.

The paper repeatedly reports "best history length" results (Fig 5) and the
penalty of clamping history to log2(table size) (Fig 6).  These helpers run
a predictor factory across a range of a parameter and locate the best
configuration by mean misp/KI across benchmarks.

Every simulation a grid asks for is a :class:`Cell`: a predictor factory,
a provider factory and a trace.  :func:`sweep`, :func:`sweep_parallel` and
:func:`repro.sim.compare.run_comparison` each build one list of cells and
pass it to :func:`run_cells`, which runs the cells in the order given,
serially or on threads in the calling process, and calls
:func:`simulate` per cell.  Threads suffice because the replay kernels
and the trace-side walks are ``ctypes`` calls that release the GIL; the
cells share each trace and its memo (:meth:`Trace.derived`), so a batch
is materialized once whichever thread asks first.  A parallel sweep is a
serial sweep with the loop spread over threads: both return identical
points and accumulate identical telemetry counters.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.history.providers import HistoryProvider
from repro.obs import NullTelemetry, Telemetry, get_telemetry
from repro.predictors.base import Predictor
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


def run_cells(cells: list[Cell],
              engine: str | SimulationEngine | None = None,
              use_cache: bool | None = None,
              telemetry: NullTelemetry | None = None,
              workers: int = 1) -> list[SimulationResult]:
    """Simulate every cell; results come back in ``cells`` order.

    Serially (``workers`` 1), each cell records straight into
    ``telemetry``.  With more workers the cells run on that many threads
    of a pool made for this call and joined before it returns.  Each cell
    then records into its own sink, and the sinks merge into
    ``telemetry`` in cell order, so both paths accumulate identical
    counters.  The process-global sink counts ``scheduler.runs`` and
    ``scheduler.units`` for a threaded call.  An error a cell raises
    propagates unchanged, and the cells not yet started are cancelled.
    Nothing here computes a result key: only ``use_cache`` makes
    :func:`simulate` key a cell.
    """
    sink = get_telemetry(telemetry)

    def run(cell: Cell, cell_sink: NullTelemetry) -> SimulationResult:
        provider = (cell.make_provider() if cell.make_provider is not None
                    else None)
        return simulate(cell.make_predictor(), cell.trace, provider,
                        engine=engine, use_cache=use_cache,
                        telemetry=cell_sink)

    if workers <= 1 or not cells:
        return [run(cell, sink) for cell in cells]
    global_sink = get_telemetry(None)
    if global_sink.enabled:
        global_sink.count("scheduler.runs")
        global_sink.count("scheduler.units", len(cells))
    sinks = [Telemetry() if sink.enabled else sink for _ in cells]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        results = list(pool.map(run, cells, sinks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if sink.enabled:
        for cell_sink in sinks:
            sink.merge_snapshot(cell_sink.snapshot())
    return results


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
    results = run_cells(cells, engine, use_cache, telemetry,
                        max_workers or os.cpu_count() or 1)
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
