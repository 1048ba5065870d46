"""Parameter sweeps, primarily over history length.

The paper repeatedly reports "best history length" results (Fig 5) and the
penalty of clamping history to log2(table size) (Fig 6).  These helpers run
a predictor factory across a range of a parameter and locate the best
configuration by mean misp/KI across benchmarks.

Sweeps are the workload the engine layer exists for: every (point, trace)
pair is an independent simulation, so points vectorize through the batched
engine (``engine="batched"``) and fan out across processes
(:func:`sweep_parallel`).  :func:`sweep` and :func:`sweep_parallel` build
the same trace-major work units, run them through the same unit function
(serially, or on the persistent pool) and fold the results the same way,
so they return identical points and merged telemetry counters.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.history.providers import HistoryProvider
from repro.obs import NullTelemetry, Telemetry, get_telemetry
from repro.predictors.base import Predictor
from repro.sim import scheduler as sweep_scheduler
from repro.sim.driver import simulate
from repro.sim.engine import SimulationEngine
from repro.traces.model import Trace

__all__ = ["SweepPoint", "sweep", "sweep_parallel", "best_history_length"]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated parameter value."""

    value: int
    mean_misp_per_ki: float
    per_benchmark: dict[str, float]


def _units(make_predictor, values: list[int], traces: dict[str, Trace],
           make_provider, engine, use_cache, collect_telemetry) -> list[tuple]:
    """One ``(value, trace, factories, engine, use_cache,
    collect_telemetry)`` unit per (point, trace), trace-major: every value
    of the first trace, then the next trace.  A scheduler chunk then holds
    few distinct traces, and pickling, which memoizes repeated objects,
    ships each of them once per chunk."""
    return [(value, trace, make_predictor, make_provider, engine, use_cache,
             collect_telemetry)
            for trace in traces.values() for value in values]


def _simulate_unit(unit: tuple) -> tuple[float, dict | None]:
    """Simulate one ``(point, trace)`` unit (module-level so process pools
    can pickle it).

    The provider's own ``materialize`` builds the trace's batch, once per
    trace object: a worker unpickles one trace object per chunk (with
    nothing derived yet), so later units of the chunk hit the batch
    memoised on it.  With
    ``collect_telemetry``, the unit records into a fresh sink passed to
    :func:`simulate` only; its snapshot travels back for the fold, while
    process-global bookkeeping (``provider.materialize_computed``) stays
    in the process that did the work.
    """
    (value, trace, make_predictor, make_provider, engine, use_cache,
     collect_telemetry) = unit
    sink = Telemetry() if collect_telemetry else None
    provider = make_provider() if make_provider is not None else None
    result = simulate(make_predictor(value), trace, provider, engine=engine,
                      use_cache=use_cache, telemetry=sink)
    return result.misp_per_ki, (sink.snapshot() if sink is not None else None)


def _points(values: list[int], names: list[str], outcomes: list[tuple],
            sink: NullTelemetry) -> list[SweepPoint]:
    """Fold trace-major unit outcomes into one point per value, in
    ``values`` order with ``per_benchmark`` in ``names`` order; unit
    telemetry merges into ``sink`` per point in trace order."""
    points = []
    for index, value in enumerate(values):
        units = outcomes[index::len(values)]
        per_benchmark = {name: misp for name, (misp, _) in zip(names, units)}
        mean = sum(per_benchmark.values()) / len(per_benchmark)
        points.append(SweepPoint(value=value, mean_misp_per_ki=mean,
                                 per_benchmark=per_benchmark))
        for _, snapshot in units:
            if snapshot is not None:
                sink.merge_snapshot(snapshot)
    return points


def sweep(make_predictor: Callable[[int], Predictor],
          values: Iterable[int],
          traces: dict[str, Trace],
          make_provider: Callable[[], HistoryProvider] | None = None,
          engine: str | SimulationEngine | None = None,
          use_cache: bool | None = None,
          telemetry: NullTelemetry | None = None,
          ) -> list[SweepPoint]:
    """Evaluate ``make_predictor(value)`` for every value, on every trace.

    With a recording ``telemetry`` sink, every ``(point, trace)`` unit
    records into its own child sink and the snapshots merge into
    ``telemetry`` per point in ``traces`` order, points in ``values``
    order — the fold :func:`sweep_parallel` uses, so serial and parallel
    sweeps of the same work accumulate identical counters.
    """
    values = list(values)
    sink = get_telemetry(telemetry)
    units = _units(make_predictor, values, traces, make_provider, engine,
                   use_cache, sink.enabled)
    return _points(values, list(traces),
                   [_simulate_unit(unit) for unit in units], sink)


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

    The unit of work is one ``(point, trace)`` simulation, so a slow
    benchmark never straggles a whole point while other workers idle.
    Units carry their trace, never a materialized batch: each worker
    materializes what it needs, once per chunk and trace.

    The pool is persistent and keyed by ``(max_workers, start_method)``
    (:func:`repro.sim.scheduler.get_scheduler`), with the start method
    chosen explicitly per platform (``fork`` on Linux, ``spawn`` on
    macOS/Windows) unless overridden via ``start_method``.  When the pool
    cannot be used (a factory that does not pickle, a pool that cannot
    start or breaks), the sweep degrades to the serial path with a
    warning, so callers never lose results.  An error the unit raises
    itself propagates unchanged, since a serial rerun would only raise it
    again.  ``engine`` must be a registered engine *name* here, as engine
    instances do not cross process boundaries.

    The scheduler returns outcomes in submission order and the fold is
    :func:`sweep`'s, so a parallel sweep's points and merged counters are
    identical to a serial :func:`sweep` of the same work.
    """
    values = list(values)
    sink = get_telemetry(telemetry)
    if max_workers is not None and max_workers <= 1 or not values \
            or not traces:
        return sweep(make_predictor, values, traces, make_provider, engine,
                     use_cache, telemetry=sink)
    units = _units(make_predictor, values, traces, make_provider, engine,
                   use_cache, sink.enabled)
    try:
        pickle.dumps((make_predictor, make_provider, engine))
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        reason = error
    else:
        pool = sweep_scheduler.get_scheduler(max_workers, start_method)
        try:
            outcomes = pool.run(_simulate_unit, units)
            return _points(values, list(traces), outcomes, sink)
        except sweep_scheduler.SchedulerUnavailable as error:
            reason = error
    warnings.warn(f"sweep_parallel falling back to serial sweep: {reason!r}",
                  RuntimeWarning, stacklevel=2)
    return sweep(make_predictor, values, traces, make_provider, engine,
                 use_cache, telemetry=sink)


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
