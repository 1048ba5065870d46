"""Parameter sweeps, primarily over history length.

The paper repeatedly reports "best history length" results (Fig 5) and the
penalty of clamping history to log2(table size) (Fig 6).  These helpers run
a predictor factory across a range of a parameter and locate the best
configuration by mean misp/KI across benchmarks.

Sweeps are the workload the engine layer exists for: every point is an
independent (predictor, trace) simulation, so points vectorize through the
batched engine (``engine="batched"``) and fan out across processes
(:func:`sweep_parallel`).
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.history.providers import (BranchGhistProvider, HistoryProvider,
                                     seed_plane_cache)
from repro.obs import NullTelemetry, Telemetry, get_telemetry, use_telemetry
from repro.predictors.base import Predictor
from repro.sim import planes, scheduler as sweep_scheduler
from repro.sim.driver import simulate
from repro.sim.engine import BatchedEngine, SimulationEngine, get_engine
from repro.traces.model import Trace

__all__ = ["SweepPoint", "sweep", "sweep_parallel", "best_history_length"]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated parameter value."""

    value: int
    mean_misp_per_ki: float
    per_benchmark: dict[str, float]


def _evaluate_point(make_predictor: Callable[[int], Predictor],
                    value: int,
                    traces: dict[str, Trace],
                    make_provider: Callable[[], HistoryProvider] | None,
                    engine: str | SimulationEngine | None,
                    use_cache: bool | None = None,
                    collect_telemetry: bool = False
                    ) -> tuple[SweepPoint, dict | None]:
    """Evaluate one sweep point (module-level so process pools can run it).

    Returns the point plus, when ``collect_telemetry``, the snapshot of a
    point-local recording sink.  Each point gets its *own* child sink —
    worker processes share no memory with the caller, so telemetry crosses
    the pool boundary as plain snapshot dicts that the caller merges back
    deterministically (serial and parallel sweeps fold the same per-point
    snapshots in the same ``values`` order).
    """
    sink = Telemetry() if collect_telemetry else None
    per_benchmark = {}
    for name, trace in traces.items():
        provider = make_provider() if make_provider is not None else None
        result = simulate(make_predictor(value), trace, provider,
                          engine=engine, use_cache=use_cache, telemetry=sink)
        per_benchmark[name] = result.misp_per_ki
    mean = sum(per_benchmark.values()) / len(per_benchmark)
    point = SweepPoint(value=value, mean_misp_per_ki=mean,
                       per_benchmark=per_benchmark)
    return point, (sink.snapshot() if sink is not None else None)


def sweep(make_predictor: Callable[[int], Predictor],
          values: Iterable[int],
          traces: dict[str, Trace],
          make_provider: Callable[[], HistoryProvider] | None = None,
          engine: str | SimulationEngine | None = None,
          use_cache: bool | None = None,
          telemetry: NullTelemetry | None = None,
          ) -> list[SweepPoint]:
    """Evaluate ``make_predictor(value)`` for every value, on every trace.

    With a recording ``telemetry`` sink, every point records into its own
    child sink and the snapshots merge into ``telemetry`` in ``values``
    order — the same protocol :func:`sweep_parallel` uses, so serial and
    parallel sweeps of the same work accumulate identical counters.
    """
    sink = get_telemetry(telemetry)
    points = []
    for value in values:
        point, snapshot = _evaluate_point(make_predictor, value, traces,
                                          make_provider, engine, use_cache,
                                          collect_telemetry=sink.enabled)
        if snapshot is not None:
            sink.merge_snapshot(snapshot)
        points.append(point)
    return points


def _simulate_unit(payload: tuple) -> tuple[float, dict | None]:
    """Worker-side body for one ``(point, trace)`` work unit (module-level
    so process pools can pickle it).

    ``seed`` is ``(plane_key, batch)`` when the caller materialized the
    trace's batch, or ``None``.  The batch is adopted into the provider's
    materialization cache (:func:`seed_plane_cache`), so the worker's own
    ``materialize`` call is a cache hit instead of a recompute.

    Telemetry is recorded into a unit-local sink installed as the
    process-global active sink for the unit's duration, so worker-side
    bookkeeping (materialize recomputes, engine spans) lands in the
    snapshot that travels back for the deterministic fold.
    """
    (value, trace, seed, make_predictor, make_provider, engine, use_cache,
     collect_telemetry) = payload
    if seed is not None:
        plane_key, batch = seed
        seed_plane_cache(plane_key, trace, batch)
    sink = Telemetry() if collect_telemetry else None
    scope = use_telemetry(sink) if sink is not None else nullcontext()
    with scope:
        provider = make_provider() if make_provider is not None else None
        result = simulate(make_predictor(value), trace, provider,
                          engine=engine, use_cache=use_cache, telemetry=sink)
    return result.misp_per_ki, (sink.snapshot() if sink is not None else None)


def _probe_provider(make_provider, engine):
    """The provider instance whose batches the caller materializes for a
    sweep: the caller's factory when given, the batched engine's default
    otherwise (``None`` when the resolved engine would never consume a
    batch)."""
    if make_provider is not None:
        try:
            return make_provider()
        except Exception:
            return None  # the broken factory will surface in the workers
    try:
        if isinstance(get_engine(engine), BatchedEngine):
            return BranchGhistProvider()
    except ValueError:
        pass  # unknown engine name: let simulate raise it, not the probe
    return None


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
    Before dispatch, the calling process materializes each trace's
    information-vector batch once (when the provider can be keyed); each
    unit carries its trace and that batch, and the worker adopts the batch
    instead of recomputing it.  Units are ordered trace-major (every value
    of the first trace, then the next trace), so a scheduler chunk holds
    few distinct traces and pickling, which memoizes repeated objects,
    ships each of them once per chunk.

    The pool is persistent and keyed by ``(max_workers, start_method)``
    (:func:`repro.sim.scheduler.get_scheduler`), with the start method
    chosen explicitly per platform (``fork`` on Linux, ``spawn`` on
    macOS/Windows) unless overridden via ``start_method``.  When the pool
    cannot be used (unpicklable work, restricted platform), the sweep
    degrades to the serial path with a warning, so callers never lose
    results.  ``engine`` must be a registered engine *name* here, as
    engine instances do not cross process boundaries.

    Results come back in ``values`` order with ``per_benchmark`` rebuilt in
    ``traces`` order, and per-unit telemetry snapshots fold back into
    ``telemetry`` deterministically (units merge per point in trace order,
    points merge in values order), so a parallel sweep's points and merged
    counters are identical to a serial :func:`sweep` of the same work.
    """
    values = list(values)
    names = list(traces)
    sink = get_telemetry(telemetry)
    if max_workers is not None and max_workers <= 1 or not values or not names:
        return sweep(make_predictor, values, traces, make_provider, engine,
                     use_cache, telemetry=sink)
    try:
        store = planes.PlaneStore()
        probe = _probe_provider(make_provider, engine)
        payloads = []
        for name in names:
            trace = store.publish_trace(traces[name])
            seed = (store.publish_batch(trace, probe)
                    if probe is not None else None)
            payloads.extend((value, trace, seed, make_predictor,
                             make_provider, engine, use_cache, sink.enabled)
                            for value in values)
        pool = sweep_scheduler.get_scheduler(max_workers, start_method)
        outcomes = pool.run(_simulate_unit, payloads)
    except Exception as error:  # unpicklable factory, broken pool, ...
        warnings.warn(
            f"sweep_parallel falling back to serial sweep: {error!r}",
            RuntimeWarning, stacklevel=2)
        return sweep(make_predictor, values, traces, make_provider, engine,
                     use_cache, telemetry=sink)
    points = []
    for index, value in enumerate(values):
        units = outcomes[index::len(values)]
        per_benchmark = {name: misp for name, (misp, _) in zip(names, units)}
        mean = sum(per_benchmark.values()) / len(per_benchmark)
        points.append(SweepPoint(value=value, mean_misp_per_ki=mean,
                                 per_benchmark=per_benchmark))
        if sink.enabled:
            point_sink = Telemetry()
            for _, snapshot in units:
                if snapshot is not None:
                    point_sink.merge_snapshot(snapshot)
            sink.merge_snapshot(point_sink.snapshot())
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
