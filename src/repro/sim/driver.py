"""Trace-driven simulation driver.

Implements the paper's methodology (Section 8.1.1): trace-driven branch
simulation with **immediate update** — the predictor trains on each branch's
architectural outcome as soon as it is predicted.  The paper validates that
for the long-global-history predictors studied, immediate update versus
commit-time update changes the misprediction counts insignificantly.

The walk itself lives in the pluggable engine layer
(:mod:`repro.sim.engine`): the default
:class:`~repro.sim.engine.BatchedEngine` replays opted-in table predictors
through one compiled predict-then-train kernel each, over index streams
computed for the whole trace, with counts bit-identical to the reference
:class:`~repro.sim.engine.ScalarEngine`.  The scalar engine iterates the
trace's fetch-block stream one branch at a time; every predictor or
configuration outside the batched envelope falls back to it.  A
:class:`~repro.history.providers.HistoryProvider` decides what information
vector each branch is predicted with (per-branch ghist, block lghist, aged
lghist, ...), which is how one simulation loop serves both conventional
per-branch predictors and the block-granular EV8 predictor.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.history.providers import HistoryProvider
from repro.obs import NullTelemetry, get_telemetry
from repro.predictors.base import Predictor
from repro.sim import result_cache
from repro.sim.engine import SimulationEngine, get_engine
from repro.sim.metrics import SimulationResult
from repro.traces.model import Trace

__all__ = ["simulate"]


def simulate(predictor: Predictor, trace: Trace,
             provider: HistoryProvider | None = None,
             warmup_branches: int = 0,
             engine: str | SimulationEngine | None = None,
             use_cache: bool | None = None,
             telemetry: NullTelemetry | None = None) -> SimulationResult:
    """Run one predictor over one trace.

    Parameters
    ----------
    predictor:
        A fresh predictor instance (simulation mutates its tables).
    trace:
        The dynamic trace.
    provider:
        Information-vector provider; defaults to conventional per-branch
        global history (the setup of the paper's Fig 5 comparisons).
    warmup_branches:
        Optional number of initial branches excluded from the misprediction
        count (the tables still train).  The paper uses no warmup (all
        entries initialised weakly not-taken); kept for sensitivity studies.
    engine:
        Simulation engine: an instance, a registered name (``"scalar"``,
        the reference, or ``"batched"``), or ``None`` for the
        ``REPRO_SIM_ENGINE`` environment default (batched).  Engines are
        count-equivalent; they differ only in throughput.
    use_cache:
        Consult/populate the persistent result cache
        (:mod:`repro.sim.result_cache`).  ``None`` defers to the
        ``REPRO_RESULT_CACHE`` environment variable.  Inputs that cannot be
        fingerprinted simply run uncached.
    telemetry:
        Observability sink (:mod:`repro.obs`); ``None`` resolves the
        process-global active sink (disabled by default).  A recording sink
        receives result-cache hit/miss accounting here and the engine's
        per-bank/per-phase instrumentation downstream.
    """
    resolved = get_engine(engine)
    sink = get_telemetry(telemetry)
    if use_cache is None:
        use_cache = result_cache.cache_enabled()
    key = (cache_key(predictor, trace, provider, warmup_branches, resolved)
           if use_cache else None)
    if key is not None:
        cached = load_hit(key, predictor.name, trace, sink)
        if cached is not None:
            return cached
    return run_and_store(predictor, trace, provider, warmup_branches,
                         resolved, key, sink)


# The steps of a cached simulation (key, load, run and store).  The cell
# runner (:func:`repro.sim.sweep.run_cells`) shares load and store, keys
# from fingerprints it takes once per factory, and runs only the misses.


def cache_key(predictor: Predictor, trace: Trace,
              provider: HistoryProvider | None, warmup_branches: int,
              engine: SimulationEngine) -> str | None:
    """The result-cache key of one simulation, or ``None`` when an input
    cannot be fingerprinted (that simulation then runs uncached).  Key
    before running: the simulation mutates the predictor's tables."""
    try:
        return result_cache.result_key(predictor, trace, provider,
                                       warmup_branches, engine.name)
    except result_cache.UncacheableError:
        return None


def as_hit(result: SimulationResult, predictor_name: str, trace_name: str,
           sink: NullTelemetry) -> SimulationResult:
    """``result`` as a cache hit reports it.  Display names are not in the
    key, so a hit carries the live ones; it simulated nothing, so it took
    no wall time."""
    return replace(result, predictor_name=predictor_name,
                   trace_name=trace_name, wall_seconds=0.0, cache="hit",
                   telemetry=sink.snapshot() if sink.enabled else None)


def load_hit(key: str, predictor_name: str, trace: Trace,
             sink: NullTelemetry) -> SimulationResult | None:
    """The stored result for ``key`` as a hit, or ``None`` on a miss."""
    cached = result_cache.load(key, telemetry=sink)
    if cached is None:
        return None
    return as_hit(cached, predictor_name, trace.name, sink)


def run_and_store(predictor: Predictor, trace: Trace,
                  provider: HistoryProvider | None, warmup_branches: int,
                  engine: SimulationEngine, key: str | None,
                  sink: NullTelemetry) -> SimulationResult:
    """Run one simulation; with a ``key``, as a cache miss whose result is
    stored under it."""
    if key is None:
        return engine.run(predictor, trace, provider, warmup_branches,
                          telemetry=sink)
    started = time.perf_counter()
    result = replace(engine.run(predictor, trace, provider, warmup_branches,
                                telemetry=sink),
                     cache="miss")
    if sink.enabled:
        sink.observe("result_cache.miss_seconds",
                     time.perf_counter() - started)
    result_cache.store(key, result, telemetry=sink)
    if sink.enabled:
        result = replace(result, telemetry=sink.snapshot())
    return result
