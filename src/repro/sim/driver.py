"""Trace-driven simulation driver.

Implements the paper's methodology (Section 8.1.1): trace-driven branch
simulation with **immediate update** — the predictor trains on each branch's
architectural outcome as soon as it is predicted.  The paper validates that
for the long-global-history predictors studied, immediate update versus
commit-time update changes the misprediction counts insignificantly.

The walk itself lives in the pluggable engine layer
(:mod:`repro.sim.engine`): the default :class:`~repro.sim.engine.ScalarEngine`
iterates the trace's fetch-block stream one branch at a time, while the
:class:`~repro.sim.engine.BatchedEngine` replays opted-in table predictors
in vectorized numpy passes with bit-identical counts.  A
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
    if use_cache:
        try:
            # Key BEFORE running: the simulation mutates predictor state.
            key = result_cache.result_key(predictor, trace, provider,
                                          warmup_branches, resolved.name)
        except result_cache.UncacheableError:
            key = None
        if key is not None:
            cached = result_cache.load(key, telemetry=sink)
            if cached is not None:
                if sink.enabled:
                    cached = replace(cached, telemetry=sink.snapshot())
                return cached
            started = time.perf_counter()
            result = replace(
                resolved.run(predictor, trace, provider, warmup_branches,
                             telemetry=sink),
                cache="miss")
            if sink.enabled:
                sink.observe("result_cache.miss_seconds",
                             time.perf_counter() - started)
            result_cache.store(key, result, telemetry=sink)
            if sink.enabled:
                result = replace(result, telemetry=sink.snapshot())
            return result
    return resolved.run(predictor, trace, provider, warmup_branches,
                        telemetry=sink)
