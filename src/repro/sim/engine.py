"""Pluggable simulation engines: the predict/update hot path.

Every experiment in the reproduction funnels through one (predictor, trace)
simulation.  This module makes that hot path a swappable component:

* :class:`ScalarEngine` — the reference.  Walks the fetch-block stream one
  branch at a time through ``predictor.access`` with immediate update,
  exactly the paper's Section 8.1.1 methodology.
* :class:`BatchedEngine` — the throughput engine.  For predictors that opt
  in via :class:`~repro.predictors.base.BatchCapable` and providers that can
  materialize their information vectors trace-side
  (:meth:`~repro.history.providers.HistoryProvider.materialize`), the whole
  trace's index streams are precomputed over numpy arrays and replayed in
  stream order by one compiled predict-then-train kernel per predictor
  (:mod:`repro.kernels`; single-table predictors reach theirs through
  :meth:`repro.common.counters.SplitCounterArray.batch_access`).  This is
  the default engine.

The contract is strict: ``BatchedEngine`` must produce **bit-identical**
``mispredictions``/``branches`` to ``ScalarEngine`` (and equivalent final
table state) for every opted-in predictor; configurations that cannot honor
that guarantee transparently fall back to the scalar path (or raise when the
engine was constructed with ``strict=True``).

Engines are registered by name; :func:`get_engine` resolves names, instances
and the ``REPRO_SIM_ENGINE`` environment variable (the hook through which
the experiment and bench layers route every run).
"""

from __future__ import annotations

import os
import time
from typing import Callable

import numpy as np

from repro.history.providers import BranchGhistProvider, HistoryProvider
from repro.obs import NULL_TELEMETRY, NullTelemetry, get_telemetry
from repro.predictors.base import BatchCapable, Predictor
from repro.sim.metrics import SimulationResult
from repro.traces.fetch import fetch_blocks_for
from repro.traces.model import Trace

__all__ = ["SimulationEngine", "ScalarEngine", "BatchedEngine", "ENGINES",
           "register_engine", "get_engine", "default_engine_name"]

ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"


class SimulationEngine:
    """Protocol: run one predictor over one trace, returning the result.

    ``run`` owns the whole simulation — history/provider walking, the
    predict/update loop, misprediction accounting, and wall-clock
    bookkeeping.  Engines must be semantically interchangeable: same
    (predictor, trace, provider, warmup) in, same counts out.
    """

    name: str = "engine"

    def run(self, predictor: Predictor, trace: Trace,
            provider: HistoryProvider | None = None,
            warmup_branches: int = 0,
            telemetry: NullTelemetry | None = None) -> SimulationResult:
        """Run one simulation.

        ``telemetry`` is an opt-in observability sink (``None`` resolves the
        process-global active sink, which defaults to disabled).  When a
        recording sink is active the engine attaches it to the predictor for
        the duration of the run, times its phases as spans, and stamps the
        sink's snapshot onto ``SimulationResult.telemetry``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class ScalarEngine(SimulationEngine):
    """The reference engine: per-branch immediate update, branch order.

    This is the original ``simulate`` loop; every other engine is measured
    against its counts.
    """

    name = "scalar"

    def run(self, predictor: Predictor, trace: Trace,
            provider: HistoryProvider | None = None,
            warmup_branches: int = 0,
            telemetry: NullTelemetry | None = None) -> SimulationResult:
        if provider is None:
            provider = BranchGhistProvider()
        sink = get_telemetry(telemetry)
        if sink.enabled:
            predictor.attach_telemetry(sink)
        started = time.perf_counter()
        mispredictions = 0
        branches = 0
        begin_block = provider.begin_block
        end_block = provider.end_block
        access = predictor.access
        try:
            with sink.span("scalar_run"):
                for block in fetch_blocks_for(trace):
                    if block.branch_pcs:
                        vectors = begin_block(block)
                        for vector, taken in zip(vectors,
                                                 block.branch_outcomes):
                            prediction = access(vector, taken)
                            branches += 1
                            if (branches > warmup_branches
                                    and prediction != taken):
                                mispredictions += 1
                    end_block(block)
        finally:
            if sink.enabled:
                predictor.attach_telemetry(NULL_TELEMETRY)
        wall_seconds = time.perf_counter() - started
        if sink.enabled:
            sink.count("engine.scalar_runs")
            sink.count("engine.branches", branches)
        return SimulationResult(
            predictor_name=predictor.name,
            trace_name=trace.name,
            branches=branches - min(warmup_branches, branches),
            mispredictions=mispredictions,
            instructions=trace.instruction_count,
            wall_seconds=wall_seconds,
            engine=self.name,
            telemetry=sink.snapshot() if sink.enabled else None,
        )


class BatchedEngine(SimulationEngine):
    """Vectorized engine for :class:`BatchCapable` predictors.

    The provider materializes the whole trace's information vectors as
    numpy columns (history self-dependence is a pure function of earlier
    trace outcomes, so it is resolved trace-side); the predictor then
    replays the batch with vectorized index computation and one compiled
    replay kernel.  Configurations outside the batchable envelope fall back
    to :class:`ScalarEngine` — or raise if ``strict``.
    """

    name = "batched"

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._fallback = ScalarEngine()

    def _explain_fallback(self, predictor: Predictor,
                          provider: HistoryProvider) -> str | None:
        if not isinstance(predictor, BatchCapable):
            return f"{predictor.name} does not implement BatchCapable"
        if not predictor.batch_supported():
            return (f"{predictor.name} configuration cannot run batched "
                    f"(e.g. a non-vectorized index scheme or no compiled "
                    f"replay tier)")
        return None

    def run(self, predictor: Predictor, trace: Trace,
            provider: HistoryProvider | None = None,
            warmup_branches: int = 0,
            telemetry: NullTelemetry | None = None) -> SimulationResult:
        if provider is None:
            provider = BranchGhistProvider()
        sink = get_telemetry(telemetry)
        started = time.perf_counter()
        with sink.span("batched_run"):
            reason = self._explain_fallback(predictor, provider)
            if reason:
                batch = None
            else:
                with sink.span("materialize"):
                    batch = provider.materialize(trace)
            if batch is None:
                if reason is None:
                    reason = (f"{type(provider).__name__} cannot materialize "
                              f"its information vectors")
                if self.strict:
                    raise ValueError(f"batched engine unavailable: {reason}")
                if sink.enabled:
                    sink.count("engine.batched_fallbacks")
                return self._fallback.run(predictor, trace, provider,
                                          warmup_branches, telemetry=sink)
            if sink.enabled:
                predictor.attach_telemetry(sink)
            try:
                with sink.span("replay"):
                    predictions = predictor.batch_access(batch)
            finally:
                if sink.enabled:
                    predictor.attach_telemetry(NULL_TELEMETRY)
        branches = len(batch)
        counted = predictions[warmup_branches:] != batch.takens[warmup_branches:]
        mispredictions = int(np.count_nonzero(counted))
        wall_seconds = time.perf_counter() - started
        if sink.enabled:
            sink.count("engine.batched_runs")
            sink.count("engine.branches", branches)
        return SimulationResult(
            predictor_name=predictor.name,
            trace_name=trace.name,
            branches=branches - min(warmup_branches, branches),
            mispredictions=mispredictions,
            instructions=trace.instruction_count,
            wall_seconds=wall_seconds,
            engine=self.name,
            telemetry=sink.snapshot() if sink.enabled else None,
        )


ENGINES: dict[str, Callable[[], SimulationEngine]] = {
    "scalar": ScalarEngine,
    "batched": BatchedEngine,
}


def register_engine(name: str,
                    factory: Callable[[], SimulationEngine]) -> None:
    """Register an engine factory under ``name`` (overwrites allowed, so
    tests and extensions can shadow the built-ins)."""
    ENGINES[name] = factory


def default_engine_name() -> str:
    """The engine used when callers do not choose one: the
    ``REPRO_SIM_ENGINE`` environment variable, defaulting to ``batched``
    (``scalar`` stays available by name as the reference oracle)."""
    return os.environ.get(ENGINE_ENV_VAR, "").strip() or "batched"


def get_engine(engine: str | SimulationEngine | None = None
               ) -> SimulationEngine:
    """Resolve an engine argument: an instance passes through, a name is
    looked up in the registry, ``None`` resolves the environment default."""
    if isinstance(engine, SimulationEngine):
        return engine
    name = engine if engine is not None else default_engine_name()
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation engine {name!r}; registered engines: "
            f"{sorted(ENGINES)}") from None
    return factory()
