"""End-to-end sweep throughput: persistent pool + trace-major work units.

The gate: a Table-1-sized EV8 history sweep (>= 12 points over 4 SPEC95
stand-in traces) through ``sweep_parallel`` — each trace materialized
once in the caller, persistent pool, trace-major ``(point, trace)`` work
units that carry the trace and its batch — must beat a reproduction of
the whole-point orchestration (fresh default ``ProcessPoolExecutor``,
whole-point tasks that pickle every trace and re-materialize its
information vectors in every task) by **>= 1.1x end-to-end wall-clock**,
while producing **bit-identical** ``SweepPoint.per_benchmark`` values.
Both arms run the ``batched`` engine, so the same replay kernel, and the
ratio measures orchestration alone.  A second, smaller pass asserts the
merged telemetry counters of a recording parallel sweep are identical to
the serial fold.

The table lands in ``results/bench_sweep_fabric.txt``; the commit-stamped
perf trajectory is perfbench's ``g1_sweep`` workload.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor

from conftest import emit, run_once
from repro.ev8.config import EV8_CONFIG
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import ev8_info_provider
from repro.obs import Telemetry
from repro.predictors.twobcgskew import TableConfig
from repro.sim.sweep import _evaluate_point, sweep, sweep_parallel
from repro.traces.model import Trace
from repro.workloads.spec95 import default_trace_branches, spec95_trace

SWEEP_VALUES = list(range(10, 22))  # 12 points around Table 1's G1=21
SWEEP_TRACES = ("gcc", "go", "compress", "li")
MAX_WORKERS = 2


def table1_predictor(g1_history: int) -> EV8BranchPredictor:
    """The full Table 1 EV8 predictor with the G1 history length swept
    (the paper's Section 4.5 history-length exploration, at scale)."""
    config = dataclasses.replace(
        EV8_CONFIG, g1=TableConfig(64 * 1024, g1_history, 64 * 1024))
    return EV8BranchPredictor(config=config)


def _fresh_traces(branches: int) -> dict[str, Trace]:
    """Distinct trace objects per arm so neither arm inherits the other's
    materialization caches."""
    out = {}
    for name in SWEEP_TRACES:
        trace = spec95_trace(name, branches)
        out[name] = Trace(trace.name, trace.starts.copy(),
                          trace.num_instructions.copy(), trace.kinds.copy(),
                          trace.takens.copy(), trace.next_starts.copy())
    return out


def _legacy_sweep_parallel(values, traces):
    """The whole-point orchestration, reproduced: one fresh default-context
    pool per sweep and one whole-point task per value (each task receives a
    pickled copy of every trace and re-materializes each trace's planes),
    on the same ``batched`` engine as the fabric arm."""
    with ProcessPoolExecutor(max_workers=MAX_WORKERS) as pool:
        futures = [pool.submit(_evaluate_point, table1_predictor, value,
                               traces, ev8_info_provider, "batched",
                               False, False)
                   for value in values]
        return [future.result()[0] for future in futures]


def test_sweep_fabric_speedup(benchmark):
    branches = max(60_000, default_trace_branches() // 4)
    total_branches = len(SWEEP_VALUES) * len(SWEEP_TRACES) * branches

    def run():
        legacy_traces = _fresh_traces(branches)
        started = time.perf_counter()
        legacy = _legacy_sweep_parallel(SWEEP_VALUES, legacy_traces)
        legacy_seconds = time.perf_counter() - started

        fabric_traces = _fresh_traces(branches)
        started = time.perf_counter()
        fabric = sweep_parallel(table1_predictor, SWEEP_VALUES,
                                fabric_traces, ev8_info_provider,
                                engine="batched", max_workers=MAX_WORKERS,
                                use_cache=False)
        fabric_seconds = time.perf_counter() - started
        return legacy, legacy_seconds, fabric, fabric_seconds

    legacy, legacy_seconds, fabric, fabric_seconds = run_once(benchmark, run)
    speedup = legacy_seconds / fabric_seconds

    lines = [f"Sweep fabric speedup: {len(SWEEP_VALUES)}-point Table 1 EV8 "
             f"G1-history sweep, {len(SWEEP_TRACES)} traces x {branches:,} "
             f"branches, {MAX_WORKERS} workers",
             f"{'arm':>8}{'seconds':>10}{'branches/s':>14}",
             "-" * 32,
             f"{'legacy':>8}{legacy_seconds:>10.2f}"
             f"{total_branches / legacy_seconds:>14,.0f}",
             f"{'fabric':>8}{fabric_seconds:>10.2f}"
             f"{total_branches / fabric_seconds:>14,.0f}",
             "-" * 32,
             f"speedup {speedup:.2f}x (gate: >= 1.1x)"]
    emit("\n".join(lines), "bench_sweep_fabric")

    assert [p.value for p in fabric] == [p.value for p in legacy]
    assert [p.per_benchmark for p in fabric] \
        == [p.per_benchmark for p in legacy], \
        "fabric sweep is not bit-identical to the legacy orchestration"
    assert speedup >= 1.1, (
        f"fabric sweep only {speedup:.2f}x faster "
        f"({legacy_seconds:.2f}s vs {fabric_seconds:.2f}s)")


def test_sweep_fabric_telemetry_counters_match_serial(benchmark):
    """Merged telemetry counters of a recording parallel sweep are
    identical to the serial fold (run at reduced scale: a recording sink
    walks 2Bc-gskew through its scalar reference read/train methods, so
    this pass is about the fold contract, not throughput)."""
    branches = 20_000
    values = SWEEP_VALUES[:4]

    def run():
        serial_sink, parallel_sink = Telemetry(), Telemetry()
        serial = sweep(table1_predictor, values, _fresh_traces(branches),
                       ev8_info_provider, engine="batched", use_cache=False,
                       telemetry=serial_sink)
        parallel = sweep_parallel(table1_predictor, values,
                                  _fresh_traces(branches), ev8_info_provider,
                                  engine="batched", max_workers=MAX_WORKERS,
                                  use_cache=False, telemetry=parallel_sink)
        return serial, serial_sink, parallel, parallel_sink

    serial, serial_sink, parallel, parallel_sink = run_once(benchmark, run)
    assert [p.per_benchmark for p in parallel] \
        == [p.per_benchmark for p in serial]
    assert serial_sink.counters == parallel_sink.counters, \
        "parallel merged counters diverged from the serial fold"
