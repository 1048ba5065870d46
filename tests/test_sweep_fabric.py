"""Integration tests: the persistent work-stealing scheduler under
``sweep_parallel`` (determinism, worker-side materialization, fallbacks)."""

from __future__ import annotations

import functools
import pickle
import sys
import threading
import warnings

import pytest

from repro.history.providers import ev8_info_provider
from repro.obs import Telemetry, use_telemetry
from repro.sim import planes, scheduler
from repro.sim.sweep import Cell, run_cells, sweep, sweep_parallel
from repro.traces.model import Trace
from repro.workloads.spec95 import spec95_trace

from tests_support_sweep import (history_predictor, kill_worker,
                                 raise_workload_error)


def fresh_traces(branches: int = 2_500) -> dict[str, Trace]:
    """Distinct trace objects per call, so every test starts with nothing
    derived (no fetch blocks or materialized batches memoised)."""
    out = {}
    for name in ("gcc", "compress"):
        trace = spec95_trace(name, branches)
        out[name] = Trace(trace.name, trace.starts.copy(),
                          trace.num_instructions.copy(), trace.kinds.copy(),
                          trace.takens.copy(), trace.next_starts.copy())
    return out


class TestDeterminism:
    def test_parallel_points_bit_identical_to_serial(self):
        # Units are trace-major, so an odd value count leaves a trace's
        # units unaligned with the chunks: 3 x 2 over 3 workers gives one
        # unit per chunk, 5 x 2 over 2 workers a chunk that straddles both
        # traces.
        for values, workers in [([4, 6, 8, 10], 2), ([4, 6, 8], 3),
                                ([3, 5, 7, 9, 11], 2)]:
            serial = sweep(history_predictor, values, fresh_traces(),
                           ev8_info_provider, engine="batched",
                           use_cache=False)
            parallel = sweep_parallel(history_predictor, values,
                                      fresh_traces(), ev8_info_provider,
                                      engine="batched", max_workers=workers,
                                      use_cache=False)
            assert [p.value for p in parallel] == values
            assert [p.per_benchmark for p in parallel] \
                == [p.per_benchmark for p in serial]
            assert [p.mean_misp_per_ki for p in parallel] \
                == [p.mean_misp_per_ki for p in serial]

    def test_persistent_workers_never_replay_an_earlier_trace(self):
        # Two sweeps on one warm pool, same trace name, different content
        # (the harness releases its store between passes): the second
        # sweep must simulate its own trace.
        first = {"x": fresh_traces()["gcc"]}
        second = {"x": fresh_traces()["compress"]}
        sweep_parallel(history_predictor, [4, 4, 4, 4], first,
                       ev8_info_provider, engine="batched", max_workers=2,
                       use_cache=False)
        planes.release_plane_store()
        parallel = sweep_parallel(history_predictor, [4, 4, 4, 4], second,
                                  ev8_info_provider, engine="batched",
                                  max_workers=2, use_cache=False)
        serial = sweep(history_predictor, [4], second, ev8_info_provider,
                       engine="batched", use_cache=False)
        assert [p.per_benchmark for p in parallel] \
            == [serial[0].per_benchmark] * 4

    def test_merged_telemetry_counters_identical_to_serial(self):
        values = [4, 7]
        serial_sink, parallel_sink = Telemetry(), Telemetry()
        sweep(history_predictor, values, fresh_traces(), ev8_info_provider,
              engine="batched", use_cache=False, telemetry=serial_sink)
        sweep_parallel(history_predictor, values, fresh_traces(),
                       ev8_info_provider, engine="batched", max_workers=2,
                       use_cache=False, telemetry=parallel_sink)
        assert serial_sink.counters == parallel_sink.counters
        serial_spans = {name: stats["count"]
                        for name, stats in serial_sink.spans.items()}
        parallel_spans = {name: stats["count"]
                          for name, stats in parallel_sink.spans.items()}
        assert serial_spans == parallel_spans

    def test_units_are_trace_major_and_carry_only_their_trace(
            self, monkeypatch):
        seen, units = [], []
        real_run = scheduler.SweepScheduler.run

        def spy(pool, fn, payloads):
            units.append(fn)
            seen.extend(payloads)
            return real_run(pool, fn, payloads)

        monkeypatch.setattr(scheduler.SweepScheduler, "run", spy)
        traces = fresh_traces()
        sweep_parallel(history_predictor, [4, 6, 8], traces,
                       ev8_info_provider, engine="batched", max_workers=2,
                       use_cache=False)
        assert [(cell.make_predictor.args, cell.trace) for cell in seen] \
            == [((value,), traces[name]) for name in traces
                for value in [4, 6, 8]]
        assert all(cell.make_predictor.func is history_predictor
                   and cell.make_provider is ev8_info_provider
                   for cell in seen)
        assert [unit.keywords for unit in units] \
            == [dict(engine="batched", use_cache=False, record=False)]

    def test_parallel_matches_serial_without_a_batch(self):
        # The scalar engine never materializes a batch in any process.
        values = [4, 6]
        serial = sweep(history_predictor, values, fresh_traces(1_000),
                       engine="scalar", use_cache=False)
        parallel = sweep_parallel(history_predictor, values,
                                  fresh_traces(1_000), engine="scalar",
                                  max_workers=2, use_cache=False)
        assert [p.per_benchmark for p in parallel] \
            == [p.per_benchmark for p in serial]

    def test_work_stealing_chunks_preserve_order(self):
        pool = scheduler.SweepScheduler(max_workers=3)
        payloads = list(range(23))
        chunks = pool.chunk_payloads(payloads)
        assert [x for chunk in chunks for x in chunk] == payloads
        assert len(chunks) > 3  # finer than one-chunk-per-worker


class TestWorkerMaterialization:
    def test_caller_computes_no_batch(self):
        """Workers materialize for themselves: a 2-worker sweep computes no
        batch in the calling process and still matches the serial sweep."""
        values = [4, 6, 8]
        sink = Telemetry()
        with use_telemetry(sink):
            parallel = sweep_parallel(history_predictor, values,
                                      fresh_traces(), ev8_info_provider,
                                      engine="batched", max_workers=2,
                                      use_cache=False)
        assert sink.counters["scheduler.runs"] == 1  # not the serial path
        assert "provider.materialize_computed" not in sink.counters
        serial = sweep(history_predictor, values, fresh_traces(),
                       ev8_info_provider, engine="batched", use_cache=False)
        assert parallel == serial

    def test_spawned_workers_match_the_serial_sweep(self, monkeypatch):
        """Under ``spawn`` (the macOS and Windows default) workers import
        everything afresh and still reproduce the serial sweep."""
        values = [4, 7]
        sink = Telemetry()
        scheduler.shutdown_schedulers()  # the next pool starts under spawn
        monkeypatch.setattr(scheduler, "default_start_method",
                            lambda: "spawn")
        try:
            with use_telemetry(sink):
                parallel = sweep_parallel(history_predictor, values,
                                          fresh_traces(1_000),
                                          ev8_info_provider, engine="batched",
                                          max_workers=2, use_cache=False)
        finally:
            scheduler.shutdown_schedulers()
        assert sink.counters["scheduler.runs"] == 1
        serial = sweep(history_predictor, values, fresh_traces(1_000),
                       ev8_info_provider, engine="batched", use_cache=False)
        assert parallel == serial


class TestFallbacks:
    def test_unpicklable_factory_falls_back_to_serial(self):
        traces = fresh_traces()
        expected = sweep(history_predictor, [4, 6], traces,
                         ev8_info_provider, engine="batched", use_cache=False)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            actual = sweep_parallel(lambda h: history_predictor(h), [4, 6],
                                    traces, ev8_info_provider,
                                    engine="batched", max_workers=2,
                                    use_cache=False)
        assert [p.per_benchmark for p in actual] \
            == [p.per_benchmark for p in expected]

    def test_pool_survives_an_unpicklable_sweep(self):
        scheduler.shutdown_schedulers()
        sink = Telemetry()
        with use_telemetry(sink):
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                sweep_parallel(lambda h: history_predictor(h), [4, 6],
                               fresh_traces(), ev8_info_provider,
                               engine="batched", max_workers=2,
                               use_cache=False)
            points = sweep_parallel(history_predictor, [4, 6],
                                    fresh_traces(), ev8_info_provider,
                                    engine="batched", max_workers=2,
                                    use_cache=False)
        assert [p.value for p in points] == [4, 6]
        assert sink.counters["scheduler.pools_started"] == 1

    def test_unit_error_propagates_without_a_serial_rerun(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="workload error 1"):
                sweep_parallel(raise_workload_error, [1], fresh_traces(),
                               max_workers=2)
        assert not [warning for warning in caught
                    if issubclass(warning.category, RuntimeWarning)]

    def test_single_worker_short_circuits_to_serial(self):
        traces = fresh_traces()
        points = sweep_parallel(history_predictor, [5], traces,
                                ev8_info_provider, engine="batched",
                                max_workers=1, use_cache=False)
        assert len(points) == 1 and set(points[0].per_benchmark) == set(traces)


class TestPersistentScheduler:
    def test_pool_survives_across_sweeps(self):
        scheduler.shutdown_schedulers()  # force a cold pool for the count
        sink = Telemetry()
        with use_telemetry(sink):
            for _ in range(2):
                sweep_parallel(history_predictor, [4, 6], fresh_traces(),
                               ev8_info_provider, engine="batched",
                               max_workers=2, use_cache=False)
        assert sink.counters["scheduler.runs"] == 2
        assert sink.counters["scheduler.pools_started"] == 1

    def test_workers_forked_under_a_sink_record_nothing_later(self):
        # A fork copies the process-global sink into the workers; a later
        # run without telemetry must not record into that copy.
        scheduler.shutdown_schedulers()
        with use_telemetry(Telemetry()):
            sweep_parallel(history_predictor, [4], fresh_traces(1_000),
                           ev8_info_provider, engine="batched",
                           max_workers=2, use_cache=False)
        trace = fresh_traces(1_000)["gcc"]
        cells = [Cell(functools.partial(history_predictor, value),
                      ev8_info_provider, trace) for value in (4, 6)]
        results = run_cells(cells, engine="batched", use_cache=False,
                            workers=2)
        assert [result.telemetry for result in results] == [None, None]

    def test_get_scheduler_memoizes_per_key(self):
        try:
            a = scheduler.get_scheduler(2)
            b = scheduler.get_scheduler(2)
            c = scheduler.get_scheduler(3)
            assert a is b and a is not c
        finally:
            scheduler.shutdown_schedulers()

    def test_shutdown_allows_restart(self):
        pool = scheduler.SweepScheduler(max_workers=2)
        try:
            assert pool.run(abs, [-1, -2]) == [1, 2]
            pool.shutdown()
            assert pool.run(abs, [-3]) == [3]
        finally:
            pool.shutdown()

    def test_workload_error_propagates_and_keeps_the_pool(self):
        pool = scheduler.SweepScheduler(max_workers=2)
        sink = Telemetry()
        try:
            with use_telemetry(sink):
                with pytest.raises(RuntimeError,
                                   match="workload error 1") as raised:
                    pool.run(raise_workload_error, [1])
                assert type(raised.value) is RuntimeError
                assert pool.run(abs, [-4]) == [4]
        finally:
            pool.shutdown()
        assert sink.counters["scheduler.pools_started"] == 1

    def test_shutdown_after_a_failed_run_stops_the_pool(self):
        # Every chunk has settled when run() raises, so shutdown() can
        # wait for the pool's threads without racing a failing pickle.
        before = set(threading.enumerate())
        pool = scheduler.SweepScheduler(max_workers=2)
        try:
            with pytest.raises((pickle.PicklingError, AttributeError)):
                pool.run(lambda x: x, [1, 2, 3, 4])
        finally:
            pool.shutdown()
        assert set(threading.enumerate()) <= before

    def test_dead_worker_makes_the_pool_unavailable(self):
        pool = scheduler.SweepScheduler(max_workers=2)
        sink = Telemetry()
        try:
            with use_telemetry(sink):
                with pytest.raises(scheduler.SchedulerUnavailable):
                    pool.run(kill_worker, [3])
                assert pool.run(abs, [-5]) == [5]  # a fresh pool
        finally:
            pool.shutdown()
        assert sink.counters["scheduler.pools_started"] == 2

    def test_run_on_a_shut_down_executor_is_unavailable(self):
        pool = scheduler.SweepScheduler(max_workers=2)
        try:
            assert pool.run(abs, [-1]) == [1]
            pool._executor.shutdown()  # behind the scheduler's back
            with pytest.raises(scheduler.SchedulerUnavailable):
                pool.run(abs, [-2])
            assert pool.run(abs, [-3]) == [3]
        finally:
            pool.shutdown()

    def test_default_start_method_is_platform_explicit(self):
        method = scheduler.default_start_method()
        if sys.platform in ("win32", "darwin"):
            assert method == "spawn"
        else:
            assert method == "fork"
