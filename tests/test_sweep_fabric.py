"""Integration tests: ``sweep_parallel`` running its cells on threads in
the calling process (determinism, shared per-trace memo, error paths)."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import multiprocessing
import sys
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.history.providers import ev8_info_provider
from repro.obs import Telemetry, use_telemetry
from repro.sim import planes, scheduler
from repro.sim.compare import run_comparison
from repro.sim.sweep import Cell, run_cells, sweep, sweep_parallel
from repro.traces.model import Trace
from repro.workloads.spec95 import spec95_trace

from tests_support_sweep import history_predictor, raise_workload_error

# ``repro.sim.sweep`` the attribute is the function, so import the module.
sweep_module = importlib.import_module("repro.sim.sweep")


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
        # Cells are trace-major, so an odd value count makes the threads
        # straddle both traces: 5 x 2 over 2 threads, 3 x 2 over 3.
        for values, workers in [([4, 6, 8, 10], 2), ([4, 6, 8], 3),
                                ([3, 5, 7, 9, 11], 2), ([4, 6, 8], 4)]:
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
        # Two sweeps, same trace name, different content (the harness
        # releases its store between passes): the second sweep must
        # simulate its own trace.
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
        calls = []
        real_run_cells = sweep_module.run_cells

        def spy(cells, *args):
            calls.append((list(cells), args))
            return real_run_cells(cells, *args)

        monkeypatch.setattr(sweep_module, "run_cells", spy)
        traces = fresh_traces()
        sweep_parallel(history_predictor, [4, 6, 8], traces,
                       ev8_info_provider, engine="batched", max_workers=2,
                       use_cache=False)
        [(cells, args)] = calls
        assert [(cell.make_predictor.args, cell.trace) for cell in cells] \
            == [((value,), traces[name]) for name in traces
                for value in [4, 6, 8]]
        assert all(cell.make_predictor.func is history_predictor
                   and cell.make_provider is ev8_info_provider
                   for cell in cells)
        assert args == ("batched", False, None, 2)

    def test_results_keep_cell_order_when_cells_finish_out_of_order(self):
        # The first cell builds its predictor only after the second has
        # built its own, so the second cell starts (and, being no slower,
        # usually finishes) first; results still come back in cell order.
        second_built = threading.Event()

        def first():
            assert second_built.wait(10)
            return history_predictor(4)

        def second():
            second_built.set()
            return history_predictor(9)

        trace = fresh_traces(1_000)["gcc"]
        cells = [Cell(first, ev8_info_provider, trace),
                 Cell(second, ev8_info_provider, trace)]
        threaded = run_cells(cells, engine="batched", use_cache=False,
                             workers=2)
        serial = [run_cells([Cell(functools.partial(history_predictor, h),
                                  ev8_info_provider, trace)],
                            engine="batched", use_cache=False)[0]
                  for h in (4, 9)]
        assert [r.mispredictions for r in threaded] \
            == [r.mispredictions for r in serial]
        assert serial[0].mispredictions != serial[1].mispredictions

    def test_parallel_matches_serial_without_a_batch(self):
        # The scalar engine never materializes a batch.
        values = [4, 6]
        serial = sweep(history_predictor, values, fresh_traces(1_000),
                       engine="scalar", use_cache=False)
        parallel = sweep_parallel(history_predictor, values,
                                  fresh_traces(1_000), engine="scalar",
                                  max_workers=2, use_cache=False)
        assert [p.per_benchmark for p in parallel] \
            == [p.per_benchmark for p in serial]

    def test_cached_sweep_with_a_repeated_value_matches_serial(
            self, tmp_path, monkeypatch):
        # Four threads store the same result key at once.
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        traces = fresh_traces()
        serial = sweep(history_predictor, [4], traces, ev8_info_provider,
                       engine="batched", use_cache=False)
        parallel = sweep_parallel(history_predictor, [4, 4, 4, 4], traces,
                                  ev8_info_provider, engine="batched",
                                  max_workers=4, use_cache=True)
        assert [p.per_benchmark for p in parallel] \
            == [serial[0].per_benchmark] * 4
        assert sorted(path.suffix for path in tmp_path.iterdir()) \
            == [".json"] * len(traces)


class TestThreadSharedState:
    def test_materialize_computed_matches_serial(self):
        """Threads share each trace's memo: a 2-worker sweep computes one
        batch per (trace, plane key), as the serial sweep does."""
        values = [4, 6, 8]
        counts = []
        for workers in (1, 2):
            sink = Telemetry()
            with use_telemetry(sink):
                sweep_parallel(history_predictor, values, fresh_traces(),
                               ev8_info_provider, engine="batched",
                               max_workers=workers, use_cache=False)
            counts.append(sink.counters["provider.materialize_computed"])
        assert counts == [2, 2]

    def test_derived_key_computes_once_across_threads(self):
        # More threads than cores, switching as often as the interpreter
        # allows, all missing one key at once.
        trace = fresh_traces(1_000)["gcc"]
        count = 8
        barrier = threading.Barrier(count, timeout=10)
        computed, values = [], []

        def compute(_):
            computed.append(threading.get_ident())
            time.sleep(0.05)  # widen the window a racing miss would hit
            return object()

        def request():
            barrier.wait()
            values.append(trace.derived("probe", compute))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=request)
                       for _ in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(computed) == 1
        assert len(values) == count
        assert all(value is values[0] for value in values)

    def test_lambda_factory_runs_threaded(self):
        traces = fresh_traces()
        expected = sweep(history_predictor, [4, 6], traces,
                         ev8_info_provider, engine="batched", use_cache=False)
        sink = Telemetry()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with use_telemetry(sink):
                actual = sweep_parallel(lambda h: history_predictor(h),
                                        [4, 6], traces, ev8_info_provider,
                                        engine="batched", max_workers=2,
                                        use_cache=False)
        assert sink.counters["scheduler.runs"] == 1
        assert actual == expected

    def test_no_process_or_thread_outlives_a_sweep(self):
        before = threading.active_count()
        sink = Telemetry()
        with use_telemetry(sink):
            for _ in range(2):
                sweep_parallel(history_predictor, [4, 6], fresh_traces(),
                               ev8_info_provider, engine="batched",
                               max_workers=2, use_cache=False)
                assert multiprocessing.active_children() == []
                assert threading.active_count() == before
        assert sink.counters["scheduler.runs"] == 2
        assert sink.counters["scheduler.units"] == 8

    def test_cell_error_propagates_and_cancels_pending_cells(self):
        # Every cell but the first waits up to 0.5 s before it builds its
        # predictor, so by the time any could finish, the first cell's
        # error has cancelled all the cells no thread had started yet.
        started = []
        error = RuntimeError("cell 0 failed")

        def factory(value):
            started.append(value)
            if value == 0:
                raise error
            threading.Event().wait(0.5)
            return history_predictor(4)

        before = threading.active_count()
        trace = fresh_traces(1_000)["gcc"]
        cells = [Cell(functools.partial(factory, value), ev8_info_provider,
                      trace) for value in range(20)]
        with pytest.raises(RuntimeError) as raised:
            run_cells(cells, engine="batched", use_cache=False, workers=2)
        assert raised.value is error
        assert 0 in started and len(started) <= 3
        assert threading.active_count() == before

    def test_cells_record_nothing_without_a_sink(self):
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


class TestGridPlanner:
    """``run_cells`` keys and loads on the calling thread and sends only
    the misses to its pool."""

    @staticmethod
    def cells(values, traces):
        return [Cell(functools.partial(history_predictor, value),
                     ev8_info_provider, trace)
                for trace in traces.values() for value in values]

    def test_a_grid_of_hits_never_constructs_a_pool(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        cells = self.cells([4, 6], fresh_traces())
        cold = run_cells(cells, engine="batched", use_cache=True, workers=2)

        def tripwire(*args, **kwargs):
            raise AssertionError("a grid of hits started a pool")

        monkeypatch.setattr(sweep_module, "ThreadPoolExecutor", tripwire)
        sink = Telemetry()
        with use_telemetry(sink):
            warm = run_cells(cells, engine="batched", use_cache=True,
                             workers=2)
        assert [result.cache for result in cold] == ["miss"] * len(cells)
        assert [result.cache for result in warm] == ["hit"] * len(cells)
        assert warm == [dataclasses.replace(result, cache="hit",
                                            wall_seconds=0.0)
                        for result in cold]
        assert sink.counters == {"result_cache.hits": len(cells)}

    def test_a_warm_grid_calls_each_factory_once_and_simulates_nothing(
            self, tmp_path, monkeypatch):
        # C configurations x T traces: a cold grid builds each predictor
        # once per simulated cell (the build that fingerprinted a factory
        # is the one its first cell simulates), and a warm grid calls each
        # factory once, to fingerprint it, on one worker or two.
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        calls = Counter()

        def counted(label, make):
            def factory():
                calls[label] += 1
                return make()
            return factory

        values, traces = [4, 6, 8], fresh_traces()
        factories = [counted(value, functools.partial(history_predictor,
                                                      value))
                     for value in values]
        make_provider = counted("provider", ev8_info_provider)
        cells = [Cell(factory, make_provider, trace)
                 for trace in traces.values() for factory in factories]
        cold = run_cells(cells, engine="batched", use_cache=True, workers=1)
        assert calls == {**dict.fromkeys(values, len(traces)),
                         "provider": len(cells)}
        for workers in (1, 2):
            calls.clear()
            sink = Telemetry()
            warm = run_cells(cells, engine="batched", use_cache=True,
                             telemetry=sink, workers=workers)
            assert calls == {**dict.fromkeys(values, 1), "provider": 1}
            assert sink.counters == {"result_cache.hits": len(cells)}
            assert warm == [dataclasses.replace(result, cache="hit",
                                                wall_seconds=0.0)
                            for result in cold]

    def test_an_unfingerprintable_factory_runs_its_cells_unkeyed(
            self, tmp_path, monkeypatch):
        # Its object holds a callable: the factory's first cell simulates
        # the object built to fingerprint it, every cell once, uncached.
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        built = []

        def factory():
            predictor = history_predictor(4)
            predictor.hook = lambda: None
            built.append(predictor)
            return predictor

        traces = fresh_traces(1_000)
        cells = [Cell(factory, ev8_info_provider, trace)
                 for trace in traces.values()]
        for workers in (1, 2):
            built.clear()
            results = run_cells(cells, engine="batched", use_cache=True,
                                workers=workers)
            assert [result.cache for result in results] == ["off"] * 2
            assert len(built) == len(cells)
        assert not list(tmp_path.iterdir())

    def test_scheduler_counts_only_the_cells_a_pool_ran(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        traces = fresh_traces()
        run_cells(self.cells([4], traces), engine="batched", use_cache=True,
                  workers=2)
        sink = Telemetry()
        with use_telemetry(sink):
            run_cells(self.cells([4, 6, 8], traces), engine="batched",
                      use_cache=True, workers=2)
        assert sink.counters["scheduler.runs"] == 1
        assert sink.counters["scheduler.units"] == 4  # 6 and 8, twice
        assert sink.counters["result_cache.hits"] == 2

    def test_factory_error_on_the_cached_path_stops_the_walk(
            self, tmp_path, monkeypatch):
        # The calling thread builds cells in order: the failing cell's
        # error is the one raised, and no later cell is built.
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        built = []
        error = RuntimeError("cell 3 failed")

        def factory(value):
            built.append(value)
            if value == 3:
                raise error
            return history_predictor(4 + value)

        before = threading.active_count()
        trace = fresh_traces(1_000)["gcc"]
        cells = [Cell(functools.partial(factory, value), ev8_info_provider,
                      trace) for value in range(8)]
        with pytest.raises(RuntimeError) as raised:
            run_cells(cells, engine="batched", use_cache=True, workers=2)
        assert raised.value is error
        assert built == [0, 1, 2, 3]
        assert threading.active_count() == before

    def test_no_thread_outlives_a_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        before = threading.active_count()
        configs = {f"h{value}": functools.partial(history_predictor, value)
                   for value in (4, 6)}
        for use_cache in (False, True, True):
            run_comparison(configs, fresh_traces(), ev8_info_provider,
                           engine="batched", use_cache=use_cache)
            assert threading.active_count() == before

    def test_at_most_one_keyed_cell_per_thread_waits_on_the_pool(
            self, tmp_path, monkeypatch):
        # A keyed cell's tables are built before it is submitted, so every
        # submission finds at most ``workers`` unfinished cells: one per
        # thread, or one fewer and one queued.  Unkeyed cells are built on
        # their threads and are all submitted at once.
        unfinished_at_submit = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.futures = []

            def submit(self, *args, **kwargs):
                unfinished_at_submit.append(
                    sum(not future.done() for future in self.futures))
                self.futures.append(super().submit(*args, **kwargs))
                return self.futures[-1]

        monkeypatch.setattr(sweep_module, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        cells = self.cells([3, 4, 5, 6, 7, 8], fresh_traces(1_000))
        run_cells(cells, engine="batched", use_cache=True, workers=2)
        assert len(unfinished_at_submit) == len(cells)
        assert max(unfinished_at_submit) <= 2

    def test_a_key_pending_in_the_call_is_shared_as_a_hit(
            self, tmp_path, monkeypatch):
        # Each miss runs slowly, so every repeat of its key is keyed while
        # the first cell with that key is still on the pool.  The repeats
        # must wait for it, not miss and simulate again: the cold counters
        # are the serial ones exactly.
        real_run_and_store = sweep_module.run_and_store

        def slow_run_and_store(*args):
            time.sleep(0.2)
            return real_run_and_store(*args)

        monkeypatch.setattr(sweep_module, "run_and_store", slow_run_and_store)
        values = [4, 4, 4, 6, 4]
        runs = {}
        for workers in (1, 4):
            monkeypatch.setenv("REPRO_RESULT_CACHE_DIR",
                               str(tmp_path / str(workers)))
            sink = Telemetry()
            results = run_cells(self.cells(values, fresh_traces()),
                                engine="batched", use_cache=True,
                                telemetry=sink, workers=workers)
            runs[workers] = ([dataclasses.replace(result, wall_seconds=0.0)
                              for result in results], sink.counters)
        assert runs[4] == runs[1]
        assert [result.cache for result in runs[4][0]] \
            == ["miss", "hit", "hit", "miss", "hit"] * 2
        assert runs[4][1]["result_cache.stores"] == 4
        assert runs[4][1]["engine.batched_runs"] == 4


class TestFallbacks:
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
        sink = Telemetry()
        with use_telemetry(sink):
            points = sweep_parallel(history_predictor, [5], traces,
                                    ev8_info_provider, engine="batched",
                                    max_workers=1, use_cache=False)
        assert len(points) == 1 and set(points[0].per_benchmark) == set(traces)
        assert "scheduler.runs" not in sink.counters


class TestSchedulerStub:
    def test_stub_runs_in_order_and_shutdown_is_a_no_op(self):
        # The benchmark harness wraps SweepScheduler.run and calls
        # shutdown_schedulers; both must keep working while it does.
        assert scheduler.SweepScheduler().run(abs, [-1, -2, 3]) == [1, 2, 3]
        assert scheduler.shutdown_schedulers() is None
