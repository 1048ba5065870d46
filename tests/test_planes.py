"""Unit tests for the publishing hooks the benchmark harness still calls
(repro.sim.planes), and for sweeps that never touch shared memory."""

from __future__ import annotations

import multiprocessing.shared_memory
import pickle
from pathlib import Path

import numpy as np

from repro.history.providers import BranchGhistProvider, ev8_info_provider
from repro.obs import Telemetry, use_telemetry
from repro.sim import planes
from repro.sim.sweep import sweep, sweep_parallel
from repro.traces.io import TRACE_COLUMNS
from repro.traces.model import Trace
from repro.workloads.spec95 import spec95_trace

from tests_support_sweep import history_predictor


def small_trace(name: str = "gcc", branches: int = 2_000) -> Trace:
    trace = spec95_trace(name, branches)
    # Fresh arrays → fresh Trace object, so values other tests derived
    # (materialized batches) are never memoised on this one.
    return Trace(trace.name, trace.starts.copy(),
                 trace.num_instructions.copy(), trace.kinds.copy(),
                 trace.takens.copy(), trace.next_starts.copy())


def assert_same_batch(actual, expected) -> None:
    for column in ("history", "address", "branch_pc", "path", "takens",
                   "bank"):
        want = getattr(expected, column)
        got = getattr(actual, column)
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)


class TestPublishAttachRoundtrip:
    """The hooks return the trace and the provider's keyed batch, and both
    survive pickling."""

    def test_trace_roundtrip_is_bit_identical(self):
        trace = small_trace()
        published = planes.PlaneStore().publish_trace(trace)
        assert published is trace
        shipped = pickle.loads(pickle.dumps(published))
        assert shipped.name == trace.name
        for column in TRACE_COLUMNS:
            np.testing.assert_array_equal(getattr(shipped, column),
                                          getattr(trace, column))

    def test_batch_roundtrip_matches_local_materialize(self):
        trace = small_trace()
        provider = ev8_info_provider()
        key, batch = planes.PlaneStore().publish_batch(trace, provider)
        assert key == provider.plane_key()
        assert batch is ev8_info_provider().materialize(trace)
        shipped = pickle.loads(pickle.dumps(batch))
        assert_same_batch(shipped, ev8_info_provider().materialize(
            small_trace()))

    def test_publish_is_idempotent_per_trace(self):
        store = planes.PlaneStore()
        trace = small_trace()
        sink = Telemetry()
        with use_telemetry(sink):
            first = store.publish_batch(trace, ev8_info_provider())
            second = store.publish_batch(trace, ev8_info_provider())
        assert first[1] is second[1]
        assert sink.counters["provider.materialize_computed"] == 1

    def test_unkeyable_provider_publishes_nothing(self):
        provider = BranchGhistProvider(capacity=65)  # > 64-bit envelope
        assert provider.plane_key() is None
        assert planes.PlaneStore().publish_batch(small_trace(),
                                                 provider) is None


class TestLifecycle:
    def test_release_unlinks_everything(self):
        # The benchmark harness scans for segments under SEGMENT_PREFIX
        # after releasing the store; a sweep must never leave one behind.
        sweep_parallel(history_predictor, [4, 6], {"gcc": small_trace()},
                       ev8_info_provider, engine="batched", max_workers=2,
                       use_cache=False)
        planes.release_plane_store()
        planes.release_plane_store()  # idempotent
        leaked = sorted(Path("/dev/shm").glob(f"{planes.SEGMENT_PREFIX}*"))
        assert leaked == []


class _NoSharedMemory:
    def __init__(self, *args, **kwargs):
        raise OSError("shared memory disabled for this test")


class TestFallbackEquivalence:
    def test_sweep_parallel_without_shared_memory(self, monkeypatch):
        """With shared memory unusable the sweep still runs on the pool
        (it never needed it) and matches the serial sweep."""
        monkeypatch.setattr(multiprocessing.shared_memory, "SharedMemory",
                            _NoSharedMemory)
        traces = {"gcc": small_trace("gcc"), "li": small_trace("li")}
        values = [5, 8]
        expected = sweep(history_predictor, values, traces,
                         ev8_info_provider, engine="batched", use_cache=False)
        sink = Telemetry()
        with use_telemetry(sink):
            actual = sweep_parallel(history_predictor, values, traces,
                                    ev8_info_provider, engine="batched",
                                    max_workers=2, use_cache=False)
        assert sink.counters["scheduler.runs"] == 1  # not the serial fallback
        assert [p.per_benchmark for p in actual] \
            == [p.per_benchmark for p in expected]
        assert [p.mean_misp_per_ki for p in actual] \
            == [p.mean_misp_per_ki for p in expected]
