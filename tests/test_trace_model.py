"""Tests for the trace model."""

import pickle
import threading

import numpy as np
import pytest

from conftest import simple_loop_trace
from repro import kernels
from repro.history.providers import BranchGhistProvider, ev8_info_provider
from repro.predictors import GsharePredictor
from repro.sim.driver import simulate
from repro.sim.result_cache import result_key
from repro.traces.fetch import block_geometry
from repro.traces.stats import compute_statistics
from repro.traces.model import (
    INSTRUCTION_BYTES,
    BlockExecution,
    TerminatorKind,
    Trace,
    TraceBuilder,
)

COLUMNS = ("starts", "num_instructions", "kinds", "takens", "next_starts")


def build_demo() -> Trace:
    builder = TraceBuilder("demo")
    builder.add(0x1000, 3, TerminatorKind.CONDITIONAL, False, 0x100C)
    builder.add(0x100C, 2, TerminatorKind.JUMP, True, 0x2000)
    builder.add(0x2000, 5, TerminatorKind.CONDITIONAL, True, 0x1000)
    builder.add(0x1000, 3, TerminatorKind.CONDITIONAL, True, 0x3000)
    return builder.build()


class TestBuilder:
    def test_lengths_and_counts(self):
        trace = build_demo()
        assert len(trace) == 4
        assert trace.instruction_count == 13
        assert trace.conditional_count == 3

    def test_rejects_zero_instructions(self):
        builder = TraceBuilder("bad")
        with pytest.raises(ValueError):
            builder.add(0x1000, 0, TerminatorKind.JUMP, True, 0)

    def test_rejects_misaligned_start(self):
        builder = TraceBuilder("bad")
        with pytest.raises(ValueError):
            builder.add(0x1001, 1, TerminatorKind.JUMP, True, 0)

    @pytest.mark.parametrize("start, count, message", [
        (0x1000, 0, "at least 1 instruction, got 0"),
        (0x1000, -2, "at least 1 instruction, got -2"),
        (0x1000, 70_000, "at most 65535 instructions, got 70000"),
        (0x1002, 1, "block start 0x1002 is not instruction-aligned"),
    ])
    def test_build_checks_columns_written_directly(self, start, count,
                                                   message):
        # The program executor appends to the columns without add().
        builder = TraceBuilder("bad")
        builder.add(0x1000, 1, TerminatorKind.JUMP, True, 0x2000)
        for column, value in ((builder.starts, start),
                              (builder.num_instructions, count),
                              (builder.kinds, int(TerminatorKind.JUMP)),
                              (builder.takens, True),
                              (builder.next_starts, 0x1000)):
            column.append(value)
        with pytest.raises(ValueError, match=message):
            builder.build()

    def test_builder_len(self):
        builder = TraceBuilder("demo")
        assert len(builder) == 0
        builder.add(0, 1, TerminatorKind.JUMP, True, 0)
        assert len(builder) == 1


class TestTraceViews:
    def test_branches_view(self):
        trace = build_demo()
        pcs, outcomes = trace.branches()
        assert pcs == [0x1008, 0x2010, 0x1008]
        assert outcomes == [False, True, True]

    def test_branches_view_reads_the_memoised_geometry(self):
        trace = build_demo()
        first = trace.branches()
        geometry = trace.derived("block_geometry")
        assert geometry is not None
        assert trace.branches() == first
        assert trace.derived("block_geometry") is geometry

    def test_static_pcs(self):
        trace = build_demo()
        assert trace.static_conditional_pcs() == {0x1008, 0x2010}

    def test_taken_rate(self):
        trace = build_demo()
        assert trace.taken_rate() == pytest.approx(2 / 3)

    def test_taken_rate_empty(self):
        builder = TraceBuilder("jumps")
        builder.add(0, 1, TerminatorKind.JUMP, True, 0)
        assert builder.build().taken_rate() == 0.0

    def test_blocks_iteration(self):
        trace = build_demo()
        blocks = list(trace.blocks())
        assert len(blocks) == 4
        first = blocks[0]
        assert isinstance(first, BlockExecution)
        assert first.terminator_pc == 0x1000 + 2 * INSTRUCTION_BYTES
        assert first.end == 0x1000 + 3 * INSTRUCTION_BYTES
        assert first.kind is TerminatorKind.CONDITIONAL

    def test_slice(self):
        trace = build_demo()
        head = trace.slice(2, name="head")
        assert len(head) == 2
        assert head.name == "head"
        assert head.conditional_count == 1
        # Slicing beyond the end clamps.
        assert len(trace.slice(100)) == 4


class TestValidation:
    @pytest.mark.parametrize("count, message", [
        (70_000, "at most 65535 instructions, got 70000"),
        (65_536, "at most 65535 instructions, got 65536"),
        (0, "at least 1 instruction, got 0"),
    ])
    def test_out_of_range_counts_rejected_not_wrapped(self, count, message):
        # uint16 storage used to keep 70000 as 4464.
        with pytest.raises(ValueError, match=message):
            Trace("y", [0x1000], [count], [1], [True], [0])
        with pytest.raises(ValueError, match=message):
            TraceBuilder("y").add(0x1000, count, TerminatorKind.JUMP, True, 0)

    @pytest.mark.parametrize("kind", [5, 255, 257, -1])
    def test_unknown_kinds_rejected(self, kind):
        with pytest.raises(ValueError, match=f"block kind {kind} "):
            Trace("y", [0x1000], [1], [kind], [True], [0])
        with pytest.raises(ValueError, match=f"block kind {kind} "):
            TraceBuilder("y").add(0x1000, 1, kind, True, 0)

    def test_widest_block_accepted(self):
        builder = TraceBuilder("wide")
        builder.add(0x1000, 65_535, TerminatorKind.JUMP, True, 0)
        assert builder.build().instruction_count == 65_535

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Trace("bad", np.zeros(2, dtype=np.uint64),
                  np.ones(3, dtype=np.uint16), np.zeros(2, dtype=np.uint8),
                  np.zeros(2, dtype=np.bool_), np.zeros(2, dtype=np.uint64))


class TestReadOnlyColumns:
    @pytest.mark.parametrize("column", COLUMNS)
    def test_writing_a_column_raises(self, column):
        trace = build_demo()
        with pytest.raises(ValueError):
            getattr(trace, column)[0] = 1

    @pytest.mark.parametrize("attribute", (*COLUMNS, "name"))
    def test_rebinding_an_attribute_raises(self, attribute):
        trace = build_demo()
        with pytest.raises(AttributeError):
            setattr(trace, attribute, getattr(trace, attribute))

    def test_columns_view_the_arrays_passed_in(self):
        takens = np.array([True, False])
        trace = Trace("views", np.array([0, 4], dtype=np.uint64),
                      np.ones(2, dtype=np.uint16),
                      np.full(2, int(TerminatorKind.CONDITIONAL), np.uint8),
                      takens, np.array([4, 8], dtype=np.uint64))
        assert np.shares_memory(trace.takens, takens)
        assert takens.flags.writeable  # the caller's array is left alone

    def test_flipping_outcomes_after_a_simulation_raises(self):
        # Before the columns were read-only, this write went through and
        # every later simulate replayed the memoised, stale fetch blocks.
        trace = simple_loop_trace(300, taken_pattern=(True, True, False))
        simulate(GsharePredictor(1 << 10, 10), trace, BranchGhistProvider(),
                 use_cache=False)
        with pytest.raises(ValueError):
            trace.takens ^= True
        with pytest.raises(ValueError):
            np.logical_not(trace.takens, out=trace.takens)


class TestDerivedMemo:
    def test_computes_once_and_stores_read_only(self):
        trace = build_demo()
        calls = []

        def compute(of):
            calls.append(of)
            return np.arange(3), (np.zeros(2), None)

        first = trace.derived("probe", compute)
        assert trace.derived("probe", compute) is first
        assert trace.derived("probe") is first
        assert calls == [trace]
        assert not first[0].flags.writeable
        assert trace.derived("absent") is None

    def test_different_keys_compute_at_once(self):
        # Each compute waits for the other to start: under one lock per
        # trace the first would time out before the second could start.
        trace = build_demo()
        started = {"a": threading.Event(), "b": threading.Event()}
        results = {}

        def request(key, other):
            def compute(_):
                started[key].set()
                return started[other].wait(timeout=5)
            results[key] = trace.derived(key, compute)

        threads = [threading.Thread(target=request, args=pair)
                   for pair in (("a", "b"), ("b", "a"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == {"a": True, "b": True}

    def test_a_compute_may_request_other_keys(self):
        trace = build_demo()
        outer = trace.derived(
            "outer", lambda of: ("outer", of.derived("inner",
                                                     lambda _: "inner")))
        assert outer == ("outer", "inner")
        assert trace.derived("inner") == "inner"

    def test_pickle_never_ships_derived_values(self):
        trace = simple_loop_trace(300, taken_pattern=(True, False))
        before = len(pickle.dumps(trace))
        block_geometry(trace)
        compute_statistics(trace)
        assert ev8_info_provider().materialize(trace) is not None
        assert BranchGhistProvider().materialize(trace) is not None
        result_key(GsharePredictor(1 << 10, 10), trace, None, 0, "scalar")
        assert len(pickle.dumps(trace)) == before

    def test_unpickled_trace_is_read_only_and_derives_afresh(self,
                                                             monkeypatch):
        trace = simple_loop_trace(300, taken_pattern=(True, False))
        geometry = block_geometry(trace)
        library = kernels.require()
        calls = []
        walk = library.fetch_geometry
        monkeypatch.setattr(library, "fetch_geometry",
                            lambda *args: calls.append(args[0]) or walk(*args))
        shipped = pickle.loads(pickle.dumps(trace))
        for column in COLUMNS:
            assert not getattr(shipped, column).flags.writeable
            np.testing.assert_array_equal(getattr(shipped, column),
                                          getattr(trace, column))
        for got, expected in zip(block_geometry(shipped), geometry,
                                 strict=True):
            np.testing.assert_array_equal(got, expected)
        assert calls == [len(trace)] * 2  # the counting and filling passes
