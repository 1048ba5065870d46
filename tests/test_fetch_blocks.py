"""Tests for EV8 fetch-block construction (Section 2 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import fetch
from repro.traces.fetch import (
    FETCH_BLOCK_BYTES,
    FETCH_BLOCK_INSTRUCTIONS,
    _geometry_from_blocks,
    block_geometry,
    build_fetch_blocks,
    fetch_blocks_for,
)
from repro.traces.stats import compute_statistics
from repro.traces.model import TerminatorKind, TraceBuilder
from repro.workloads.spec95 import spec95_trace


def walk_tripwire(trace):
    raise AssertionError("block_geometry walked the FetchBlock objects")


def assert_geometry_matches_walk(trace):
    """The compiled geometry, with the Python walk made to fail, against
    that walk."""
    expected = _geometry_from_blocks(trace)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fetch, "_geometry_from_blocks", walk_tripwire)
        got = block_geometry(trace)
    for column, reference in zip(got, expected, strict=True):
        assert column.dtype == reference.dtype
        np.testing.assert_array_equal(column, reference)


def trace_of(*blocks):
    builder = TraceBuilder("test")
    for block in blocks:
        builder.add(*block)
    return builder.build()


class TestBasicChunking:
    def test_taken_branch_ends_block(self):
        trace = trace_of((0x1000, 3, TerminatorKind.CONDITIONAL, True, 0x2000),
                         (0x2000, 1, TerminatorKind.JUMP, True, 0x1000))
        blocks = build_fetch_blocks(trace)
        assert [b.start for b in blocks] == [0x1000, 0x2000]
        assert blocks[0].num_instructions == 3
        assert blocks[0].ended_taken
        assert blocks[0].branch_pcs == [0x1008]

    def test_not_taken_branch_does_not_end_block(self):
        # Two conditional not-taken branches within one aligned 32B window
        # must share a fetch block (the "up to 16 predictions" mechanism).
        trace = trace_of(
            (0x1000, 2, TerminatorKind.CONDITIONAL, False, 0x1008),
            (0x1008, 2, TerminatorKind.CONDITIONAL, False, 0x1010),
            (0x1010, 4, TerminatorKind.JUMP, True, 0x1000))
        blocks = build_fetch_blocks(trace)
        assert len(blocks) == 1
        assert blocks[0].branch_pcs == [0x1004, 0x100C]
        assert blocks[0].branch_outcomes == [False, False]
        assert blocks[0].num_instructions == 8

    def test_aligned_boundary_ends_block(self):
        # 12 straight instructions from 0x1000: blocks at 0x1000 (8 instr)
        # and 0x1020 (4 instr).
        trace = trace_of((0x1000, 12, TerminatorKind.JUMP, True, 0x1000))
        blocks = build_fetch_blocks(trace)
        assert [(b.start, b.num_instructions) for b in blocks] == [
            (0x1000, 8), (0x1020, 4)]
        assert not blocks[0].ended_taken
        assert blocks[1].ended_taken

    def test_unaligned_start_after_taken_branch(self):
        # A taken branch landing mid-window: the next block runs only to the
        # next 32-byte boundary.
        trace = trace_of((0x1000, 1, TerminatorKind.JUMP, True, 0x2014),
                         (0x2014, 6, TerminatorKind.JUMP, True, 0x1000))
        blocks = build_fetch_blocks(trace)
        assert blocks[1].start == 0x2014
        assert blocks[1].num_instructions == 3  # 0x2014,18,1C then boundary
        assert blocks[2].start == 0x2020

    def test_trailing_partial_block_flushed(self):
        trace = trace_of((0x1000, 2, TerminatorKind.FALLTHROUGH, False, 0x1008))
        blocks = build_fetch_blocks(trace)
        assert len(blocks) == 1
        assert blocks[0].num_instructions == 2
        assert not blocks[0].ended_taken

    def test_lghist_properties(self):
        trace = trace_of(
            (0x1000, 2, TerminatorKind.CONDITIONAL, False, 0x1008),
            (0x1008, 2, TerminatorKind.CONDITIONAL, True, 0x3000),
            (0x3000, 1, TerminatorKind.JUMP, True, 0x1000))
        block = build_fetch_blocks(trace)[0]
        assert block.has_conditional
        assert block.last_branch_pc == 0x100C
        assert block.last_branch_outcome is True
        jump_block = build_fetch_blocks(trace)[1]
        assert not jump_block.has_conditional

    def test_memoised(self, gcc_trace):
        assert fetch_blocks_for(gcc_trace) is fetch_blocks_for(gcc_trace)


# A generated stream of basic blocks that is address-consistent: fall-through
# blocks are contiguous, taken terminators go wherever.
@st.composite
def consistent_traces(draw):
    builder = TraceBuilder("prop")
    position = draw(st.integers(0, 1 << 20)) * 4
    for _ in range(draw(st.integers(1, 60))):
        n = draw(st.integers(1, 12))
        kind = draw(st.sampled_from([TerminatorKind.CONDITIONAL,
                                     TerminatorKind.JUMP,
                                     TerminatorKind.FALLTHROUGH]))
        if kind == TerminatorKind.CONDITIONAL:
            taken = draw(st.booleans())
        else:
            taken = kind == TerminatorKind.JUMP
        end = position + n * 4
        if taken:
            target = draw(st.integers(0, 1 << 20)) * 4
        else:
            target = end
        builder.add(position, n, kind, taken, target)
        position = target
    return builder.build()


class TestInvariants:
    @given(consistent_traces())
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, trace):
        blocks = build_fetch_blocks(trace)
        total_instructions = 0
        total_branches = 0
        for block in blocks:
            # Size limits.
            assert 1 <= block.num_instructions <= FETCH_BLOCK_INSTRUCTIONS
            # Never crosses an aligned 32-byte boundary.
            assert (block.start // FETCH_BLOCK_BYTES
                    == (block.end - 4) // FETCH_BLOCK_BYTES)
            # At most 8 conditional branches, all within the block.
            assert len(block.branch_pcs) <= FETCH_BLOCK_INSTRUCTIONS
            for pc, _ in zip(block.branch_pcs, block.branch_outcomes):
                assert block.start <= pc < block.end
            # All branches except possibly the last are not-taken (a taken
            # conditional ends the block).
            for outcome in block.branch_outcomes[:-1]:
                assert outcome is False or outcome == 0
            if block.ended_taken and block.branch_outcomes:
                # If the block ended on its last conditional, it was taken
                # and sits at the very end.
                if block.branch_pcs[-1] == block.end - 4:
                    assert block.branch_outcomes[-1]
            total_instructions += block.num_instructions
            total_branches += len(block.branch_pcs)
        # Conservation: every instruction and branch appears exactly once.
        assert total_instructions == trace.instruction_count
        assert total_branches == trace.conditional_count

    @given(consistent_traces())
    @settings(max_examples=30, deadline=None)
    def test_branch_order_preserved(self, trace):
        blocks = build_fetch_blocks(trace)
        flat = [(pc, outcome) for block in blocks
                for pc, outcome in zip(block.branch_pcs,
                                       block.branch_outcomes)]
        pcs, outcomes = trace.branches()
        assert flat == list(zip(pcs, outcomes))


class TestBlockGeometry:
    """The compiled geometry (``fetch_geometry`` in ``kernels/replay.c``)
    against the fetch-block walk it ports."""

    @given(consistent_traces())
    @settings(max_examples=60, deadline=None)
    def test_matches_block_walk(self, trace):
        assert_geometry_matches_walk(trace)

    def test_discontiguous_trace_is_walked(self):
        # A not-taken branch whose successor starts elsewhere: the open
        # fetch block runs on at the new address, as the walk defines.
        trace = trace_of((0x1000, 3, TerminatorKind.CONDITIONAL, False,
                          0x100C),
                         (0x2000, 2, TerminatorKind.CONDITIONAL, True,
                          0x1000))
        assert_geometry_matches_walk(trace)

    def test_spec_trace_matches_block_walk(self):
        assert_geometry_matches_walk(spec95_trace("gcc", 5000))

    @given(consistent_traces())
    @settings(max_examples=30, deadline=None)
    def test_statistics_match_block_walk(self, trace):
        blocks = build_fetch_blocks(trace)
        stats = compute_statistics(trace)
        assert stats.fetch_block_count == len(blocks)
        assert stats.lghist_bits == sum(b.has_conditional for b in blocks)


class TestOnRealWorkload:
    def test_spec_trace_block_budget(self):
        trace = spec95_trace("vortex", 5000)
        blocks = build_fetch_blocks(trace)
        assert blocks, "workload produced no fetch blocks"
        sizes = [b.num_instructions for b in blocks]
        assert max(sizes) <= 8
        branches = sum(len(b.branch_pcs) for b in blocks)
        assert branches == trace.conditional_count
