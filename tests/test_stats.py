"""Tests for trace statistics (Tables 2 and 3 machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.fetch import block_geometry
from repro.traces.model import TerminatorKind, TraceBuilder
from repro.traces.stats import compute_statistics


def chain_trace():
    """Two not-taken branches in one fetch block, then a taken branch in its
    own block: 3 branches over 2 lghist bits."""
    builder = TraceBuilder("chain")
    builder.add(0x1000, 2, TerminatorKind.CONDITIONAL, False, 0x1008)
    builder.add(0x1008, 2, TerminatorKind.CONDITIONAL, False, 0x1010)
    builder.add(0x1010, 4, TerminatorKind.JUMP, True, 0x2000)
    builder.add(0x2000, 2, TerminatorKind.CONDITIONAL, True, 0x1000)
    return builder.build()


class TestStatistics:
    def test_counts(self):
        stats = compute_statistics(chain_trace())
        assert stats.dynamic_conditional == 3
        assert stats.static_conditional == 3
        assert stats.instruction_count == 10
        assert stats.fetch_block_count == 2
        assert stats.lghist_bits == 2

    def test_ratio(self):
        stats = compute_statistics(chain_trace())
        assert stats.lghist_to_ghist_ratio == pytest.approx(1.5)

    def test_density(self):
        stats = compute_statistics(chain_trace())
        assert stats.branches_per_kilo_instruction == pytest.approx(300.0)
        assert stats.instructions_per_branch == pytest.approx(10 / 3)

    def test_taken_rate(self):
        stats = compute_statistics(chain_trace())
        assert stats.taken_rate == pytest.approx(1 / 3)

    def test_thousands(self):
        stats = compute_statistics(chain_trace())
        assert stats.dynamic_conditional_thousands == pytest.approx(0.003)

    def test_no_branches(self):
        builder = TraceBuilder("jumps")
        builder.add(0x0, 4, TerminatorKind.JUMP, True, 0x0)
        stats = compute_statistics(builder.build())
        assert stats.lghist_to_ghist_ratio == 0.0
        assert stats.branches_per_kilo_instruction == 0.0
        assert stats.instructions_per_branch == 4.0


@st.composite
def traces(draw):
    """Random traces over a small code footprint (so PCs repeat).  With
    ``jumpy`` a not-taken branch's successor may start anywhere, which
    breaks the contiguity the vectorized fetch-block geometry relies on and
    sends it down the block-walk fallback."""
    jumpy = draw(st.booleans())
    builder = TraceBuilder("prop")
    position = draw(st.integers(0, 255)) * 4
    for _ in range(draw(st.integers(0, 80))):
        n = draw(st.integers(1, 10))
        kind = draw(st.sampled_from([TerminatorKind.CONDITIONAL,
                                     TerminatorKind.JUMP,
                                     TerminatorKind.FALLTHROUGH]))
        taken = (draw(st.booleans()) if kind == TerminatorKind.CONDITIONAL
                 else kind == TerminatorKind.JUMP)
        end = position + 4 * n
        target = (draw(st.integers(0, 255)) * 4 if taken or jumpy
                  and draw(st.booleans()) else end)
        builder.add(position, n, kind, taken, target)
        position = target
    return builder.build()


class TestDistinctCounts:
    @given(traces())
    @settings(max_examples=80, deadline=None)
    def test_counts_match_hashed_counts(self, trace):
        """The sort-and-count statistics equal the set and ``np.unique``
        counts they replace."""
        stats = compute_statistics(trace)
        _, _, ordinals, _ = block_geometry(trace)
        assert stats.static_conditional == len(trace.static_conditional_pcs())
        assert stats.lghist_bits == len(np.unique(ordinals))
        assert stats.dynamic_conditional == trace.conditional_count

    def test_memoised_per_trace(self):
        trace = chain_trace()
        assert compute_statistics(trace) is compute_statistics(trace)
        assert compute_statistics(chain_trace()) == compute_statistics(trace)


class TestOnWorkloads:
    def test_real_profile_statistics_sane(self, gcc_trace):
        stats = compute_statistics(gcc_trace)
        assert stats.dynamic_conditional == gcc_trace.conditional_count
        # lghist always compresses at least 1:1.
        assert stats.lghist_to_ghist_ratio >= 1.0
        # Densities within plausible integer-code range.
        assert 50 < stats.branches_per_kilo_instruction < 350
        assert 0.2 < stats.taken_rate < 0.8
