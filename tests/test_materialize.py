"""The compiled trace-side walks of ``kernels/replay.c`` against the scalar
definitions they restate.

Every provider configuration's materialized batch must equal its
``begin_block``/``end_block`` walk column by column, dtype by dtype, and
``block_geometry`` must equal the fetch-block walk, on consistent traces
(the generator's shape), on discontiguous ones (a not-taken terminator
followed by a record elsewhere) and at the edges: an empty trace and one
record of the most instructions a record holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history.providers import BlockLghistProvider, BranchGhistProvider
from repro.traces import fetch
from repro.traces.fetch import build_fetch_blocks
from repro.traces.model import (MAX_BLOCK_INSTRUCTIONS, TerminatorKind,
                                TraceBuilder)
from test_fetch_blocks import (assert_geometry_matches_walk,
                               consistent_traces, trace_of)

KINDS = list(TerminatorKind)


@st.composite
def discontiguous_traces(draw):
    """Records at arbitrary addresses: a record need not start where the
    previous one fell through."""
    builder = TraceBuilder("scattered")
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(KINDS))
        if kind == TerminatorKind.CONDITIONAL:
            taken = draw(st.booleans())
        else:
            taken = kind != TerminatorKind.FALLTHROUGH
        builder.add(draw(st.integers(0, 1 << 12)) * 4,
                    draw(st.integers(1, 40)), kind, taken,
                    draw(st.integers(0, 1 << 12)) * 4)
    return builder.build()


traces = st.one_of(consistent_traces(), discontiguous_traces())
ghist_configs = st.fixed_dictionaries({"capacity": st.integers(1, 64),
                                       "path_depth": st.integers(1, 3)})
lghist_configs = st.fixed_dictionaries({"include_path": st.booleans(),
                                        "delay_blocks": st.integers(0, 4),
                                        "capacity": st.integers(1, 64),
                                        "path_depth": st.integers(1, 3)})


def walked_batch(provider, trace) -> dict[str, np.ndarray | None]:
    """The columns a batch must hold: the scalar walk's vectors, stacked."""
    vectors, takens = [], []
    for block in build_fetch_blocks(trace):
        vectors.extend(provider.begin_block(block))
        takens.extend(block.branch_outcomes)
        provider.end_block(block)
    depth = provider._path.depth

    def column(field):
        return np.array([getattr(v, field) for v in vectors], np.uint64)

    banked = isinstance(provider, BlockLghistProvider)
    return {"history": column("history"), "address": column("address"),
            "branch_pc": column("branch_pc"),
            "path": np.array([v.path for v in vectors],
                             np.uint64).reshape(len(vectors), depth).T,
            "takens": np.array(takens, np.bool_),
            "bank": column("bank") if banked else None}


def assert_matches_walk(make_provider, trace):
    batch = make_provider().materialize(trace)
    assert batch is not None
    for name, expected in walked_batch(make_provider(), trace).items():
        got = getattr(batch, name)
        if expected is None:
            assert got is None, name
            continue
        assert got.dtype == expected.dtype, name
        assert got.shape == expected.shape, name
        np.testing.assert_array_equal(got, expected, err_msg=name)
        assert not got.flags.writeable, name


@given(traces, ghist_configs, lghist_configs)
@settings(max_examples=150, deadline=None)
def test_every_provider_configuration_matches_its_walk(trace, ghist, lghist):
    assert_geometry_matches_walk(trace)
    assert_matches_walk(lambda: BranchGhistProvider(**ghist), trace)
    assert_matches_walk(lambda: BlockLghistProvider(**lghist), trace)


@pytest.mark.parametrize("trace", [
    TraceBuilder("empty").build(),
    # The most fetch blocks one record produces: 65535 instructions from
    # the last slot of an aligned block, ending on a taken branch.
    trace_of((0x101C, MAX_BLOCK_INSTRUCTIONS, TerminatorKind.CONDITIONAL,
              True, 0x1000),
             (0x1000, 2, TerminatorKind.CONDITIONAL, False, 0x1008)),
], ids=["empty", "longest-record"])
@pytest.mark.parametrize("make_provider", [
    BranchGhistProvider,
    lambda: BranchGhistProvider(capacity=7, path_depth=1),
    lambda: BlockLghistProvider(include_path=True, delay_blocks=3),
    lambda: BlockLghistProvider(include_path=False, delay_blocks=0,
                                capacity=5, path_depth=2),
], ids=["ghist", "ghist-short", "ev8", "lghist-short"])
def test_edge_traces_match_their_walk(trace, make_provider):
    assert_geometry_matches_walk(trace)
    assert_matches_walk(make_provider, trace)


def test_longest_record_fills_every_block():
    trace = trace_of((0x101C, MAX_BLOCK_INSTRUCTIONS,
                      TerminatorKind.CONDITIONAL, True, 0x1000))
    pcs, _, ordinals, starts = fetch.block_geometry(trace)
    assert len(starts) == len(build_fetch_blocks(trace)) == 8193
    assert ordinals.tolist() == [8192]
