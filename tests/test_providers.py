"""Tests for information-vector providers (the Fig 7 axis)."""

import pytest

from conftest import simple_loop_trace
from repro import kernels
from repro.history.providers import (
    BlockLghistProvider,
    BranchGhistProvider,
    ev8_info_provider,
)
from repro.traces import fetch
from repro.traces.fetch import FetchBlock, fetch_blocks_for
from test_fetch_blocks import walk_tripwire


def make_block(start, branch_pcs, branch_outcomes, ended_taken=True):
    return FetchBlock(start, 8, list(branch_pcs), list(branch_outcomes),
                      ended_taken)


class TestBranchGhistProvider:
    def test_history_updates_within_block(self):
        provider = BranchGhistProvider()
        block = make_block(0x1000, [0x1000, 0x1004, 0x1008],
                           [True, False, True])
        vectors = provider.begin_block(block)
        assert [v.history for v in vectors] == [0b0, 0b1, 0b10]
        provider.end_block(block)
        next_block = make_block(0x2000, [0x2000], [False])
        vectors = provider.begin_block(next_block)
        assert vectors[0].history == 0b101

    def test_address_is_branch_pc(self):
        provider = BranchGhistProvider()
        block = make_block(0x1000, [0x1008], [True])
        vector = provider.begin_block(block)[0]
        assert vector.address == 0x1008
        assert vector.branch_pc == 0x1008

    def test_path_tracks_previous_blocks(self):
        provider = BranchGhistProvider()
        first = make_block(0x1000, [0x1000], [True])
        provider.begin_block(first)
        provider.end_block(first)
        second = make_block(0x2000, [0x2000], [True])
        vector = provider.begin_block(second)[0]
        assert vector.path[0] == 0x1000

    def test_reset(self):
        provider = BranchGhistProvider()
        block = make_block(0x1000, [0x1000], [True])
        provider.begin_block(block)
        provider.end_block(block)
        provider.reset()
        vector = provider.begin_block(block)[0]
        assert vector.history == 0
        assert vector.path == (0, 0, 0)


class TestBlockLghistProvider:
    def test_vectors_share_block_state(self):
        provider = BlockLghistProvider(include_path=False)
        block = make_block(0x1000, [0x1000, 0x1008], [False, True])
        vectors = provider.begin_block(block)
        assert vectors[0].history == vectors[1].history
        assert vectors[0].address == vectors[1].address == 0x1000
        assert vectors[0].branch_pc == 0x1000
        assert vectors[1].branch_pc == 0x1008

    def test_history_is_block_compressed(self):
        provider = BlockLghistProvider(include_path=False)
        first = make_block(0x1000, [0x1000, 0x1004], [False, True])
        provider.begin_block(first)
        provider.end_block(first)
        second = make_block(0x2000, [0x2000], [True])
        vector = provider.begin_block(second)[0]
        # One bit for the whole first block: last outcome True.
        assert vector.history == 0b1

    def test_delayed_variant(self):
        provider = BlockLghistProvider(include_path=False, delay_blocks=3)
        blocks = [make_block(0x1000 * (i + 1), [0x1000 * (i + 1)], [True])
                  for i in range(5)]
        histories = []
        for block in blocks:
            vectors = provider.begin_block(block)
            histories.append(vectors[0].history)
            provider.end_block(block)
        # Predicting block D excludes the three preceding blocks A, B, C
        # entirely: block 3 still sees nothing, block 4 sees exactly the
        # bit block 0 inserted.
        assert histories == [0, 0, 0, 0, 1]

    def test_bank_advances_every_block_even_without_branches(self):
        provider = BlockLghistProvider()
        banks = []
        for i in range(6):
            # Alternate branchy and branchless blocks at varied addresses.
            if i % 2:
                block = make_block(i * 0x40, [], [])
                provider.end_block(block)  # driver skips begin_block
            else:
                block = make_block(i * 0x40, [i * 0x40], [True])
                banks.append(provider.begin_block(block)[0].bank)
                provider.end_block(block)
        assert all(0 <= bank < 4 for bank in banks)

    def test_successive_blocks_get_distinct_banks(self):
        provider = BlockLghistProvider()
        previous = None
        for i in range(50):
            block = make_block((i * 0x24) & ~3, [(i * 0x24) & ~3], [True])
            bank = provider.begin_block(block)[0].bank
            if previous is not None:
                assert bank != previous
            previous = bank
            provider.end_block(block)

    def test_begin_block_idempotent_bank(self):
        provider = BlockLghistProvider()
        block = make_block(0x1000, [0x1000], [True])
        first = provider.begin_block(block)[0].bank
        second = provider.begin_block(block)[0].bank
        assert first == second

    def test_ev8_info_provider_configuration(self):
        provider = ev8_info_provider()
        assert provider._lghist.delay_blocks == 3
        assert provider._lghist.include_path is True
        assert provider._path.depth == 3


def _scalar_vector_walk(provider, trace):
    """Reference: the per-block begin/end walk the scalar engine performs."""
    vectors = []
    for block in fetch_blocks_for(trace):
        vectors.extend(provider.begin_block(block))
        provider.end_block(block)
    return vectors


def _assert_batch_matches_walk(provider_factory, trace):
    batch = provider_factory().materialize(trace)
    assert batch is not None
    vectors = _scalar_vector_walk(provider_factory(), trace)
    assert len(batch) == len(vectors)
    for i, vector in enumerate(vectors):
        assert int(batch.history[i]) == vector.history, i
        assert int(batch.address[i]) == vector.address, i
        assert int(batch.branch_pc[i]) == vector.branch_pc, i
        assert tuple(int(batch.path[d, i])
                     for d in range(batch.path_depth)) == vector.path, i
        assert (0 if batch.bank is None else int(batch.bank[i])) \
            == vector.bank, i


class TestLghistMaterialize:
    """``BlockLghistProvider.materialize`` must reproduce the scalar
    begin_block/end_block walk bit for bit — histories, path columns and
    front-end bank numbers — for every lghist variant Fig 7 sweeps."""

    # (include_path, delay_blocks, capacity, path_depth): the EV8 vector,
    # the un-aged and outcome-only variants, short capacities that force
    # window wraparound, and non-default path depths.
    VARIANTS = [
        (True, 3, 64, 3),    # the EV8 information vector
        (True, 0, 64, 3),
        (False, 0, 64, 3),
        (False, 3, 64, 3),
        (True, 1, 16, 2),
        (False, 2, 8, 1),
        (True, 5, 32, 4),
        (True, 3, 1, 3),     # capacities off the powers of two
        (False, 0, 13, 3),
        (True, 2, 21, 1),
        (True, 3, 63, 3),
    ]

    @pytest.mark.parametrize("include_path,delay,capacity,depth", VARIANTS)
    def test_bit_identical_to_scalar_walk_on_gcc(self, include_path, delay,
                                                 capacity, depth, gcc_trace):
        _assert_batch_matches_walk(
            lambda: BlockLghistProvider(include_path=include_path,
                                        delay_blocks=delay,
                                        capacity=capacity,
                                        path_depth=depth),
            gcc_trace)

    @pytest.mark.parametrize("pattern", [None, (True, False),
                                         (True, True, False)])
    def test_bit_identical_on_loop_patterns(self, pattern):
        # Single-block loops exercise the block-boundary bookkeeping: every
        # block inserts a bit and the delay pipeline stays saturated.
        trace = simple_loop_trace(300, taken_pattern=pattern)
        _assert_batch_matches_walk(ev8_info_provider, trace)

    def test_over_capacity_histories_do_not_materialize(self, gcc_trace):
        assert BlockLghistProvider(capacity=80).materialize(gcc_trace) is None

    def test_materialized_batch_is_cached_per_trace(self, gcc_trace):
        # Two provider instances with the same configuration share the
        # per-trace batch; a different configuration gets its own, whose
        # block-level columns are shared when the path depth matches.
        first = ev8_info_provider().materialize(gcc_trace)
        second = ev8_info_provider().materialize(gcc_trace)
        assert first is second
        other = BlockLghistProvider(include_path=False).materialize(gcc_trace)
        assert other is not first
        assert other.history is not first.history
        assert other.bank is first.bank and other.path is first.path

    def test_materialized_columns_are_read_only(self, gcc_trace):
        batch = ev8_info_provider().materialize(gcc_trace)
        with pytest.raises(ValueError):
            batch.history[0] = 0
        with pytest.raises(ValueError):
            batch.bank[0] = 0


class TestGhistMaterialize:
    """``BranchGhistProvider.materialize`` against the scalar walk, for
    capacities on and off the powers of two (the window is built by
    log-doubling and then masked)."""

    @pytest.mark.parametrize("capacity", [1, 13, 21, 64])
    def test_bit_identical_to_scalar_walk_on_gcc(self, capacity, gcc_trace):
        _assert_batch_matches_walk(
            lambda: BranchGhistProvider(capacity=capacity), gcc_trace)

    def test_bit_identical_on_loop_pattern(self):
        trace = simple_loop_trace(300, taken_pattern=(True, True, False))
        _assert_batch_matches_walk(
            lambda: BranchGhistProvider(capacity=5, path_depth=2), trace)


def test_each_trace_geometry_is_computed_once(monkeypatch):
    """Every provider, and Table 2's statistics, share one fetch-block
    geometry per trace, built by the compiled walk (a counting pass and a
    filling pass), never by walking the FetchBlock objects."""
    from repro.traces.stats import compute_statistics
    library = kernels.require()
    calls = []
    walk = library.fetch_geometry
    monkeypatch.setattr(library, "fetch_geometry",
                        lambda *args: calls.append(args[0]) or walk(*args))
    monkeypatch.setattr(fetch, "_geometry_from_blocks", walk_tripwire)
    trace = simple_loop_trace(300, taken_pattern=(True, False))
    for provider in (ev8_info_provider(),
                     BlockLghistProvider(include_path=False, delay_blocks=3),
                     BranchGhistProvider()):
        assert provider.materialize(trace) is not None
    compute_statistics(trace)
    assert calls == [len(trace)] * 2


@pytest.mark.parametrize("ghist_first", [True, False])
def test_both_providers_build_each_block_column_once(monkeypatch,
                                                     ghist_first):
    """Per-branch ghist and block lghist at the same path depth read one
    memoised set of path/address/bank columns, in either order: the
    ``block_columns`` kernel builds the path rows once and the banked
    columns once, and only for the provider that needs them."""
    library = kernels.require()
    built = []
    walk = library.block_columns
    monkeypatch.setattr(
        library, "block_columns",
        lambda *args: built.append((args[3], args[6] is not None))
        or walk(*args))
    trace = simple_loop_trace(300, taken_pattern=(True, False))
    ghist = BranchGhistProvider(path_depth=3)
    lghist = BlockLghistProvider(path_depth=3)
    if ghist_first:
        assert ghist.materialize(trace).bank is None
        assert built == [(3, False)]  # path rows only
    lghist_batch = lghist.materialize(trace)
    ghist_batch = ghist.materialize(trace)
    assert ghist_batch.path is lghist_batch.path
    paths = sum(depth for depth, _ in built)
    banks = sum(banked for _, banked in built)
    assert (paths, banks) == (3, 1)
    assert len(built) == (2 if ghist_first else 1)
