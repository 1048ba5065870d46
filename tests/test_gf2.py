"""Tests for the GF(2) byte-table compiler (repro.indexing.gf2).

The compiler builds every batched index stream from the scalar index
function the reference engine calls, so these tests hold the compiled
streams (gathered by the C ``gather_block`` that every replay kernel runs)
to that function row by row, at block and lane edges too, check that what
cannot be compiled runs scalar instead of failing, and check that tables
are shared exactly where the index functions are the same.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_rows, table_state, vector_batches
from repro import kernels
from repro.ev8.config import EV8_CONFIG
from repro.ev8.indexfuncs import EV8IndexScheme
from repro.ev8.predictor import EV8BranchPredictor
from repro.experiments.common import make_fig5_configs
from repro.history.providers import (BlockLghistProvider,
                                     BranchGhistProvider, VectorBatch)
from repro.indexing import gf2
from repro.obs import Telemetry
from repro.predictors import (BiModePredictor, BimodalPredictor,
                              EGskewPredictor, GAsPredictor, GsharePredictor,
                              YagsPredictor)
from repro.predictors.twobcgskew import (IndexScheme, SkewedIndexScheme,
                                         TableConfig, TwoBcGskewPredictor)
from repro.sim.engine import BatchedEngine, ScalarEngine
from repro.workloads.spec95 import SPEC95_BENCHMARKS, spec95_trace
from test_differential import FUZZ_CASES, table_configs

SMALL = (TableConfig(1 << 10, 0), TableConfig(1 << 10, 9),
         TableConfig(1 << 10, 13), TableConfig(1 << 10, 11))


def scalar_and_compiled(predictor):
    """The predictor's scalar index function (as a tuple-valued function)
    and its compiled counterpart over a batch."""
    if isinstance(predictor, TwoBcGskewPredictor):
        scheme, configs = predictor.index_scheme, predictor.configs
        return (predictor.indices,
                lambda batch: scheme.compute_batch(batch, configs).streams())
    def compiled(batch):
        return predictor._index_tables()(batch)

    scalar = getattr(predictor, "_indices", None)
    if scalar is None:
        return (lambda vector: (predictor._index(vector),)), compiled
    return scalar, compiled


def assert_rows_match(scalar, streams, batch):
    assert all(stream.dtype == np.uint64 for stream in streams)
    for i, vector in enumerate(batch_rows(batch)):
        assert tuple(int(stream[i]) for stream in streams) == \
            scalar(vector), i


class TestCompiledEqualsScalar:
    @pytest.mark.parametrize("predictor", list(FUZZ_CASES),
                             ids=lambda cls: cls.__name__)
    def test_every_fuzzed_predictor(self, predictor):
        """Every batched predictor's index function, over random
        configurations and arbitrary 64-bit fields."""
        @settings(max_examples=25, deadline=None)
        @given(config=FUZZ_CASES[predictor].configs, batch=vector_batches())
        def check(config, batch):
            instance = predictor(**config)
            scalar, compiled = scalar_and_compiled(instance)
            assert_rows_match(scalar, compiled(batch), batch)

        check()

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_skewed_scheme_at_each_path_depth(self, depth, data):
        scheme = SkewedIndexScheme(use_path_addresses=data.draw(
            st.booleans()))
        configs = tuple(data.draw(table_configs(max_history=64))
                        for _ in range(4))
        batch = data.draw(vector_batches(max_depth=0))
        rows = np.zeros((depth, len(batch)), dtype=np.uint64)
        for row in range(depth):
            rows[row] = data.draw(st.lists(
                st.integers(0, 2**64 - 1), min_size=len(batch),
                max_size=len(batch)))
        batch = VectorBatch(batch.history, batch.address, batch.branch_pc,
                            rows, batch.takens, batch.bank)
        assert_rows_match(lambda vector: scheme.compute(vector, configs),
                          scheme.compute_batch(batch, configs).streams(),
                          batch)


def _some_predictors():
    return [BimodalPredictor(64), GsharePredictor(1 << 20, 24),
            GAsPredictor(256, 3), EGskewPredictor(64, 8),
            BiModePredictor(64, 16, 5), YagsPredictor(64, 16, 5, tag_bits=40),
            TwoBcGskewPredictor(*SMALL),
            TwoBcGskewPredictor(*SMALL, index_scheme=SkewedIndexScheme(True)),
            EV8BranchPredictor()]


@pytest.mark.parametrize("predictor", _some_predictors(),
                         ids=lambda predictor: predictor.name)
def test_zero_length_batch_gives_empty_streams(predictor):
    empty = np.zeros(0, dtype=np.uint64)
    batch = VectorBatch(empty, empty, empty,
                        np.zeros((3, 0), dtype=np.uint64),
                        np.zeros(0, dtype=np.bool_), empty)
    _, compiled = scalar_and_compiled(predictor)
    streams = compiled(batch)
    assert streams and all(stream.dtype == np.uint64 and stream.shape == (0,)
                           for stream in streams)


@pytest.mark.parametrize("predictor", _some_predictors(),
                         ids=lambda predictor: predictor.name)
def test_lane_width_is_the_narrowest_that_fits(predictor):
    """16-bit lanes for the EV8 and small tables, 32 for gshare-2Mb's
    20-bit index, 64 for a 38-bit YAGS tag."""
    if isinstance(predictor, TwoBcGskewPredictor):
        tables = predictor.index_scheme.tables(predictor.configs, 3)
    else:
        tables = predictor._index_tables()
    expected = {"gshare-1024K-h24": 32, "yags-0K-h5": 64}
    assert tables.lane_bits == expected.get(predictor.name, 16)


def test_index_that_is_always_zero_reads_zero():
    """An index no input bit reaches gets no lookup; with 64-bit lanes it
    has a packed word of its own, which must still read as zero."""
    tables = gf2.compile_tables(lambda vector: (
        vector.history, 0, vector.address >> 1))
    assert tables.lane_bits == 64
    assert {word for _, _, word, _ in tables.lookups} == {0, 2}
    ones = np.full(5, 2**64 - 1, dtype=np.uint64)
    streams = tables(VectorBatch(ones, ones, ones,
                                 np.zeros((0, 5), dtype=np.uint64),
                                 np.zeros(5, dtype=np.bool_)))
    assert [stream.tolist() for stream in streams] == [
        [2**64 - 1] * 5, [0] * 5, [2**63 - 1] * 5]


# -- the C gather's blocks and lanes -----------------------------------------

def _block_constant(name: str) -> int:
    """``gather_rows`` or ``gather_words``: the C gather's block size."""
    return ctypes.c_int.in_dll(kernels.require(), name).value


@pytest.mark.parametrize("predictor", _some_predictors(),
                         ids=lambda predictor: predictor.name)
@settings(max_examples=10, deadline=None)
@given(batch=vector_batches(min_size=8))
def test_row_blocks_join_seamlessly(predictor, batch):
    """The drawn rows, repeated past two of the gather's blocks, give the
    scalar indices on both sides of every block seam."""
    rows = np.arange(2 * _block_constant("gather_rows") + 3) % len(batch)
    long = VectorBatch(batch.history[rows], batch.address[rows],
                       batch.branch_pc[rows], batch.path[:, rows],
                       batch.takens[rows],
                       None if batch.bank is None else batch.bank[rows])
    scalar, compiled = scalar_and_compiled(predictor)
    assert_rows_match(scalar, compiled(long), long)


def test_block_holds_max_words():
    assert _block_constant("gather_words") == gf2.MAX_WORDS


def test_more_words_than_the_block_holds_is_refused():
    with pytest.raises(gf2.NotLinear, match="packed words"):
        gf2.compile_tables(lambda vector: (vector.history,) * (
            gf2.MAX_WORDS + 1))


def _random_batch(rows: int, depth: int, bank: bool,
                  seed: int = 0) -> VectorBatch:
    rng = np.random.default_rng(seed)

    def column():
        return rng.integers(0, 2**64, size=rows, dtype=np.uint64)

    return VectorBatch(column(), column(), column(),
                       np.array([column() for _ in range(depth)],
                                dtype=np.uint64).reshape(depth, rows),
                       rng.random(rows) < 0.6, column() if bank else None)


def _assert_replays_like_scalar(make, batch):
    """Indices row by row, then strict batched predictions and final table
    bytes, against the scalar ``access`` walk of the same rows."""
    batched, scalar = make(), make()
    assert batched.batch_supported()
    scalar_index, compiled = scalar_and_compiled(batched)
    assert_rows_match(scalar_index, compiled(batch), batch)
    expected = [scalar.access(vector, bool(taken)) for vector, taken in
                zip(batch_rows(batch), batch.takens)]
    assert batched.batch_access(batch).tolist() == expected
    assert table_state(batched) == table_state(scalar)


def _skewed_with_path():
    return TwoBcGskewPredictor(*SMALL, index_scheme=SkewedIndexScheme(True))


_EDGE_CASES = {
    "ev8-16bit": (EV8BranchPredictor, 3, True, 16),
    "ev8-no-bank": (EV8BranchPredictor, 3, False, 16),
    "gshare-32bit": (lambda: GsharePredictor(1 << 20, 24), 0, True, 32),
    "yags-64bit": (lambda: YagsPredictor(64, 16, 5, tag_bits=40), 1, True,
                   64),
    **{f"path-depth-{depth}": (_skewed_with_path, depth, True, 16)
       for depth in range(4)},
}


@pytest.mark.parametrize("blocks,extra", [(0, 0), (0, 1), (1, -1), (1, 0),
                                          (1, 1), (2, 3)],
                         ids=lambda value: str(value))
@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_block_and_lane_edges(case, blocks, extra):
    """Batches of 0, 1, R - 1, R, R + 1 and 2R + 3 rows, R the gather's
    block, in 16-, 32- and 64-bit lanes (YAGS's three indices fill three
    words), over 0 to 3 path rows and without a bank column."""
    make, depth, bank, lane_bits = _EDGE_CASES[case]
    rows = blocks * _block_constant("gather_rows") + extra
    batch = _random_batch(rows, depth, bank, seed=rows)
    instance = make()
    tables = (instance.index_scheme.tables(instance.configs, depth)
              if isinstance(instance, TwoBcGskewPredictor)
              else instance._index_tables())
    assert tables.lane_bits == lane_bits
    _assert_replays_like_scalar(make, batch)


def test_converted_columns_stay_alive_for_the_kernel():
    """Path rows of a transposed array and an ``int64`` history column are
    converted to contiguous ``uint64`` copies, which the descriptor must
    keep alive through the replay."""
    rows = 2 * _block_constant("gather_rows") + 3
    batch = _random_batch(rows, 3, True, seed=11)
    path = np.ascontiguousarray(batch.path.T).T
    assert not path[0].flags.c_contiguous
    history = (batch.history >> np.uint64(1)).astype(np.int64)
    converted = VectorBatch(history, batch.address, batch.branch_pc, path,
                            batch.takens, batch.bank)
    _assert_replays_like_scalar(_skewed_with_path, converted)


def test_short_column_is_refused_before_its_address_is_passed():
    batch = _random_batch(10, 1, True)
    short = VectorBatch(batch.history, batch.address, batch.branch_pc,
                        batch.path, batch.takens, batch.bank[:-1])
    with pytest.raises(ValueError, match="bank column has 9 rows"):
        EV8BranchPredictor().batch_access(short)


# -- what does not compile runs scalar ----------------------------------------

class _AndsTwoBits(SkewedIndexScheme):
    """A G1 index bit that ANDs two history bits: not linear over GF(2)."""

    def compute(self, vector, configs):
        bim, g0, g1, meta = super().compute(vector, configs)
        return bim, g0, g1 ^ ((vector.history >> 3) & (vector.history >> 4)
                              & 1), meta


class _Affine(SkewedIndexScheme):
    """The zero vector maps to a nonzero Meta index."""

    def compute(self, vector, configs):
        bim, g0, g1, meta = super().compute(vector, configs)
        return bim, g0, g1, meta ^ 1


class _PathAnd(SkewedIndexScheme):
    """Non-linear in the path rows only."""

    def compute(self, vector, configs):
        bim, g0, g1, meta = super().compute(vector, configs)
        if len(vector.path) > 1:
            bim ^= vector.path[0] & vector.path[1] & 1
        return bim, g0, g1, meta


class _GshareAnd(GsharePredictor):
    """A single-table predictor whose index ANDs two history bits."""

    def _index(self, vector):
        return super()._index(vector) ^ ((vector.history >> 3)
                                         & (vector.history >> 4) & 1)


@pytest.mark.parametrize("make", [
    lambda: TwoBcGskewPredictor(*SMALL, index_scheme=_AndsTwoBits()),
    lambda: TwoBcGskewPredictor(*SMALL, index_scheme=_Affine()),
    lambda: TwoBcGskewPredictor(*SMALL, index_scheme=_PathAnd(True)),
    lambda: _GshareAnd(1 << 10, 8),
], ids=["non-linear", "affine", "non-linear-path", "single-table"])
def test_uncompilable_index_falls_back_to_scalar(make, gcc_trace):
    provider = BlockLghistProvider
    assert not make().batch_supported()
    sink = Telemetry()
    result = BatchedEngine().run(make(), gcc_trace, provider(),
                                 telemetry=sink)
    assert result.engine == "scalar"
    assert sink.snapshot()["counters"]["engine.batched_fallbacks"] == 1
    reference = ScalarEngine().run(make(), gcc_trace, provider())
    assert result.mispredictions == reference.mispredictions
    with pytest.raises(ValueError, match="cannot run batched"):
        BatchedEngine(strict=True).run(make(), gcc_trace, provider())


def test_uncompilable_compute_batch_names_the_reason():
    batch = VectorBatch(*(np.zeros(2, dtype=np.uint64),) * 3,
                        np.zeros((0, 2), dtype=np.uint64),
                        np.zeros(2, dtype=np.bool_))
    with pytest.raises(gf2.NotLinear, match="zero vector"):
        _Affine().compute_batch(batch, SMALL)
    # The failure is memoised, and raised again on every later call.
    with pytest.raises(gf2.NotLinear, match="zero vector"):
        _Affine().compute_batch(batch, SMALL)


class _XorHalves(IndexScheme):
    """A custom scheme that defines only ``compute``: address XOR history
    XOR the youngest path address, masked to each table."""

    def compute(self, vector, configs):
        z = vector.path[0] if vector.path else 0
        return tuple(((vector.address >> 2) ^ vector.history ^ z)
                     & (config.entries - 1) for config in configs)


def test_custom_linear_scheme_runs_batched(gcc_trace):
    def make():
        return TwoBcGskewPredictor(*SMALL, index_scheme=_XorHalves())

    batched, scalar = (
        engine.run(make(), gcc_trace, BlockLghistProvider(include_path=True))
        for engine in (BatchedEngine(strict=True), ScalarEngine()))
    assert batched.engine == "batched"
    assert (batched.mispredictions, batched.branches) == \
        (scalar.mispredictions, scalar.branches)


# -- memoisation -------------------------------------------------------------

def _tables(owner, configs=SMALL, depth=3):
    if isinstance(owner, IndexScheme):
        return owner.tables(configs, depth)
    return owner._index_tables()


def _retuned(config, **changes):
    fields = dict(entries=config.entries,
                  history_length=config.history_length,
                  hysteresis_entries=config.hysteresis_entries)
    return TableConfig(**{**fields, **changes})


@pytest.mark.parametrize("first,second", [
    (BimodalPredictor(1 << 10), BimodalPredictor(1 << 11)),
    (GsharePredictor(1 << 10, 8), GsharePredictor(1 << 10, 9)),
    (GsharePredictor(1 << 10, 8), GsharePredictor(1 << 11, 8)),
    (GAsPredictor(1 << 10, 4), GAsPredictor(1 << 10, 5)),
    (EGskewPredictor(1 << 10, 8), EGskewPredictor(1 << 10, 8, 6)),
    (EGskewPredictor(1 << 10, 8), EGskewPredictor(1 << 11, 8)),
    (BiModePredictor(1 << 10, 1 << 8, 8), BiModePredictor(1 << 10, 1 << 9, 8)),
    (YagsPredictor(1 << 10, 1 << 8, 8), YagsPredictor(1 << 10, 1 << 8, 9)),
    (YagsPredictor(1 << 10, 1 << 8, 8, tag_bits=6),
     YagsPredictor(1 << 10, 1 << 8, 8, tag_bits=7)),
    (SkewedIndexScheme(False), SkewedIndexScheme(True)),
    (EV8IndexScheme("history"), EV8IndexScheme("address")),
    (EV8IndexScheme(use_block_bank=True),
     EV8IndexScheme(use_block_bank=False)),
], ids=lambda owner: type(owner).__name__)
def test_one_parameter_apart_never_share_tables(first, second):
    assert _tables(first) is not _tables(second)


def test_skewed_tables_follow_configs_and_path_depth():
    scheme = SkewedIndexScheme(use_path_addresses=True)
    longer = SMALL[:2] + (_retuned(SMALL[2], history_length=14),) + SMALL[3:]
    assert _tables(scheme) is not _tables(scheme, configs=longer)
    assert _tables(scheme, depth=2) is not _tables(scheme, depth=3)
    # Hysteresis sharing is not read by compute: same tables.
    shared = (SMALL[0], _retuned(SMALL[1], hysteresis_entries=512)) + SMALL[2:]
    assert _tables(scheme, configs=shared) is _tables(scheme)
    # Without path addresses the path rows are not read either.
    plain = SkewedIndexScheme()
    assert _tables(plain, depth=0) is _tables(plain, depth=3)


def test_unhashable_key_compiles_without_memo():
    """A custom scheme's default key holds its attributes; one that cannot
    be hashed still compiles, afresh on each call."""
    scheme = _XorHalves()
    scheme.notes = ["unhashable"]
    first, second = _tables(scheme), _tables(scheme)
    assert first is not second
    assert first.lookups and first.lane_bits == second.lane_bits == 16


def test_ev8_tables_serve_every_g1_length():
    """Table 1's G1 sweep shares one table set per EV8 variant."""
    tables = EV8_CONFIG.tables()
    for g1_length in (13, 17, 21, 27):
        configs = (tables[0], tables[1],
                   _retuned(tables[2], history_length=g1_length), tables[3])
        assert _tables(EV8IndexScheme(), configs) is \
            _tables(EV8IndexScheme(), tables)


def test_fig5_comparison_builds_each_table_set_once(monkeypatch):
    """The 48 Fig 5 cells (six predictors on eight benchmarks) compile one
    table set per distinct index function."""
    monkeypatch.setattr(gf2, "_TABLES", {})
    compiled = []
    compile_tables = gf2.compile_tables
    monkeypatch.setattr(gf2, "compile_tables", lambda index, depth=0: (
        compiled.append(index) or compile_tables(index, depth)))
    for benchmark in SPEC95_BENCHMARKS:
        trace = spec95_trace(benchmark, 2000)
        for make in make_fig5_configs().values():
            result = BatchedEngine(strict=True).run(make(), trace,
                                                    BranchGhistProvider())
            assert result.engine == "batched"
    assert len(compiled) == len(gf2._TABLES) == len(make_fig5_configs())


# -- observability -----------------------------------------------------------

@pytest.mark.parametrize("make,provider", [
    (lambda: GsharePredictor(1 << 12, 10), BranchGhistProvider),
    (lambda: YagsPredictor(1 << 10, 1 << 10, 8), BranchGhistProvider),
    (EV8BranchPredictor, EV8BranchPredictor.make_provider),
])
def test_index_gather_is_a_span_inside_replay(make, provider, gcc_trace):
    sink = Telemetry()
    BatchedEngine(strict=True).run(make(), gcc_trace, provider(),
                                   telemetry=sink)
    spans = sink.snapshot()["spans"]
    index = spans["batched_run/replay/index"]
    assert index["count"] == 1
    assert 0 < index["seconds"] <= spans["batched_run/replay"]["seconds"]
