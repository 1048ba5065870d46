"""Engine layer: scalar/batched equivalence, fallbacks, and the registry.

The batched engine's contract is bit-identical ``mispredictions`` and
``branches`` versus the scalar reference (plus equivalent final table
state) for every opted-in predictor; these tests pin that contract on both
synthetic and stand-in SPEC traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import scalar_predictions, simple_loop_trace, table_state
from repro.experiments.common import make_fig5_configs
from repro.history.providers import BlockLghistProvider, BranchGhistProvider
from repro.predictors import (
    BatchCapable,
    BimodalPredictor,
    BiModePredictor,
    EGskewPredictor,
    GAsPredictor,
    GsharePredictor,
    LocalPredictor,
    TableConfig,
    TwoBcGskewPredictor,
    YagsPredictor,
)
from repro.sim.engine import (
    ENGINE_ENV_VAR,
    ENGINES,
    BatchedEngine,
    ScalarEngine,
    SimulationEngine,
    default_engine_name,
    get_engine,
    register_engine,
)
from repro.obs import Telemetry
from repro.sim.driver import simulate
from repro.sim.sweep import sweep, sweep_parallel

PREDICTOR_FACTORIES = {
    "bimodal": lambda: BimodalPredictor(1 << 12),
    "gshare": lambda: GsharePredictor(1 << 12, 12),
    "gshare-long-history": lambda: GsharePredictor(1 << 10, 30),
    "gas": lambda: GAsPredictor(1 << 12, 6),
    "egskew": lambda: EGskewPredictor(1 << 11, 10),
    "2bc-gskew": lambda: TwoBcGskewPredictor(
        TableConfig(1 << 10, 0), TableConfig(1 << 10, 9),
        TableConfig(1 << 10, 15), TableConfig(1 << 10, 11)),
}


def _both_engines(factory, trace, warmup: int = 0):
    scalar = ScalarEngine().run(factory(), trace, warmup_branches=warmup)
    batched = BatchedEngine(strict=True).run(factory(), trace,
                                             warmup_branches=warmup)
    return scalar, batched


@pytest.mark.parametrize("config", sorted(PREDICTOR_FACTORIES))
def test_engines_bit_identical_on_gcc(config, gcc_trace):
    scalar, batched = _both_engines(PREDICTOR_FACTORIES[config], gcc_trace)
    assert batched.branches == scalar.branches
    assert batched.mispredictions == scalar.mispredictions
    assert batched.engine == "batched" and scalar.engine == "scalar"


@pytest.mark.parametrize("config", sorted(PREDICTOR_FACTORIES))
def test_engines_bit_identical_on_compress(config, compress_trace):
    scalar, batched = _both_engines(PREDICTOR_FACTORIES[config],
                                    compress_trace)
    assert (batched.mispredictions, batched.branches) == \
        (scalar.mispredictions, scalar.branches)


@pytest.mark.parametrize("pattern", [None, (True, False), (True,) * 5 + (False,),
                                     (True, True, False, True, False, False)])
def test_engines_bit_identical_on_loop_patterns(pattern):
    trace = simple_loop_trace(400, taken_pattern=pattern)
    for config, factory in PREDICTOR_FACTORIES.items():
        scalar, batched = _both_engines(factory, trace)
        assert (batched.mispredictions, batched.branches) == \
            (scalar.mispredictions, scalar.branches), config


def test_engines_bit_identical_with_warmup(gcc_trace):
    for warmup in (1, 100, 5000):
        scalar, batched = _both_engines(PREDICTOR_FACTORIES["gshare"],
                                        gcc_trace, warmup=warmup)
        assert (batched.mispredictions, batched.branches) == \
            (scalar.mispredictions, scalar.branches), warmup


def test_engines_equivalent_final_table_state(gcc_trace):
    """Batched simulation leaves the counter arrays in the same state the
    scalar walk does — the equivalence is stronger than count-equality."""
    scalar_pred = GsharePredictor(1 << 12, 12)
    batched_pred = GsharePredictor(1 << 12, 12)
    ScalarEngine().run(scalar_pred, gcc_trace)
    BatchedEngine(strict=True).run(batched_pred, gcc_trace)
    assert scalar_pred._counters._prediction == batched_pred._counters._prediction
    assert scalar_pred._counters._hysteresis == batched_pred._counters._hysteresis


@pytest.mark.parametrize("limited", [False, True], ids=["fig5", "fig6"])
def test_fig5_set_runs_batched_without_fallbacks(limited, gcc_trace):
    """Every Fig 5/6 configuration, bi-mode and YAGS included, is inside
    the batched envelope on per-branch ghist: strict batched runs are
    count-identical to the scalar walk, and a recording sink sees no
    fallback."""
    configs = make_fig5_configs(limited=limited)
    sink = Telemetry()
    for name, make in configs.items():
        scalar = ScalarEngine().run(make(), gcc_trace, BranchGhistProvider())
        batched = BatchedEngine(strict=True).run(
            make(), gcc_trace, BranchGhistProvider(), telemetry=sink)
        assert batched.engine == "batched", name
        assert (batched.mispredictions, batched.branches) == \
            (scalar.mispredictions, scalar.branches), name
        BatchedEngine().run(make(), gcc_trace, BranchGhistProvider(),
                            telemetry=sink)
    counters = sink.snapshot()["counters"]
    assert counters.get("engine.batched_fallbacks", 0) == 0
    assert counters["engine.batched_runs"] == 2 * len(configs)


@pytest.mark.parametrize("factory", [
    lambda: BiModePredictor(1 << 10, 1 << 8, 12),
    lambda: YagsPredictor(1 << 8, 1 << 8, 10, tag_bits=10),
    lambda: EGskewPredictor(1 << 10, 12),
    lambda: TwoBcGskewPredictor(
        TableConfig(1 << 10, 0), TableConfig(1 << 11, 9, 1 << 10),
        TableConfig(1 << 11, 13), TableConfig(1 << 11, 11, 1 << 10)),
], ids=["bimode", "yags", "egskew", "2bcgskew_ev8_shaped"])
def test_batch_access_continues_from_previous_call(factory, gcc_trace,
                                                   compress_trace):
    """A second ``batch_access``, on another trace, continues from the
    tables the first call left: its predictions and the final tables equal
    the scalar walk over both traces."""
    scalar_pred, batched_pred = factory(), factory()
    expected, actual = [], []
    for trace in (gcc_trace, compress_trace):
        expected.append(scalar_predictions(scalar_pred, trace,
                                           BranchGhistProvider()))
        actual.append(batched_pred.batch_access(
            BranchGhistProvider().materialize(trace)))
    np.testing.assert_array_equal(np.concatenate(actual),
                                  np.concatenate(expected))
    expected_state = table_state(scalar_pred)
    assert expected_state
    assert table_state(batched_pred) == expected_state


def test_batched_falls_back_for_non_batch_capable(gcc_trace):
    predictor = LocalPredictor(1 << 10, 10, 1 << 10)
    assert not isinstance(predictor, BatchCapable)
    result = BatchedEngine().run(predictor, gcc_trace)
    assert result.engine == "scalar"
    reference = ScalarEngine().run(LocalPredictor(1 << 10, 10, 1 << 10),
                                   gcc_trace)
    assert result.mispredictions == reference.mispredictions


def test_batched_handles_shared_hysteresis(gcc_trace):
    """Half-size hysteresis is inside the batched envelope: the compiled
    single-table replay must match the scalar walk bit for bit."""
    factory = lambda: BimodalPredictor(1 << 12, hysteresis_entries=1 << 10)  # noqa: E731
    assert factory().batch_supported()
    scalar, batched = _both_engines(factory, gcc_trace)
    assert batched.engine == "batched"
    assert (batched.mispredictions, batched.branches) == \
        (scalar.mispredictions, scalar.branches)


def test_ev8_table1_batched_strict_bit_identical(gcc_trace):
    """The full EV8 Table 1 configuration — lghist/path provider, EV8 index
    functions, shared G0/Meta hysteresis, partial update — runs entirely
    inside the batched envelope, bit-identical to the scalar walk."""
    from repro.ev8.predictor import EV8BranchPredictor

    scalar_pred = EV8BranchPredictor()
    batched_pred = EV8BranchPredictor()
    scalar = ScalarEngine().run(scalar_pred, gcc_trace,
                                provider=EV8BranchPredictor.make_provider())
    batched = BatchedEngine(strict=True).run(
        batched_pred, gcc_trace, provider=EV8BranchPredictor.make_provider())
    assert batched.engine == "batched"
    assert (batched.mispredictions, batched.branches) == \
        (scalar.mispredictions, scalar.branches)
    # Equivalence extends to the final state of all four tables (G0 and
    # Meta exercise shared hysteresis).
    for table in ("bim", "g0", "g1", "meta"):
        scalar_table = getattr(scalar_pred, table)
        batched_table = getattr(batched_pred, table)
        assert scalar_table._prediction == batched_table._prediction, table
        assert scalar_table._hysteresis == batched_table._hysteresis, table


def test_ev8_batched_strict_bit_identical_with_warmup(compress_trace):
    from repro.ev8.predictor import EV8BranchPredictor

    for warmup in (1, 777, 5000):
        scalar = ScalarEngine().run(
            EV8BranchPredictor(), compress_trace,
            provider=EV8BranchPredictor.make_provider(),
            warmup_branches=warmup)
        batched = BatchedEngine(strict=True).run(
            EV8BranchPredictor(), compress_trace,
            provider=EV8BranchPredictor.make_provider(),
            warmup_branches=warmup)
        assert (batched.mispredictions, batched.branches) == \
            (scalar.mispredictions, scalar.branches), warmup


def test_batched_falls_back_for_unmaterializable_provider(gcc_trace):
    # Histories beyond 64 bits cannot be packed into a uint64 column, so
    # materialize returns None and the engine replays scalar.
    result = BatchedEngine().run(GsharePredictor(1 << 12, 12), gcc_trace,
                                 provider=BlockLghistProvider(capacity=80))
    assert result.engine == "scalar"
    reference = ScalarEngine().run(GsharePredictor(1 << 12, 12), gcc_trace,
                                   provider=BlockLghistProvider(capacity=80))
    assert result.mispredictions == reference.mispredictions


def test_batched_strict_raises_instead_of_falling_back(gcc_trace):
    with pytest.raises(ValueError, match="BatchCapable"):
        BatchedEngine(strict=True).run(LocalPredictor(1 << 10, 10, 1 << 10),
                                       gcc_trace)
    with pytest.raises(ValueError, match="materialize"):
        BatchedEngine(strict=True).run(GsharePredictor(1 << 12, 12),
                                       gcc_trace,
                                       provider=BlockLghistProvider(
                                           capacity=80))


def test_materialized_batch_matches_scalar_provider_walk(gcc_trace):
    """The trace-side vector columns agree with the scalar provider walk."""
    from repro.traces.fetch import fetch_blocks_for

    provider = BranchGhistProvider()
    batch = BranchGhistProvider().materialize(gcc_trace)
    assert batch is not None
    i = 0
    for block in fetch_blocks_for(gcc_trace):
        for vector in provider.begin_block(block):
            assert int(batch.history[i]) == vector.history
            assert int(batch.branch_pc[i]) == vector.branch_pc
            assert int(batch.address[i]) == vector.address
            assert tuple(int(batch.path[d, i])
                         for d in range(batch.path_depth)) == vector.path
            i += 1
        provider.end_block(block)
    assert i == len(batch)


def test_wall_clock_recorded(gcc_trace):
    result = simulate(GsharePredictor(1 << 12, 12), gcc_trace)
    assert result.wall_seconds > 0
    assert result.branches_per_second > 0


def test_get_engine_resolution(monkeypatch):
    assert isinstance(get_engine("scalar"), ScalarEngine)
    assert isinstance(get_engine("batched"), BatchedEngine)
    instance = BatchedEngine(strict=True)
    assert get_engine(instance) is instance
    with pytest.raises(ValueError, match="unknown simulation engine"):
        get_engine("warp-drive")

    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    assert default_engine_name() == "batched"
    assert isinstance(get_engine(None), BatchedEngine)
    monkeypatch.setenv(ENGINE_ENV_VAR, "scalar")
    assert default_engine_name() == "scalar"
    assert isinstance(get_engine(None), ScalarEngine)
    assert sorted(ENGINES) == ["batched", "scalar"]


def test_register_engine(monkeypatch):
    class CountingEngine(ScalarEngine):
        name = "counting"

    register_engine("counting", CountingEngine)
    try:
        assert isinstance(get_engine("counting"), CountingEngine)
    finally:
        ENGINES.pop("counting", None)


def test_simulate_engine_argument_equivalence(gcc_trace):
    scalar = simulate(GsharePredictor(1 << 12, 12), gcc_trace,
                      engine="scalar")
    batched = simulate(GsharePredictor(1 << 12, 12), gcc_trace,
                       engine="batched")
    assert batched.mispredictions == scalar.mispredictions
    assert batched.engine == "batched"


def _make_gshare(history_length: int) -> GsharePredictor:
    """Module-level factory: picklable, as sweep_parallel requires."""
    return GsharePredictor(1 << 12, history_length)


def test_sweep_parallel_matches_serial_sweep(gcc_trace):
    lengths = [4, 8, 12]
    traces = {"gcc": gcc_trace}
    serial = sweep(_make_gshare, lengths, traces, engine="batched")
    parallel = sweep_parallel(_make_gshare, lengths, traces,
                              engine="batched", max_workers=2)
    assert [p.value for p in parallel] == lengths
    for serial_point, parallel_point in zip(serial, parallel):
        assert parallel_point.mean_misp_per_ki == serial_point.mean_misp_per_ki
        assert parallel_point.per_benchmark == serial_point.per_benchmark


def test_sweep_parallel_falls_back_on_unpicklable_factory(gcc_trace):
    traces = {"gcc": gcc_trace}
    factory = lambda length: GsharePredictor(1 << 12, length)  # noqa: E731
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        points = sweep_parallel(factory, [4, 8], traces, max_workers=2)
    assert [p.value for p in points] == [4, 8]


def test_simulation_engine_protocol_repr():
    engine = ScalarEngine()
    assert isinstance(engine, SimulationEngine)
    assert "scalar" in repr(engine)
