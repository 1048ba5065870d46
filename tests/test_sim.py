"""Tests for the simulation layer: driver, metrics, comparisons, sweeps."""

from dataclasses import replace

import pytest

from conftest import simple_loop_trace
from repro.history.providers import BlockLghistProvider, BranchGhistProvider
from repro.predictors import BimodalPredictor, GsharePredictor
from repro.sim.compare import run_comparison
from repro.sim.driver import simulate
from repro.sim.metrics import (
    SimulationResult,
    aggregate_misp_per_ki,
    misp_per_ki,
)
from repro.sim.sweep import best_history_length, sweep


class TestMetrics:
    def test_misp_per_ki(self):
        assert misp_per_ki(5, 1000) == 5.0
        assert misp_per_ki(0, 100) == 0.0

    def test_misp_per_ki_validation(self):
        with pytest.raises(ValueError):
            misp_per_ki(1, 0)

    def test_result_properties(self):
        result = SimulationResult("p", "t", branches=200, mispredictions=20,
                                  instructions=2000)
        assert result.misp_per_ki == 10.0
        assert result.misprediction_rate == 0.1
        assert result.accuracy == 0.9
        assert "p on t" in str(result)

    def test_zero_branches(self):
        result = SimulationResult("p", "t", 0, 0, 100)
        assert result.misprediction_rate == 0.0

    def test_aggregate(self):
        results = [SimulationResult("p", "a", 10, 1, 1000),
                   SimulationResult("p", "b", 10, 3, 1000)]
        assert aggregate_misp_per_ki(results) == 2.0
        with pytest.raises(ValueError):
            aggregate_misp_per_ki([])


class TestDriver:
    def test_counts_add_up(self):
        trace = simple_loop_trace(iterations=100)
        result = simulate(BimodalPredictor(64), trace)
        assert result.branches == 100
        assert result.instructions == trace.instruction_count
        assert 0 <= result.mispredictions <= result.branches

    def test_bimodal_on_loop_converges(self):
        # Always-taken loop branch: only cold-start mispredictions.
        trace = simple_loop_trace(iterations=500,
                                  taken_pattern=[True])
        result = simulate(BimodalPredictor(64), trace)
        assert result.mispredictions <= 2

    def test_default_provider_is_per_branch_ghist(self):
        trace = simple_loop_trace(iterations=300,
                                  taken_pattern=[True, False])
        # gshare with history 1 nails the alternating pattern.
        result = simulate(GsharePredictor(256, 1), trace)
        assert result.misprediction_rate < 0.05

    def test_block_provider_supported(self):
        trace = simple_loop_trace(iterations=300, taken_pattern=[True])
        result = simulate(GsharePredictor(256, 4), trace,
                          BlockLghistProvider())
        assert result.misprediction_rate < 0.05

    def test_warmup_excluded(self):
        trace = simple_loop_trace(iterations=100, taken_pattern=[True])
        result = simulate(BimodalPredictor(64), trace, warmup_branches=50)
        assert result.branches == 50
        assert result.mispredictions == 0  # the cold misses fell in warmup

    def test_deterministic(self, compress_trace):
        a = simulate(GsharePredictor(1 << 14, 10), compress_trace)
        b = simulate(GsharePredictor(1 << 14, 10), compress_trace)
        assert a.mispredictions == b.mispredictions


class TestComparison:
    def test_grid_and_rendering(self, compress_trace, vortex_trace):
        configs = {
            "bimodal": lambda: BimodalPredictor(1 << 14),
            "gshare": lambda: GsharePredictor(1 << 14, 8),
        }
        traces = {"compress": compress_trace, "vortex": vortex_trace}
        table = run_comparison(configs, traces,
                               provider_factory=BranchGhistProvider)
        assert table.config_names == ["bimodal", "gshare"]
        assert table.benchmark_names == ["compress", "vortex"]
        assert table.misp_per_ki("gshare", "compress") > 0
        series = table.series("bimodal")
        assert len(series) == 2
        assert table.mean("bimodal") == pytest.approx(sum(series) / 2)
        rendered = table.render("title")
        assert "title" in rendered
        assert "compress" in rendered and "amean" in rendered
        dumped = table.to_dict()
        assert dumped["misp_per_ki"]["gshare"]["vortex"] == pytest.approx(
            table.misp_per_ki("gshare", "vortex"))

    def test_table_matches_a_config_major_serial_run(
            self, compress_trace, vortex_trace, tmp_path, monkeypatch):
        # The grid runs trace-major on threads; the table must still be
        # what one simulate call per cell, config-major, would fill in,
        # down to which repeat of a configuration is the cache hit.
        configs = {
            "gshare": lambda: GsharePredictor(1 << 12, 8),
            "bimodal": lambda: BimodalPredictor(1 << 12),
            "gshare again": lambda: GsharePredictor(1 << 12, 8,
                                                    name="again"),
        }
        traces = {"vortex": vortex_trace, "compress": compress_trace}

        def untimed(results):
            return {config: {name: replace(result, wall_seconds=0.0)
                             for name, result in row.items()}
                    for config, row in results.items()}

        for use_cache in (False, True):
            monkeypatch.setenv("REPRO_RESULT_CACHE_DIR",
                               str(tmp_path / f"grid-{use_cache}"))
            table = run_comparison(configs, traces,
                                   provider_factory=BranchGhistProvider,
                                   engine="batched", use_cache=use_cache)
            monkeypatch.setenv("REPRO_RESULT_CACHE_DIR",
                               str(tmp_path / f"serial-{use_cache}"))
            serial = {config: {name: simulate(make(), trace,
                                              BranchGhistProvider(),
                                              engine="batched",
                                              use_cache=use_cache)
                               for name, trace in traces.items()}
                      for config, make in configs.items()}
            assert table.config_names == list(configs)
            assert table.benchmark_names == list(traces)
            assert list(table.cells) == list(configs)
            assert all(list(row) == list(traces)
                       for row in table.cells.values())
            assert untimed(table.cells) == untimed(serial)
        assert table.grid("cache")["gshare again"] == {"vortex": "hit",
                                                       "compress": "hit"}

    def test_per_config_providers(self, compress_trace):
        configs = {
            "ghist": lambda: GsharePredictor(1 << 12, 8),
            "lghist": lambda: GsharePredictor(1 << 12, 8),
        }
        providers = {
            "ghist": BranchGhistProvider,
            "lghist": BlockLghistProvider,
        }
        table = run_comparison(configs, {"compress": compress_trace},
                               provider_factories=providers)
        # Different information vectors must give different (but close)
        # results on a nontrivial trace.
        assert table.misp_per_ki("ghist", "compress") != \
            table.misp_per_ki("lghist", "compress")


class TestSweep:
    def test_sweep_points(self, compress_trace):
        points = sweep(lambda h: GsharePredictor(1 << 12, h), [0, 4, 8],
                       {"compress": compress_trace})
        assert [point.value for point in points] == [0, 4, 8]
        assert all(point.mean_misp_per_ki > 0 for point in points)
        assert all("compress" in point.per_benchmark for point in points)

    def test_best_history_length(self, compress_trace):
        best = best_history_length(lambda h: GsharePredictor(1 << 12, h),
                                   [0, 4, 8], {"compress": compress_trace})
        assert best.value in (0, 4, 8)
        # History must help on this workload.
        zero = sweep(lambda h: GsharePredictor(1 << 12, h), [0],
                     {"compress": compress_trace})[0]
        assert best.mean_misp_per_ki <= zero.mean_misp_per_ki

    def test_empty_sweep_rejected(self, compress_trace):
        with pytest.raises(ValueError):
            best_history_length(lambda h: GsharePredictor(64, h), [],
                                {"compress": compress_trace})
