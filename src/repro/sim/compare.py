"""Multi-predictor, multi-benchmark comparison runs.

Every evaluation figure in the paper is a grid: predictors (or predictor
configurations) x benchmarks, measured in misp/KI.  :func:`run_comparison`
produces that grid; :class:`ComparisonTable` holds it and renders the same
rows/series the paper's bar charts report.

Predictors and providers are passed as *factories* because every
(configuration, benchmark) cell needs fresh state.  The cells run through
:func:`repro.sim.sweep.run_cells` on one thread per CPU: the calling
thread keys each cell and answers result-cache hits, and only the
simulations go to the threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.history.providers import HistoryProvider
from repro.predictors.base import Predictor
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import SimulationResult
from repro.sim.sweep import Cell, run_cells
from repro.traces.model import Trace

__all__ = ["ComparisonTable", "run_comparison"]

PredictorFactory = Callable[[], Predictor]
ProviderFactory = Callable[[], HistoryProvider]


@dataclass
class ComparisonTable:
    """misp/KI results for configurations x benchmarks.

    ``cells[config_name][benchmark_name]`` is a
    :class:`~repro.sim.metrics.SimulationResult`.
    """

    config_names: list[str]
    benchmark_names: list[str]
    cells: dict[str, dict[str, SimulationResult]] = field(default_factory=dict)

    def result(self, config: str, benchmark: str) -> SimulationResult:
        return self.cells[config][benchmark]

    def misp_per_ki(self, config: str, benchmark: str) -> float:
        return self.cells[config][benchmark].misp_per_ki

    def series(self, config: str) -> list[float]:
        """misp/KI across benchmarks for one configuration (one bar series
        of a paper figure)."""
        return [self.misp_per_ki(config, benchmark)
                for benchmark in self.benchmark_names]

    def mean(self, config: str) -> float:
        """Arithmetic-mean misp/KI over benchmarks for one configuration."""
        series = self.series(config)
        return sum(series) / len(series)

    def grid(self, field: str) -> dict[str, dict[str, object]]:
        """One :class:`~repro.sim.metrics.SimulationResult` field of every
        cell, ``{config: {benchmark: value}}``."""
        return {config: {benchmark: getattr(self.cells[config][benchmark],
                                            field)
                         for benchmark in self.benchmark_names}
                for config in self.config_names}

    def render(self, title: str = "", precision: int = 3) -> str:
        """ASCII table: one row per benchmark, one column per config, plus
        an arithmetic-mean row — the textual equivalent of the paper's bar
        charts."""
        # Imported here: repro.experiments imports this module.
        from repro.experiments.report import render_table
        return render_table(title, self.benchmark_names,
                            self.grid("misp_per_ki"), precision, unit=None)

    def to_dict(self) -> dict:
        """JSON-friendly dump (used by the bench harness to record runs)."""
        return {"configs": self.config_names,
                "benchmarks": self.benchmark_names,
                **{field: self.grid(field) for field in
                   ("misp_per_ki", "wall_seconds", "engine", "cache")}}


def run_comparison(configs: dict[str, PredictorFactory],
                   traces: dict[str, Trace],
                   provider_factory: ProviderFactory | None = None,
                   provider_factories: dict[str, ProviderFactory] | None = None,
                   engine: str | SimulationEngine | None = None,
                   use_cache: bool | None = None,
                   ) -> ComparisonTable:
    """Simulate every configuration on every trace.

    ``provider_factory`` applies to all configurations; alternatively
    ``provider_factories`` maps configuration name to its own provider
    factory (Fig 7 varies the information vector per configuration while
    the predictor stays fixed).  ``engine`` selects the simulation engine
    for every cell (name, instance, or None for the environment default);
    ``use_cache`` opts the cells into the persistent result cache (None
    defers to ``REPRO_RESULT_CACHE``).  The cells run through
    :func:`repro.sim.sweep.run_cells` on one thread per CPU, trace-major
    (every configuration on the first trace, then the next trace), so the
    threads share one trace's materialized batches at a time; the table
    is config-major, as a serial config-major run would fill it.
    """
    providers = (provider_factories if provider_factories is not None
                 else dict.fromkeys(configs, provider_factory))
    cells = [Cell(make_predictor, providers[config], trace)
             for trace in traces.values()
             for config, make_predictor in configs.items()]
    results = run_cells(cells, engine, use_cache)
    table = ComparisonTable(config_names=list(configs),
                            benchmark_names=list(traces))
    table.cells = {config: dict(zip(traces, results[index::len(configs)]))
                   for index, config in enumerate(configs)}
    return table
