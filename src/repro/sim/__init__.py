"""Trace-driven simulation: engines, driver, metrics, comparisons, sweeps."""

from repro.sim.compare import ComparisonTable, run_comparison
from repro.sim.driver import simulate
from repro.sim.engine import (
    ENGINES,
    BatchedEngine,
    ScalarEngine,
    SimulationEngine,
    default_engine_name,
    get_engine,
)
from repro.sim.interference import InterferenceReport, measure_interference
from repro.sim.metrics import (
    SimulationResult,
    aggregate_misp_per_ki,
    misp_per_ki,
)
from repro.sim.sweep import (
    SweepPoint,
    best_history_length,
    sweep,
    sweep_parallel,
)

__all__ = [
    "ComparisonTable",
    "run_comparison",
    "simulate",
    "ENGINES",
    "BatchedEngine",
    "ScalarEngine",
    "SimulationEngine",
    "default_engine_name",
    "get_engine",
    "InterferenceReport",
    "measure_interference",
    "SimulationResult",
    "aggregate_misp_per_ki",
    "misp_per_ki",
    "SweepPoint",
    "best_history_length",
    "sweep",
    "sweep_parallel",
]
