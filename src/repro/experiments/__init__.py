"""Experiment implementations: one module per paper table/figure.

Each module exposes ``run(num_branches=None)`` returning a result object and
``render(result)`` producing the paper-style textual table.  The benches in
``benchmarks/`` drive these and assert the qualitative shapes.
"""

from repro.experiments import (  # noqa: F401 (re-exported modules)
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table2,
    table3,
)
from repro.experiments.common import (
    BEST_HISTORY,
    experiment_traces,
    make_2bc_gskew,
    make_fig5_configs,
    record_results,
    results_dir,
)
from repro.experiments.report import render_delta_table, render_table

__all__ = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2", "table3",
    "BEST_HISTORY", "experiment_traces", "make_2bc_gskew",
    "make_fig5_configs", "record_results", "results_dir",
    "render_delta_table", "render_table",
]
