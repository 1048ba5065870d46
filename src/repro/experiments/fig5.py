"""Fig 5: prediction accuracy of global-history schemes at EV8-class sizes.

Configurations (Section 8.2), each at its best history length:

* 2Bc-gskew, 4 x 32K entries (256 Kbit) and 4 x 64K entries (512 Kbit),
* bi-mode, 2 x 128K direction tables + 16K choice (544 Kbit),
* gshare, 1M entries (2 Mbit),
* YAGS, 288 Kbit and 576 Kbit.

All predictors see conventional per-branch global history (the Fig 5
methodology); misp/KI per benchmark.

Paper findings to reproduce: "at equivalent memorization budget 2Bc-gskew
outperforms the other global history branch predictors except YAGS. There
is no clear winner between the YAGS predictor and 2Bc-gskew."
"""

from __future__ import annotations

from repro.experiments.common import (
    experiment_traces,
    make_fig5_configs,
    record_results,
)
from repro.history.providers import BranchGhistProvider
from repro.sim.compare import ComparisonTable, run_comparison

__all__ = ["run", "render"]


def run(num_branches: int | None = None) -> ComparisonTable:
    """Run the Fig 5 comparison grid."""
    traces = experiment_traces(num_branches)
    table = run_comparison(make_fig5_configs(), traces,
                           provider_factory=BranchGhistProvider)
    record_results("fig5", table)
    return table


def render(table: ComparisonTable) -> str:
    return table.render(
        "Fig 5: branch prediction accuracy for various global history "
        "schemes (misp/KI, best history lengths)")
