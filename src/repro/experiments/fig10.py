"""Fig 10: the limits of (brute-force) global history prediction.

The conclusion asks whether an even larger predictor would have been worth
it: Fig 10 simulates a 4 x 1M-entry 2Bc-gskew (8 Mbit — 23x the EV8 budget)
against the EV8-class predictors.

Paper finding to reproduce: "this brute force approach would have limited
return except for applications with a very large number of branches" — the
giant predictor only visibly helps the large-footprint benchmarks (gcc,
go), everything else is already capacity-saturated.
"""

from __future__ import annotations

from repro.experiments.common import (
    BEST_HISTORY,
    experiment_traces,
    make_2bc_gskew,
    record_results,
)
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import BranchGhistProvider, ev8_info_provider
from repro.sim.compare import ComparisonTable, run_comparison

__all__ = ["run", "render"]


def run(num_branches: int | None = None) -> ComparisonTable:
    """Run the EV8, the 512 Kbit reference, and the 8 Mbit giant."""
    traces = experiment_traces(num_branches)
    g0_64, g1_64, meta_64 = BEST_HISTORY["2bc_64k"]
    g0_1m, g1_1m, meta_1m = BEST_HISTORY["2bc_1m"]
    configs = {
        "EV8 (352Kb)": lambda: EV8BranchPredictor(name="ev8"),
        "2Bc-gskew 4x64K (512Kb)": lambda: make_2bc_gskew(
            64 * 1024, g0_64, g1_64, meta_64, name="4x64K"),
        "2Bc-gskew 4x1M (8Mb)": lambda: make_2bc_gskew(
            1024 * 1024, g0_1m, g1_1m, meta_1m, name="4x1M"),
    }
    providers = {
        "EV8 (352Kb)": ev8_info_provider,
        "2Bc-gskew 4x64K (512Kb)": BranchGhistProvider,
        "2Bc-gskew 4x1M (8Mb)": BranchGhistProvider,
    }
    table = run_comparison(configs, traces, provider_factories=providers)
    record_results("fig10", table)
    return table


def render(table: ComparisonTable) -> str:
    return table.render("Fig 10: limits of using global history")


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
