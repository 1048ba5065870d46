"""Fig 8: adjusting table sizes — fitting 512 Kbit of accuracy into 352 Kbit.

Starting from the 4 x 64K-entry 2Bc-gskew (512 Kbit), Section 8.4 applies
the two budget reductions that produce the EV8 configuration:

* ``small BIM``  — BIM shrunk from 64K to 16K counters (Section 4.6: the
  bimodal table is used sparsely, one entry per static branch),
* ``EV8 size``   — additionally, half-size hysteresis tables for G0 and
  Meta (Section 4.4): 352 Kbit total.

All three use the EV8 information vector.  Paper findings to reproduce:
"Reducing the size of the BIM table has no impact at all on our benchmark
set. Except for go, the effect of using half size hysteresis tables ... is
barely noticeable" (go has the largest footprint, hence the most aliasing
sensitivity).
"""

from __future__ import annotations

from repro.experiments.common import (
    BEST_HISTORY,
    experiment_traces,
    make_2bc_gskew,
    record_results,
)
from repro.history.providers import ev8_info_provider
from repro.predictors.twobcgskew import SkewedIndexScheme
from repro.sim.compare import ComparisonTable, run_comparison

__all__ = ["run", "render"]


def run(num_branches: int | None = None) -> ComparisonTable:
    """Run the three size configurations of Fig 8."""
    g0, g1, meta = BEST_HISTORY["2bc_64k"]
    traces = experiment_traces(num_branches)

    def scheme():
        return SkewedIndexScheme(use_path_addresses=True)

    configs = {
        "4x64K (512Kb)": lambda: make_2bc_gskew(
            64 * 1024, g0, g1, meta, index_scheme=scheme(),
            name="4x64K"),
        "small BIM (416Kb)": lambda: make_2bc_gskew(
            64 * 1024, g0, g1, meta, bim_entries=16 * 1024,
            index_scheme=scheme(), name="small-BIM"),
        "EV8 size (352Kb)": lambda: make_2bc_gskew(
            64 * 1024, g0, g1, meta, bim_entries=16 * 1024,
            g0_hysteresis=32 * 1024, meta_hysteresis=32 * 1024,
            index_scheme=scheme(), name="EV8-size"),
    }
    table = run_comparison(configs, traces,
                           provider_factory=ev8_info_provider)
    record_results("fig8", table)
    return table


def render(table: ComparisonTable) -> str:
    return table.render(
        "Fig 8: adjusting table sizes in the predictor (EV8 info vector)")
