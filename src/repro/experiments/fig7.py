"""Fig 7: impact of the information vector on prediction accuracy.

The predictor is held fixed (4 x 64K-entry 2Bc-gskew, unconstrained
indexing); the *information vector* varies (Section 8.3):

* ``ghist``           — conventional per-branch global history,
* ``lghist, no path`` — one bit per fetch block, outcome only,
* ``lghist + path``   — the outcome bit XORed with PC bit 4,
* ``3-old lghist``    — the same, three fetch blocks old,
* ``EV8 info vector`` — 3-old lghist + the addresses of the three most
  recent fetch blocks folded into the index.

Paper findings to reproduce: lghist performs on par with ghist; embedding
path information is generally beneficial; three-blocks-old history degrades
slightly; adding the three block addresses recovers most of the loss — the
EV8 vector lands approximately at the unconstrained ghist level.
"""

from __future__ import annotations

from repro.experiments.common import (
    BEST_HISTORY,
    experiment_traces,
    make_2bc_gskew,
    record_results,
)
from repro.history.providers import BlockLghistProvider, BranchGhistProvider
from repro.predictors.twobcgskew import SkewedIndexScheme
from repro.sim.compare import ComparisonTable, run_comparison

__all__ = ["CONFIG_ORDER", "run", "render"]

CONFIG_ORDER = ("ghist", "lghist, no path", "lghist + path", "3-old lghist",
                "EV8 info vector")


def _predictor_factory(use_path_addresses: bool = False, name: str = ""):
    g0, g1, meta = BEST_HISTORY["2bc_64k"]
    scheme = SkewedIndexScheme(use_path_addresses=use_path_addresses)
    return lambda: make_2bc_gskew(64 * 1024, g0, g1, meta,
                                  index_scheme=scheme, name=name)


def run(num_branches: int | None = None) -> ComparisonTable:
    """Run the five information-vector variants."""
    traces = experiment_traces(num_branches)
    configs = {
        "ghist": _predictor_factory(name="ghist"),
        "lghist, no path": _predictor_factory(name="lghist-nopath"),
        "lghist + path": _predictor_factory(name="lghist-path"),
        "3-old lghist": _predictor_factory(name="lghist-3old"),
        "EV8 info vector": _predictor_factory(use_path_addresses=True,
                                              name="ev8-vector"),
    }
    providers = {
        "ghist": BranchGhistProvider,
        "lghist, no path": lambda: BlockLghistProvider(include_path=False),
        "lghist + path": lambda: BlockLghistProvider(include_path=True),
        "3-old lghist": lambda: BlockLghistProvider(include_path=True,
                                                    delay_blocks=3),
        "EV8 info vector": lambda: BlockLghistProvider(include_path=True,
                                                       delay_blocks=3),
    }
    table = run_comparison(configs, traces, provider_factories=providers)
    record_results("fig7", table)
    return table


def render(table: ComparisonTable) -> str:
    return table.render(
        "Fig 7: impact of the information vector on branch prediction "
        "accuracy (4x64K 2Bc-gskew)")


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
