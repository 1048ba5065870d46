"""Fig 6: the cost of clamping history length to log2(table size).

Most pre-EV8 studies assumed global history no longer than the table index.
Section 5.3 argues that for large predictors this is "far from optimal".
Fig 6 re-runs every Fig 5 configuration with history length = log2(table
entries) and reports the *additional* mispredictions versus the best history
length.

Paper finding to reproduce: the additional mispredictions are positive
(almost) everywhere — "predictors featuring a large number of entries need
very long history length, and log2(table size) history is suboptimal".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    experiment_traces,
    make_fig5_configs,
    record_results,
)
from repro.experiments.report import render_delta_table
from repro.history.providers import BranchGhistProvider
from repro.sim.compare import ComparisonTable, run_comparison

__all__ = ["Fig6Result", "run", "render"]


@dataclass(frozen=True)
class Fig6Result:
    best: ComparisonTable
    limited: ComparisonTable

    def additional(self, config: str, benchmark: str) -> float:
        """Additional misp/KI incurred by the clamped history."""
        return (self.limited.misp_per_ki(config, benchmark)
                - self.best.misp_per_ki(config, benchmark))

    def mean_additional(self, config: str) -> float:
        values = [self.additional(config, benchmark)
                  for benchmark in self.best.benchmark_names]
        return sum(values) / len(values)


def run(num_branches: int | None = None) -> Fig6Result:
    """Run both the best-history and clamped-history grids."""
    traces = experiment_traces(num_branches)
    best = run_comparison(make_fig5_configs(limited=False), traces,
                          provider_factory=BranchGhistProvider)
    limited = run_comparison(make_fig5_configs(limited=True), traces,
                             provider_factory=BranchGhistProvider)
    result = Fig6Result(best=best, limited=limited)
    record_results("fig6", {
        "best": best.to_dict(), "limited": limited.to_dict(),
        "additional": {
            config: {benchmark: result.additional(config, benchmark)
                     for benchmark in best.benchmark_names}
            for config in best.config_names
        },
    })
    return result


def render(result: Fig6Result) -> str:
    base = {config: {benchmark: result.best.misp_per_ki(config, benchmark)
                     for benchmark in result.best.benchmark_names}
            for config in result.best.config_names}
    other = {config: {benchmark: result.limited.misp_per_ki(config, benchmark)
                      for benchmark in result.best.benchmark_names}
             for config in result.best.config_names}
    return render_delta_table(
        "Fig 6: additional mispredictions when using log2(table size) "
        "history length", result.best.benchmark_names, base, other)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
