"""Table 2: benchmark characteristics.

The paper's Table 2 reports, for 100M-instruction Atom traces of SPECINT95:
dynamic conditional branches (x1000) and static conditional branches.  We
report the same columns for the synthetic stand-in traces, plus the derived
branch density (branches per 1000 instructions) against the density implied
by the paper's numbers — the calibration target of
:mod:`repro.workloads.spec95`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import experiment_traces, record_results
from repro.traces.stats import TraceStatistics, compute_statistics
from repro.workloads.spec95 import (
    SPEC95_BENCHMARKS,
    TABLE2_DYNAMIC_PER_KI,
    TABLE2_STATIC_BRANCHES,
)

__all__ = ["Table2Result", "run", "render"]

PAPER_TABLE2 = {
    # benchmark: (dynamic conditional branches x1000, static branches)
    "compress": (12044, 46), "gcc": (16035, 12086), "go": (11285, 3710),
    "ijpeg": (8894, 904), "li": (16254, 251), "m88ksim": (9706, 409),
    "perl": (13263, 273), "vortex": (12757, 2239),
}
"""Table 2 of the paper, verbatim."""


@dataclass(frozen=True)
class Table2Result:
    """Per-benchmark measured statistics plus the paper's reference values."""

    statistics: dict[str, TraceStatistics]

    def rows(self) -> list[dict]:
        rows = []
        for name in SPEC95_BENCHMARKS:
            stats = self.statistics[name]
            paper_dynamic, paper_static = PAPER_TABLE2[name]
            rows.append({
                "benchmark": name,
                "dynamic_thousands": stats.dynamic_conditional_thousands,
                "static": stats.static_conditional,
                "branches_per_ki": stats.branches_per_kilo_instruction,
                "paper_dynamic_thousands": paper_dynamic,
                "paper_static": paper_static,
                "paper_branches_per_ki": TABLE2_DYNAMIC_PER_KI[name],
            })
        return rows


def run(num_branches: int | None = None) -> Table2Result:
    """Compute Table 2 statistics for the standard traces."""
    traces = experiment_traces(num_branches)
    result = Table2Result({name: compute_statistics(trace)
                           for name, trace in traces.items()})
    record_results("table2", {
        row["benchmark"]: {key: value for key, value in row.items()
                           if key != "benchmark"}
        for row in result.rows()
    })
    return result


def render(result: Table2Result) -> str:
    """Paper-style Table 2, ours beside the paper's."""
    lines = ["Table 2: benchmark characteristics "
             "(ours measured on synthetic traces | paper on 100M-instr Atom traces)",
             f"{'benchmark':<10}{'dyn(x1000)':>12}{'static':>8}"
             f"{'br/KI':>8}{'paper dyn':>11}{'paper stat':>11}{'paper br/KI':>12}"]
    lines.append("-" * len(lines[1]))
    for row in result.rows():
        lines.append(
            f"{row['benchmark']:<10}{row['dynamic_thousands']:>12.1f}"
            f"{row['static']:>8d}{row['branches_per_ki']:>8.1f}"
            f"{row['paper_dynamic_thousands']:>11d}"
            f"{row['paper_static']:>11d}"
            f"{row['paper_branches_per_ki']:>12.1f}")
    return "\n".join(lines)
