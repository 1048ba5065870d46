"""Table 3: the lghist/ghist compression ratio.

One lghist bit is inserted per fetch block containing a conditional branch
(Section 5.1), so one lghist bit represents on average
``dynamic branches / inserted bits`` branches — more than 1 wherever
not-taken branches share fetch blocks.  The paper's Table 3 reports ratios
between 1.12 (go) and 1.59 (vortex); Section 8.3 uses them to argue that the
information lost by compression is balanced by each lghist bit covering more
branches ("for vortex the 23 lghist bits represent on average 36 branches").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import experiment_traces, record_results
from repro.traces.stats import compute_statistics
from repro.workloads.spec95 import SPEC95_BENCHMARKS

__all__ = ["Table3Result", "PAPER_TABLE3", "run", "render"]

PAPER_TABLE3 = {
    "compress": 1.24, "gcc": 1.57, "go": 1.12, "ijpeg": 1.20,
    "li": 1.55, "m88ksim": 1.53, "perl": 1.32, "vortex": 1.59,
}
"""Table 3 of the paper, verbatim."""


@dataclass(frozen=True)
class Table3Result:
    ratios: dict[str, float]

    def mean(self) -> float:
        return sum(self.ratios.values()) / len(self.ratios)


def run(num_branches: int | None = None) -> Table3Result:
    """Measure the lghist/ghist ratio on the standard traces."""
    traces = experiment_traces(num_branches)
    ratios = {name: compute_statistics(trace).lghist_to_ghist_ratio
              for name, trace in traces.items()}
    record_results("table3", {"measured": ratios, "paper": PAPER_TABLE3})
    return Table3Result(ratios)


def render(result: Table3Result) -> str:
    lines = ["Table 3: ratio lghist/ghist (branches represented per lghist bit)",
             f"{'benchmark':<10}{'ours':>8}{'paper':>8}"]
    lines.append("-" * len(lines[1]))
    for name in SPEC95_BENCHMARKS:
        lines.append(f"{name:<10}{result.ratios[name]:>8.2f}"
                     f"{PAPER_TABLE3[name]:>8.2f}")
    lines.append("-" * len(lines[1]))
    paper_mean = sum(PAPER_TABLE3.values()) / len(PAPER_TABLE3)
    lines.append(f"{'amean':<10}{result.mean():>8.2f}{paper_mean:>8.2f}")
    return "\n".join(lines)
