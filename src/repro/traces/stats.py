"""Trace statistics backing Table 2 and Table 3 of the paper.

* Table 2 reports, per benchmark, the number of dynamic conditional branches
  (in thousands) and static conditional branches in a 100M-instruction trace.
* Table 3 reports the ratio *lghist/ghist*: the average number of conditional
  branches represented by one lghist bit.  One lghist bit is inserted per
  fetch block containing at least one conditional branch (Section 5.1), so
  the ratio equals ``dynamic conditional branches / lghist bits inserted``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.fetch import block_geometry
from repro.traces.model import Trace

__all__ = ["TraceStatistics", "compute_statistics"]


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of one dynamic trace."""

    name: str
    instruction_count: int
    dynamic_conditional: int
    static_conditional: int
    taken_rate: float
    fetch_block_count: int
    lghist_bits: int
    """Number of lghist bits the trace inserts (fetch blocks containing at
    least one conditional branch)."""

    @property
    def dynamic_conditional_thousands(self) -> float:
        """Table 2's "dyn. cond. branches (x1000)" column."""
        return self.dynamic_conditional / 1000.0

    @property
    def branches_per_kilo_instruction(self) -> float:
        """Dynamic conditional branches per 1000 instructions."""
        if self.instruction_count == 0:
            return 0.0
        return 1000.0 * self.dynamic_conditional / self.instruction_count

    @property
    def lghist_to_ghist_ratio(self) -> float:
        """Table 3's ratio: conditional branches represented per lghist bit.

        Conventional ghist inserts one bit per conditional branch; lghist
        inserts one bit per branch-containing fetch block, so each lghist
        bit summarises this many branches on average.
        """
        if self.lghist_bits == 0:
            return 0.0
        return self.dynamic_conditional / self.lghist_bits

    @property
    def instructions_per_branch(self) -> float:
        """Average dynamic instructions between conditional branches."""
        if self.dynamic_conditional == 0:
            return float(self.instruction_count)
        return self.instruction_count / self.dynamic_conditional


def _runs(values: np.ndarray) -> int:
    """Runs of equal values in a sorted array (0 when it is empty)."""
    return min(len(values), 1) + int(np.count_nonzero(np.diff(values)))


def compute_statistics(trace: Trace) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for a trace, memoised on the trace."""
    return trace.derived("statistics", _statistics)


def _statistics(trace: Trace) -> TraceStatistics:
    """Block ordinals never decrease along the trace, so the branch-holding
    blocks are the ordinal runs, and the static PCs the sorted-PC runs."""
    branch_pcs, _, ordinals, block_starts = block_geometry(trace)
    return TraceStatistics(
        name=trace.name,
        instruction_count=trace.instruction_count,
        dynamic_conditional=trace.conditional_count,
        static_conditional=_runs(np.sort(branch_pcs)),
        taken_rate=trace.taken_rate(),
        fetch_block_count=len(block_starts),
        lghist_bits=_runs(ordinals),
    )
