"""Simulation results and the paper's metric.

"The metric used to report the results is mispredictions per 1000
instructions (misp/KI)" — Section 8.1.1.  Accuracy percentages hide the
branch density differences between benchmarks; misp/KI is what the pipeline
actually feels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SimulationResult", "misp_per_ki", "aggregate_misp_per_ki"]


def misp_per_ki(mispredictions: int, instructions: int) -> float:
    """Mispredictions per 1000 instructions."""
    if instructions <= 0:
        raise ValueError(f"instruction count must be positive, got {instructions}")
    return 1000.0 * mispredictions / instructions


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one (predictor, trace) simulation.

    ``wall_seconds`` and ``engine`` are throughput bookkeeping stamped by
    the simulation engine that produced the result; they do not participate
    in the paper's accuracy metrics.  ``cache`` records result-cache
    provenance: ``"off"`` (caching inactive), ``"miss"`` (simulated and
    stored) or ``"hit"`` (loaded from the persistent result cache;
    ``wall_seconds`` is 0.0, since that call simulated nothing).

    ``telemetry`` is the observability snapshot
    (:meth:`repro.obs.Telemetry.snapshot`) stamped when the run executed
    under a recording sink, else ``None``.  Like the throughput fields it
    is bookkeeping, not an accuracy metric: it is excluded from equality so
    instrumented and uninstrumented runs of the same simulation compare
    equal.
    """

    predictor_name: str
    trace_name: str
    branches: int
    mispredictions: int
    instructions: int
    wall_seconds: float = 0.0
    engine: str = "scalar"
    cache: str = "off"
    telemetry: dict | None = field(default=None, compare=False, repr=False)

    @property
    def misp_per_ki(self) -> float:
        """The paper's metric."""
        return misp_per_ki(self.mispredictions, self.instructions)

    @property
    def branches_per_second(self) -> float:
        """Simulation throughput (dynamic branches per wall-clock second)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.branches / self.wall_seconds

    @property
    def misprediction_rate(self) -> float:
        """Fraction of branches mispredicted."""
        if self.branches == 0:
            return 0.0
        return self.mispredictions / self.branches

    @property
    def accuracy(self) -> float:
        """Fraction of branches predicted correctly."""
        return 1.0 - self.misprediction_rate

    def __str__(self) -> str:
        return (f"{self.predictor_name} on {self.trace_name}: "
                f"{self.misp_per_ki:.3f} misp/KI "
                f"({self.misprediction_rate:.2%} of {self.branches} branches)")


def aggregate_misp_per_ki(results: list[SimulationResult]) -> float:
    """Arithmetic mean of misp/KI over benchmarks (the cross-benchmark
    summary used alongside the per-benchmark bars)."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    return sum(result.misp_per_ki for result in results) / len(results)
