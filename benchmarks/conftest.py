"""Shared bench infrastructure.

Every bench reproduces one table or figure of the paper at full scale
(trace length controlled by ``REPRO_TRACE_BRANCHES``, default 300K branches
per benchmark), prints the paper-style result table, records it under
``results/``, and asserts the paper's qualitative findings — who wins, by
roughly what factor, where the crossovers fall.  Absolute misp/KI values
differ from the paper's (different traces), and the assertions are written
with tolerances that reflect that.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

__all__ = ["emit", "run_once"]


def emit(text: str, name: str) -> None:
    """Print a result table and persist it under results/."""
    print()
    print(text)
    try:
        from repro.experiments.common import results_dir
        (results_dir() / f"{name}.txt").write_text(text + "\n")
    except OSError:
        pass


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are minutes-long simulations; one timed round is the
    honest measurement (pytest-benchmark's default calibration would re-run
    them dozens of times).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
