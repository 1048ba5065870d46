"""Run every experiment and write a consolidated Markdown report.

``python -m repro.experiments.runall [--branches N] [--output FILE]``
regenerates the measured sections of EXPERIMENTS.md from scratch.  The
report interleaves, for every table and figure, the paper's qualitative
finding and the measured reproduction.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

from repro.experiments import (
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    table2,
    table3,
)
from repro.obs import NullTelemetry, Telemetry, render_summary, use_telemetry
from repro.sim.result_cache import (CACHE_DIR_ENV_VAR, CACHE_ENV_VAR,
                                    cache_enabled)
from repro.workloads.spec95 import default_trace_branches

__all__ = ["run_all", "main"]

_SECTIONS = (
    ("Table 2 — benchmark characteristics", table2,
     "The synthetic stand-ins preserve the published footprints and branch "
     "densities."),
    ("Table 3 — lghist/ghist ratio", table3,
     "One lghist bit summarises more than one branch on every benchmark."),
    ("Fig 5 — global-history schemes at EV8-class sizes", fig5,
     "2Bc-gskew and YAGS lead; gshare trails despite the largest budget."),
    ("Fig 6 — cost of log2(size) history", fig6,
     "Clamping the history to the table index width costs mispredictions "
     "for the long-history schemes."),
    ("Fig 7 — information vector", fig7,
     "Block-compressed lghist approaches full branch history; path bits "
     "help; three-blocks-old history costs little."),
    ("Fig 8 — table size reductions", fig8,
     "The small BIM is free; half-size hysteresis is barely noticeable: "
     "512 Kbit accuracy in 352 Kbit."),
    ("Fig 9 — wordline indices", fig9,
     "History bits in the shared unhashed index beat address-only "
     "selection; the constrained functions match complete hashing."),
    ("Fig 10 — limits of global history", fig10,
     "An 8 Mbit predictor returns little over 512 Kbit."),
)


@contextmanager
def _result_cache(use_cache: bool):
    """Route every simulation of the run through a result cache (see
    :func:`run_all`).  Experiment modules resolve ``use_cache=None``
    through the environment, so the two variables are set for the run and
    restored afterwards."""
    saved = {name: os.environ.get(name)
             for name in (CACHE_ENV_VAR, CACHE_DIR_ENV_VAR)}
    private = not use_cache or (saved[CACHE_ENV_VAR] is not None
                                and not cache_enabled())
    with ExitStack() as stack:
        os.environ[CACHE_ENV_VAR] = "1"
        if private:
            os.environ[CACHE_DIR_ENV_VAR] = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-results-"))
        try:
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


def run_all(num_branches: int | None = None, use_cache: bool = True,
            telemetry: NullTelemetry | None = None) -> str:
    """Run every experiment; return the consolidated Markdown report.

    Every section runs on the library's default engine (``batched``, or
    whatever ``REPRO_SIM_ENGINE`` names) through a result cache, so each
    distinct cell simulates once however many figures show it (Fig 6's
    best grid is Fig 5's; Fig 9's "4x64K ghist" is Fig 5's
    2Bc-gskew-512Kb).  With ``use_cache`` (and ``REPRO_RESULT_CACHE``
    unset or true) that is the persistent cache, so a repeated invocation
    skips every unchanged simulation; otherwise it is a private temporary
    directory deleted when the run ends, whatever
    ``REPRO_RESULT_CACHE_DIR`` names.

    A recording ``telemetry`` sink is installed as the process-global
    active sink for the duration (so every simulation, trace-cache and
    result-cache access records into it) and its summary table is appended
    to the report.
    """
    branches = num_branches or default_trace_branches()
    lines = [
        "# Measured reproduction report",
        "",
        f"Trace length: {branches} conditional branches per benchmark; "
        f"trace-driven simulation with immediate update; misp/KI "
        f"everywhere.",
        "",
    ]
    with _result_cache(use_cache), use_telemetry(telemetry) as sink:
        for title, module, finding in _SECTIONS:
            started = time.perf_counter()
            with sink.span(module.__name__.rsplit(".", 1)[-1]):
                result = module.run(num_branches)
            rendered = module.render(result)
            lines.append(f"## {title}")
            lines.append("")
            lines.append(f"*Paper finding:* {finding}")
            lines.append("")
            lines.append("```")
            lines.append(rendered)
            lines.append("```")
            lines.append(f"*({time.perf_counter() - started:.0f}s)*")
            lines.append("")
        if sink.enabled:
            lines.append("## Telemetry summary")
            lines.append("")
            lines.append("```")
            lines.append(render_summary(sink.snapshot()))
            lines.append("```")
            lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--branches", type=int, default=None)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report to a file instead of stdout")
    parser.add_argument("--no-cache", action="store_true",
                        help="simulate through a private result cache "
                             "deleted on exit instead of the persistent "
                             "one")
    parser.add_argument("--telemetry", type=Path, default=None,
                        metavar="FILE",
                        help="record telemetry and write it to FILE "
                             "(.csv for CSV, anything else for JSON)")
    args = parser.parse_args(argv)
    sink = Telemetry() if args.telemetry else None
    report = run_all(args.branches, use_cache=not args.no_cache,
                     telemetry=sink)
    if sink is not None:
        sink.write(args.telemetry)
        print(f"wrote telemetry to {args.telemetry}")
    if args.output:
        args.output.write_text(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
