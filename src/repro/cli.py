"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the EV8 configuration (Table 1) and the library inventory.
``simulate``
    Run one predictor over one benchmark trace.
``table2`` / ``table3`` / ``fig5`` ... ``fig10``
    Run one paper experiment and print the paper-style table.
``sweep``
    Sweep a gshare history length over one benchmark (quick exploration).
"""

from __future__ import annotations

import argparse
import sys

from repro.workloads.spec95 import SPEC95_BENCHMARKS

__all__ = ["main", "build_parser"]

_EXPERIMENTS = ("table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9",
                "fig10")

_PREDICTOR_CHOICES = ("ev8", "2bc-gskew", "egskew", "gshare", "bimodal",
                      "bimode", "yags", "agree", "gas", "local",
                      "tournament", "perceptron")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Alpha EV8 branch predictor reproduction (Seznec et "
                    "al., ISCA 2002)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the EV8 configuration and inventory")

    simulate = sub.add_parser("simulate",
                              help="run one predictor on one benchmark")
    simulate.add_argument("predictor", choices=_PREDICTOR_CHOICES)
    simulate.add_argument("benchmark", choices=SPEC95_BENCHMARKS)
    simulate.add_argument("--branches", type=int, default=100_000,
                          help="trace length in conditional branches")
    simulate.add_argument("--telemetry", default=None, metavar="FILE",
                          help="record telemetry; write it to FILE "
                               "(.csv for CSV, else JSON) and print the "
                               "summary table")

    for name in _EXPERIMENTS:
        experiment = sub.add_parser(
            name, help=f"run the paper's {name} experiment")
        experiment.add_argument("--branches", type=int, default=None,
                                help="trace length per benchmark")
        experiment.add_argument("--telemetry", default=None, metavar="FILE",
                                help="record telemetry across the "
                                     "experiment; write it to FILE (.csv "
                                     "for CSV, else JSON)")

    sweep = sub.add_parser("sweep", help="gshare history-length sweep")
    sweep.add_argument("benchmark", choices=SPEC95_BENCHMARKS)
    sweep.add_argument("--entries", type=int, default=64 * 1024)
    sweep.add_argument("--branches", type=int, default=100_000)
    sweep.add_argument("--lengths", type=int, nargs="+",
                       default=[0, 4, 8, 12, 16, 20])
    sweep.add_argument("--workers", type=int, default=1,
                       help="threads; more than one runs the sweep's "
                            "cells side by side in this process")
    return parser


def _make_predictor(name: str):
    from repro import (
        AgreePredictor, BiModePredictor, BimodalPredictor,
        EGskewPredictor, EV8BranchPredictor, GAsPredictor, GsharePredictor,
        LocalPredictor, PerceptronPredictor, TableConfig,
        TournamentPredictor, TwoBcGskewPredictor, YagsPredictor)
    factories = {
        "ev8": EV8BranchPredictor,
        "2bc-gskew": lambda: TwoBcGskewPredictor(
            TableConfig(16 * 1024, 0), TableConfig(64 * 1024, 13),
            TableConfig(64 * 1024, 21), TableConfig(64 * 1024, 15)),
        "egskew": lambda: EGskewPredictor(64 * 1024, 16),
        "gshare": lambda: GsharePredictor(256 * 1024, 12),
        "bimodal": lambda: BimodalPredictor(64 * 1024),
        "bimode": lambda: BiModePredictor(128 * 1024, 16 * 1024, 17),
        "yags": lambda: YagsPredictor(32 * 1024, 32 * 1024, 15),
        "agree": lambda: AgreePredictor(128 * 1024, 16 * 1024, 12),
        "gas": lambda: GAsPredictor(256 * 1024, 10),
        "local": lambda: LocalPredictor(1024, 10, 64 * 1024),
        "tournament": TournamentPredictor,
        "perceptron": lambda: PerceptronPredictor(1024, 24),
    }
    return factories[name]()


def _command_info() -> int:
    from repro import EV8_CONFIG, __version__
    from repro.ev8.config import TABLE1
    print(f"repro {__version__} — Alpha EV8 conditional branch predictor "
          f"reproduction")
    print("\nTable 1: the EV8 predictor configuration")
    for name, spec in TABLE1.items():
        print(f"  {name:<5} {spec['prediction'] // 1024:>3}K prediction / "
              f"{spec['hysteresis'] // 1024:>3}K hysteresis entries, "
              f"history length {spec['history']}")
    print(f"  total {EV8_CONFIG.total_bits // 1024} Kbits "
          f"({EV8_CONFIG.prediction_bits // 1024} prediction + "
          f"{EV8_CONFIG.hysteresis_bits // 1024} hysteresis)")
    print("\nPredictors:", ", ".join(_PREDICTOR_CHOICES))
    print("Benchmarks:", ", ".join(SPEC95_BENCHMARKS))
    print("Experiments:", ", ".join(_EXPERIMENTS))
    return 0


def _command_simulate(args) -> int:
    from repro import EV8BranchPredictor, simulate, spec95_trace
    from repro.obs import Telemetry, render_summary
    from repro.history.providers import BranchGhistProvider
    predictor = _make_predictor(args.predictor)
    trace = spec95_trace(args.benchmark, args.branches)
    provider = (EV8BranchPredictor.make_provider()
                if args.predictor == "ev8" else BranchGhistProvider())
    sink = Telemetry() if args.telemetry else None
    result = simulate(predictor, trace, provider, telemetry=sink)
    print(result)
    print(f"storage: {predictor.storage_kbits:.1f} Kbits")
    if sink is not None:
        sink.write(args.telemetry)
        print(f"\nwrote telemetry to {args.telemetry}")
        print(render_summary(sink.snapshot()))
    return 0


def _command_experiment(name: str, args) -> int:
    import importlib
    module = importlib.import_module(f"repro.experiments.{name}")
    telemetry_path = getattr(args, "telemetry", None)
    if telemetry_path:
        from repro.obs import Telemetry, render_summary, use_telemetry
        sink = Telemetry()
        with use_telemetry(sink):
            print(module.render(module.run(args.branches)))
        sink.write(telemetry_path)
        print(f"\nwrote telemetry to {telemetry_path}")
        print(render_summary(sink.snapshot()))
        return 0
    print(module.render(module.run(args.branches)))
    return 0


def _gshare_factory(entries: int, history: int):
    """The sweep's predictor factory, bound to ``entries`` with
    ``functools.partial``."""
    from repro import GsharePredictor
    return GsharePredictor(entries, history)


def _command_sweep(args) -> int:
    import functools
    from repro import spec95_trace
    from repro.sim.sweep import sweep_parallel
    traces = {args.benchmark: spec95_trace(args.benchmark, args.branches)}
    points = sweep_parallel(functools.partial(_gshare_factory, args.entries),
                            args.lengths, traces, max_workers=args.workers)
    best = min(points, key=lambda point: point.mean_misp_per_ki)
    for point in points:
        marker = "  <- best" if point is best else ""
        print(f"h={point.value:<3} {point.mean_misp_per_ki:8.3f} misp/KI"
              f"{marker}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _command_info()
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command in _EXPERIMENTS:
        return _command_experiment(args.command, args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
