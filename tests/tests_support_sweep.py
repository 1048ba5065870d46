"""Factories shared by the sweep tests (``sweep_parallel`` runs any
callable, lambdas included; these are shared to keep configurations equal
across test modules)."""

from __future__ import annotations

from repro.predictors.twobcgskew import TableConfig, TwoBcGskewPredictor


def history_predictor(history: int) -> TwoBcGskewPredictor:
    """A small Table-1-shaped 2Bc-gskew with ``history`` as the swept G0
    length (half-size hysteresis on G0/Meta, like the EV8 configuration)."""
    return TwoBcGskewPredictor(
        TableConfig(256, 4), TableConfig(512, history, 256),
        TableConfig(512, history + 4), TableConfig(512, history + 2, 256))


def raise_workload_error(value: int) -> None:
    """A unit function that fails the way a workload bug would."""
    raise RuntimeError(f"workload error {value}")

