"""Module-level (picklable) factories shared by the sweep/fabric tests.

``sweep_parallel`` ships factories across process boundaries, so the test
factories must live in an importable module rather than as test-local
closures.
"""

from __future__ import annotations

import os

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


def kill_worker(value: int) -> None:
    """A unit function that takes its worker process down with it."""
    os._exit(value)
