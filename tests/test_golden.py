"""Golden misprediction counts for the paper's headline predictors.

``golden_misp.json`` pins (branches, mispredictions) for the Table 1 EV8
predictor and every Fig 5 configuration on two short SPEC95 stand-in
traces.  Both engines must reproduce them exactly, so any change to the
simulator's semantics (a kernel, the update policy, counter initialisation,
an index function) shows up as a reviewed diff of the fixture rather than
as silently different figures.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.ev8.predictor import EV8BranchPredictor
from repro.experiments.common import make_fig5_configs
from repro.history.providers import BranchGhistProvider
from repro.sim.engine import BatchedEngine, ScalarEngine
from repro.workloads.spec95 import spec95_trace

FIXTURE = Path(__file__).with_name("golden_misp.json")
TRACES = ("gcc", "go")
BRANCHES = 2_000


def _cells():
    """``{config name: (predictor factory, provider factory)}``."""
    cells = {"EV8-table1": (EV8BranchPredictor,
                            EV8BranchPredictor.make_provider)}
    for name, make in make_fig5_configs().items():
        cells[name] = (make, BranchGhistProvider)
    return cells


def _measure(engine) -> dict[str, dict[str, dict[str, int]]]:
    golden: dict[str, dict[str, dict[str, int]]] = {}
    for trace_name in TRACES:
        trace = spec95_trace(trace_name, BRANCHES)
        golden[trace_name] = {}
        for name, (make, make_provider) in _cells().items():
            result = engine.run(make(), trace, provider=make_provider())
            golden[trace_name][name] = {
                "branches": result.branches,
                "mispredictions": result.mispredictions}
    return golden


@pytest.mark.parametrize("engine", [ScalarEngine(), BatchedEngine(strict=True)],
                         ids=["scalar", "batched"])
def test_golden_mispredictions(engine):
    expected = json.loads(FIXTURE.read_text())
    assert expected["branches_per_trace"] == BRANCHES
    assert _measure(engine) == expected["counts"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {"branches_per_trace": BRANCHES, "counts": _measure(ScalarEngine())},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
