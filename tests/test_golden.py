"""Golden misprediction counts and trace digests.

``golden_misp.json`` pins (branches, mispredictions) for the Table 1 EV8
predictor and every Fig 5 configuration on two short SPEC95 stand-in
traces.  Both engines must reproduce them exactly, so any change to the
simulator's semantics (a kernel, the update policy, counter initialisation,
an index function) shows up as a reviewed diff of the fixture rather than
as silently different figures.

``golden_traces.json`` pins the content digest of every stand-in trace at
two seeds, generated directly by ``generate_trace``, once through the
compiled executor and once through the Python one.  The misp fixture
loads its traces through the trace cache, whose key is only
``GENERATOR_VERSION`` plus the profile parameters, so a warm cache would
hide a generator change that forgot the version bump; this one cannot.

Regenerate both after an *intentional* semantic change with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import trace_digest
from repro.ev8.predictor import EV8BranchPredictor
from repro.experiments.common import make_fig5_configs
from repro.history.providers import BranchGhistProvider
from repro.common.rng import DEFAULT_SEED
from repro.sim.engine import BatchedEngine, ScalarEngine
from repro.workloads import compiled
from repro.workloads.cfg import Executor
from repro.workloads.generator import generate_trace
from repro.workloads.spec95 import SPEC95_BENCHMARKS, profile_for, spec95_trace

FIXTURE = Path(__file__).with_name("golden_misp.json")
TRACES = ("gcc", "go")
BRANCHES = 2_000

TRACE_FIXTURE = Path(__file__).with_name("golden_traces.json")
TRACE_SEEDS = (DEFAULT_SEED, 77)
TRACE_BRANCHES = 5_000


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


def _trace_digests() -> dict[str, dict[str, str]]:
    """``{seed: {benchmark: digest}}``, bypassing every trace cache."""
    return {str(seed): {name: trace_digest(generate_trace(
                            profile_for(name).with_seed(seed), TRACE_BRANCHES))
                        for name in SPEC95_BENCHMARKS}
            for seed in TRACE_SEEDS}


@pytest.fixture(params=["compiled", "python"])
def executor(request, monkeypatch):
    """Make ``Program.run`` take only the named executor."""
    if request.param == "compiled":
        def refuse(self, main):
            raise AssertionError("ran the Python executor")
        monkeypatch.setattr(Executor, "run", refuse)
    else:
        monkeypatch.setattr(compiled, "run", lambda *args: None)
    return request.param


def test_golden_trace_digests(executor):
    expected = json.loads(TRACE_FIXTURE.read_text())
    assert expected["branches_per_trace"] == TRACE_BRANCHES
    assert _trace_digests() == expected["digests"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {"branches_per_trace": BRANCHES, "counts": _measure(ScalarEngine())},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    TRACE_FIXTURE.write_text(json.dumps(
        {"branches_per_trace": TRACE_BRANCHES, "digests": _trace_digests()},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {TRACE_FIXTURE}")
