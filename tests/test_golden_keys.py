"""Golden result-cache keys.

``golden_keys.json`` pins the ``result_key`` hex digest of every Fig 5
cell, every Fig 9 cell and the Table 1 EV8 predictor under three
information vectors (ghist, lghist, the EV8 vector), on one short gcc
trace, with the simulator-source digest fixed to a constant.  A change to
how predictors, providers or traces are fingerprinted then shows up here
as a failed test instead of as every existing result cache silently
missing (or, worse, hitting on a key that means something else).

Regenerate after an *intentional* change to the key scheme with::

    PYTHONPATH=src python tests/test_golden_keys.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ev8.predictor import EV8BranchPredictor
from repro.experiments import fig9
from repro.experiments.common import make_fig5_configs
from repro.history.providers import (BlockLghistProvider, BranchGhistProvider,
                                     ev8_info_provider)
from repro.sim import result_cache
from repro.workloads.spec95 import spec95_trace

FIXTURE = Path(__file__).with_name("golden_keys.json")
BRANCHES = 2_000
SOURCE_DIGEST = bytes(32)
"""Stands in for the simulator-source digest, so the keys depend only on
the fingerprinting code and its inputs, not on every semantic source."""


class _Captured(Exception):
    """Stops ``fig9.run`` once its grid is declared."""


def _fig9_cells():
    """``{config: (predictor factory, provider factory)}`` exactly as
    ``fig9.run`` declares them, captured before anything simulates."""
    captured = {}

    def capture(configs, traces, provider_factories):
        captured.update({name: (make, provider_factories[name])
                         for name, make in configs.items()})
        raise _Captured

    saved = fig9.experiment_traces, fig9.run_comparison
    fig9.experiment_traces, fig9.run_comparison = (
        lambda num_branches: {}), capture
    try:
        fig9.run()
    except _Captured:
        pass
    finally:
        fig9.experiment_traces, fig9.run_comparison = saved
    return captured


def _cells():
    """``{label: (predictor factory, provider factory)}``."""
    cells = {f"fig5/{name}": (make, BranchGhistProvider)
             for name, make in make_fig5_configs().items()}
    cells.update({f"fig9/{name}": pair
                  for name, pair in _fig9_cells().items()})
    for vector, make_provider in (
            ("ghist", BranchGhistProvider),
            ("lghist", lambda: BlockLghistProvider(include_path=False)),
            ("EV8 info vector", ev8_info_provider)):
        cells[f"table1/{vector}"] = (EV8BranchPredictor, make_provider)
    return cells


def _keys() -> dict:
    trace = spec95_trace("gcc", BRANCHES)
    saved = result_cache._source_digest
    result_cache._source_digest = lambda *entries: SOURCE_DIGEST
    try:
        keys = {label: result_cache.result_key(make(), trace,
                                               make_provider(), 0, "batched")
                for label, (make, make_provider) in _cells().items()}
    finally:
        result_cache._source_digest = saved
    return {"branches": BRANCHES,
            "trace_digest": trace.derived(
                "content_digest", result_cache._content_digest).hex(),
            "keys": keys}


def test_result_keys_match_the_golden_keys():
    expected = json.loads(FIXTURE.read_text())
    actual = _keys()
    # A different trace would change every key; say so first.
    assert actual["trace_digest"] == expected["trace_digest"]
    assert actual == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_keys(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
