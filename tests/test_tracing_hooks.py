"""perfbench's span tracer (``perfbench/tracing.py``) against the program.

The tracer wraps named entry points of the program: each batched
predictor class's own ``batch_access``, each index scheme's own
``compute_batch``, each provider's own ``materialize`` and a set of
module-level functions.  A refactor that drops one of those names makes
``install()`` fail, so these tests run the tracer's install/uninstall
cycle here, without the benchmark around it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import simple_loop_trace
from repro import kernels
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import BranchGhistProvider, ev8_info_provider
from repro.predictors.base import BatchCapable
from repro.predictors.twobcgskew import TableConfig, TwoBcGskewPredictor
from repro.sim.driver import simulate
from repro.sim.engine import BatchedEngine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    """A fresh copy of the tracer module, uninstalled afterwards."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    list(module._targets())  # import every module it hooks
    yield module
    module.uninstall()


def _bindings(tracing) -> list[tuple[object, str, object]]:
    """Every attribute the tracer may replace, as (owner, name, value):
    each loaded ``repro`` module's globals and each hooked class
    attribute."""
    bindings = []
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            bindings.extend((module, name, value)
                            for name, value in vars(module).items())
    for owner, name, _ in tracing._targets():
        if isinstance(owner, type):
            bindings.append((owner, name, vars(owner)[name]))
    return bindings


def _replaying_classes() -> list[type]:
    """Every batched predictor class that declares its own replay (its
    index tables or its kernel)."""
    pending, found = [BatchCapable], []
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if "_KERNEL" in vars(sub) or "_index_tables" in vars(sub):
                found.append(sub)
    return found


def test_every_replaying_class_binds_batch_access():
    classes = _replaying_classes()
    assert len(classes) >= 7
    for cls in classes:
        assert "batch_access" in vars(cls), cls.__name__
        assert getattr(cls, "_KERNEL") in dict(kernels._SIGNATURES)


def test_install_then_uninstall_restores_every_attribute(tracing):
    before = _bindings(tracing)
    tracing.install()
    assert tracing._PATCHES
    for cls in _replaying_classes():
        assert vars(cls)["batch_access"] is not BatchCapable.batch_access
    tracing.uninstall()
    assert not tracing._PATCHES
    for owner, name, value in before:
        assert vars(owner)[name] is value, (owner, name)


@pytest.mark.skipif(not kernels.available(),
                    reason="needs the compiled replay tier")
def test_traced_replay_reports_each_layer(tracing):
    trace = simple_loop_trace(400, taken_pattern=[True, True, False])
    tracing.install()
    engine = BatchedEngine(strict=True)
    config = TableConfig(1024, 8)
    simulate(TwoBcGskewPredictor(config, config, config, config), trace,
             BranchGhistProvider(), engine=engine, use_cache=False)
    simulate(EV8BranchPredictor(), trace, ev8_info_provider(),
             engine=engine, use_cache=False)
    tracing.uninstall()
    names = {span[1] for span in tracing.take()}
    assert {"predictors.replay", "indexing.index", "ev8.index",
            "history.materialize"} <= names
