"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.history.providers import InfoVector
from repro.obs import NullTelemetry
from repro.traces.fetch import fetch_blocks_for
from repro.traces.model import TerminatorKind, Trace, TraceBuilder
from repro.workloads.spec95 import spec95_trace

# Hypothesis profiles, selected via HYPOTHESIS_PROFILE (default "dev").
# Both keep the library's per-test example counts; "ci" additionally
# tolerates slow shared runners.  The differential fuzzer
# (test_differential.py) layers its own example budget on top via
# REPRO_DIFF_FUZZ_EXAMPLES, which is how the dedicated CI step caps its
# wall time.
settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci", deadline=None, derandomize=True, print_blob=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

TEST_TRACE_BRANCHES = 15_000
"""Trace length for integration-level tests: long enough for predictors to
train, short enough to keep the suite fast."""


def make_vector(pc: int = 0x1000, history: int = 0, address: int | None = None,
                path: tuple[int, ...] = (0, 0, 0), bank: int = 0) -> InfoVector:
    """A hand-built information vector for unit tests."""
    return InfoVector(history=history,
                      address=pc if address is None else address,
                      branch_pc=pc, path=path, bank=bank)


def table_state(obj, path: str = "") -> dict[str, bytes]:
    """Every table buffer reachable from ``obj``, keyed by attribute path:
    byte buffers directly on it, and those of the repro objects it holds
    (counter arrays, YAGS caches, ...), recursively."""
    attrs = dict(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                attrs.setdefault(slot, getattr(obj, slot))
    state = {}
    for name, value in attrs.items():
        if isinstance(value, (bytearray, array)):
            state[path + name] = bytes(value)
        elif (type(value).__module__.startswith("repro.")
              and not isinstance(value, NullTelemetry)):
            state.update(table_state(value, f"{path}{name}."))
    return state


def scalar_predictions(predictor, trace, provider) -> np.ndarray:
    """The ScalarEngine loop over ``trace``, returning every per-branch
    prediction."""
    predictions = []
    for block in fetch_blocks_for(trace):
        if block.branch_pcs:
            vectors = provider.begin_block(block)
            for vector, taken in zip(vectors, block.branch_outcomes):
                predictions.append(predictor.access(vector, taken))
        provider.end_block(block)
    return np.asarray(predictions, dtype=np.bool_)


def simple_loop_trace(iterations: int = 200, name: str = "loop",
                      taken_pattern=None) -> Trace:
    """A trace of one conditional branch at 0x1008, executed ``iterations``
    times with the given outcome pattern (default: always taken except the
    final exit)."""
    builder = TraceBuilder(name)
    for i in range(iterations):
        taken = (taken_pattern[i % len(taken_pattern)] if taken_pattern
                 else i < iterations - 1)
        builder.add(0x1000, 3, TerminatorKind.CONDITIONAL, taken,
                    0x1000 if taken else 0x100C)
    return builder.build()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def gcc_trace() -> Trace:
    """A small gcc stand-in trace, shared session-wide."""
    return spec95_trace("gcc", TEST_TRACE_BRANCHES)


@pytest.fixture(scope="session")
def vortex_trace() -> Trace:
    """A small vortex stand-in trace (the most predictable benchmark)."""
    return spec95_trace("vortex", TEST_TRACE_BRANCHES)


@pytest.fixture(scope="session")
def compress_trace() -> Trace:
    return spec95_trace("compress", TEST_TRACE_BRANCHES)
