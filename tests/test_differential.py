"""Differential fuzzing: the scalar ↔ batched contract, whole-predictor.

``tests/test_counters.py`` locks ``SplitCounterArray.batch_access`` against
the scalar counter walk per component; these tests lock the contract at the
level the engines actually rely on.  Every ``BatchCapable`` predictor has a
config strategy in :data:`FUZZ_CASES` (a meta-test fails when one does not),
and one parametrized test runs them all: Hypothesis generates random
predictor configurations (per-table sizes, history lengths, hysteresis
sharing on/off, partial vs total update, bi-mode and YAGS table sizes and
tag widths, ghist vs lghist providers) and random short traces, then
asserts that the scalar reference walk and the strict batched replay
produce **bit-identical per-branch predictions**, identical final table
bytes (every counter array, tag and valid buffer the predictor holds,
however nested), and identical telemetry counters.

The example budget is tunable: ``REPRO_DIFF_FUZZ_EXAMPLES`` (default 230)
lets the dedicated CI fuzzer step pick a budget that fits its time box
while local runs keep the full sweep.
"""

from __future__ import annotations

import importlib
import os
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_predictions, table_state
from repro.ev8.indexfuncs import WORDLINE_MODES, EV8IndexScheme
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import BlockLghistProvider, BranchGhistProvider
from repro.obs import Telemetry
from repro.predictors.base import BatchCapable
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.bimode import BiModePredictor
from repro.predictors.egskew import EGskewPredictor
from repro.predictors.gas import GAsPredictor
from repro.predictors.gshare import GsharePredictor
from repro.predictors.twobcgskew import (SkewedIndexScheme, TableConfig,
                                         TwoBcGskewPredictor)
from repro.predictors.yags import YagsPredictor
from repro.traces.model import TerminatorKind, TraceBuilder

FUZZ_EXAMPLES = int(os.environ.get("REPRO_DIFF_FUZZ_EXAMPLES", "230"))

_PCS = tuple(0x4000 + 16 * i for i in range(12))


# -- strategies ---------------------------------------------------------------

@st.composite
def random_traces(draw):
    """A short trace over a small set of branch PCs with random outcomes
    (some unconditional blocks mixed in to exercise block/path plumbing)."""
    length = draw(st.integers(min_value=4, max_value=120))
    builder = TraceBuilder("fuzz")
    for _ in range(length):
        pc = draw(st.sampled_from(_PCS))
        if draw(st.integers(0, 9)) == 0:
            builder.add(pc, draw(st.integers(1, 4)), TerminatorKind.JUMP,
                        True, draw(st.sampled_from(_PCS)))
            continue
        taken = draw(st.booleans())
        target = draw(st.sampled_from(_PCS))
        builder.add(pc, draw(st.integers(1, 4)), TerminatorKind.CONDITIONAL,
                    taken, target if taken else pc + 16)
    return builder.build()


@st.composite
def table_configs(draw, max_history: int = 14):
    entries = 1 << draw(st.integers(min_value=4, max_value=7))
    history = draw(st.integers(min_value=0, max_value=max_history))
    shared = draw(st.booleans())
    return TableConfig(entries, history,
                       entries // 2 if shared else None)


@st.composite
def twobcgskew_configs(draw):
    """Constructor kwargs for a random (small) 2Bc-gskew instance."""
    return dict(
        bim=draw(table_configs(max_history=4)),
        g0=draw(table_configs()),
        g1=draw(table_configs()),
        meta=draw(table_configs()),
        index_scheme=SkewedIndexScheme(
            use_path_addresses=draw(st.booleans())),
        update_policy=draw(st.sampled_from(("partial", "total"))),
    )


@st.composite
def providers_factories(draw):
    """A factory for fresh, equivalent provider instances (providers are
    stateful, so each engine run needs its own)."""
    kind = draw(st.sampled_from(("ghist", "lghist")))
    if kind == "ghist":
        return BranchGhistProvider
    include_path = draw(st.booleans())
    delay_blocks = draw(st.integers(min_value=0, max_value=2))

    def make() -> BlockLghistProvider:
        return BlockLghistProvider(include_path=include_path,
                                   delay_blocks=delay_blocks)

    return make


# -- the reference walk -------------------------------------------------------

def scalar_walk(predictor, trace, provider, sink) -> np.ndarray:
    """The ScalarEngine loop, returning every per-branch prediction."""
    predictor.attach_telemetry(sink)
    return scalar_predictions(predictor, trace, provider)


def batched_walk(predictor, trace, provider, sink) -> np.ndarray:
    """The strict batched replay over the materialized vector batch."""
    batch = provider.materialize(trace)
    assert batch is not None, "provider fell out of the batchable envelope"
    predictor.attach_telemetry(sink)
    return predictor.batch_access(batch)


def fast_walk(predictor, trace, provider) -> np.ndarray:
    """The batched replay with no sink attached, exactly like production
    sweeps (the kernels skip the event-code reduction)."""
    batch = provider.materialize(trace)
    assert batch is not None, "provider fell out of the batchable envelope"
    return predictor.batch_access(batch)


def _assert_same_state(reference, candidate, arm: str) -> None:
    expected = table_state(reference)
    assert expected, "predictor exposes no table state to compare"
    actual = table_state(candidate)
    assert expected.keys() == actual.keys()
    for where, data in expected.items():
        assert data == actual[where], f"{where} diverged ({arm})"


def assert_equivalent(make_predictor, trace, make_provider) -> dict:
    """Scalar vs batched with a sink vs batched without one; returns the
    scalar walk's comparable counters (all matched by the batched arm)."""
    scalar_sink, batched_sink = Telemetry(), Telemetry()
    reference = make_predictor()
    candidate = make_predictor()
    expected = scalar_walk(reference, trace, make_provider(), scalar_sink)
    actual = batched_walk(candidate, trace, make_provider(), batched_sink)

    np.testing.assert_array_equal(expected, actual)
    _assert_same_state(reference, candidate, "batched with a sink")

    # Engine-consistent telemetry: logical bank traffic, arbitration and
    # update-policy event counts must match key-for-key.
    def comparable(sink):
        return {name: value
                for name, value in sink.snapshot()["counters"].items()
                if name.split(".", 1)[0] in ("bank", "arbitration", "update")}

    assert comparable(scalar_sink) == comparable(batched_sink)

    # Third arm: the batched replay with no sink (what production sweeps
    # run) must be bit-identical to the same scalar reference — predictions
    # and final table state both.
    fast = make_predictor()
    np.testing.assert_array_equal(
        expected, fast_walk(fast, trace, make_provider()))
    _assert_same_state(reference, fast, "batched without a sink")
    return comparable(scalar_sink)


# -- config strategies --------------------------------------------------------

def sizes(low: int, high: int):
    """Powers of two from ``2**low`` to ``2**high``."""
    return st.integers(min_value=low,
                       max_value=high).map(lambda log2: 1 << log2)


def histories(high: int):
    return st.integers(min_value=0, max_value=high)


policies = st.sampled_from(("partial", "total"))
tag_widths = st.one_of(st.integers(min_value=1, max_value=8),
                       st.integers(min_value=9, max_value=72))

egskew_configs = st.fixed_dictionaries(dict(
    entries=sizes(4, 7), history_length=histories(12),
    g0_history_length=histories(12), update_policy=policies))
bimode_configs = st.fixed_dictionaries(dict(
    direction_entries=sizes(3, 8), choice_entries=sizes(1, 7),
    history_length=histories(20)))
yags_configs = st.fixed_dictionaries(dict(
    cache_entries=sizes(2, 8), choice_entries=sizes(1, 7),
    history_length=histories(20), tag_bits=tag_widths))
# Table 1 tables under each Fig 9 index-function variant.
ev8_configs = st.fixed_dictionaries(dict(
    index_scheme=st.builds(EV8IndexScheme,
                           wordline_mode=st.sampled_from(WORDLINE_MODES),
                           use_block_bank=st.booleans()),
    update_policy=policies))
gshare_configs = st.fixed_dictionaries(dict(
    entries=sizes(1, 8), history_length=histories(20)))


@st.composite
def bimodal_configs(draw):
    entries = 1 << draw(st.integers(min_value=1, max_value=7))
    sharing_log2 = draw(st.integers(min_value=0, max_value=2))
    return dict(entries=entries,
                hysteresis_entries=max(entries >> sharing_log2, 1))


@st.composite
def gas_configs(draw):
    entries_log2 = draw(st.integers(min_value=1, max_value=8))
    fraction = draw(st.floats(min_value=0, max_value=1))
    return dict(entries=1 << entries_log2,
                history_length=int(fraction * entries_log2))


# -- the fuzzer ---------------------------------------------------------------

class FuzzCase(NamedTuple):
    """How one ``BatchCapable`` class is fuzzed: a strategy of constructor
    keyword arguments, the example budget, the provider factories and
    whether the case runs only in the slow lane."""
    configs: st.SearchStrategy
    examples: int = 40
    providers: st.SearchStrategy = providers_factories()
    slow: bool = False


FUZZ_CASES: dict[type, FuzzCase] = {
    # slow: the full randomized budget runs in the dedicated CI fuzzer step
    # (which runs this file without the marker filter); the default lane
    # keeps the fixed-shape differential tests below.
    TwoBcGskewPredictor: FuzzCase(twobcgskew_configs(), FUZZ_EXAMPLES,
                                  slow=True),
    EGskewPredictor: FuzzCase(egskew_configs, 60,
                              st.just(BranchGhistProvider)),
    BiModePredictor: FuzzCase(bimode_configs, FUZZ_EXAMPLES, slow=True),
    YagsPredictor: FuzzCase(yags_configs, FUZZ_EXAMPLES, slow=True),
    EV8BranchPredictor: FuzzCase(ev8_configs, 20),
    BimodalPredictor: FuzzCase(bimodal_configs()),
    GsharePredictor: FuzzCase(gshare_configs),
    GAsPredictor: FuzzCase(gas_configs()),
}


@pytest.mark.parametrize("predictor", [
    pytest.param(predictor, id=predictor.__name__,
                 marks=[pytest.mark.slow] if case.slow else [])
    for predictor, case in FUZZ_CASES.items()])
def test_random_config_random_trace(predictor):
    case = FUZZ_CASES[predictor]

    @settings(max_examples=case.examples, deadline=None)
    @given(config=case.configs, trace=random_traces(),
           make_provider=case.providers)
    def check(config, trace, make_provider):
        assert_equivalent(lambda: predictor(**config), trace, make_provider)

    check()


class TestTwoBcGskewDifferential:
    @settings(max_examples=40, deadline=None)
    @given(trace=random_traces(), make_provider=providers_factories())
    def test_ev8_shaped_sharing(self, trace, make_provider):
        """The Table 1 shape in miniature: half-size hysteresis on G0 and
        Meta, distinct per-table history lengths."""
        def make():
            return TwoBcGskewPredictor(
                bim=TableConfig(64, 4),
                g0=TableConfig(256, 8, 128),
                g1=TableConfig(256, 12),
                meta=TableConfig(256, 10, 128),
                update_policy="partial")
        assert_equivalent(make, trace, make_provider)


class TestBiModeDifferential:
    @settings(max_examples=40, deadline=None)
    @given(trace=random_traces(), make_provider=providers_factories())
    def test_tiny_tables(self, trace, make_provider):
        """4-entry choice and 16-entry direction tables over 12 branch PCs:
        every choice and direction write arm, under either provider."""
        counters = assert_equivalent(lambda: BiModePredictor(16, 4, 6),
                                     trace, make_provider)
        # Each branch reads the choice table and exactly one direction table.
        branches = trace.conditional_count
        assert counters.get("bank.choice.reads", 0) == branches
        assert (counters.get("bank.taken_table.reads", 0)
                + counters.get("bank.not_taken_table.reads", 0)) == branches


class TestYagsDifferential:
    @settings(max_examples=40, deadline=None)
    @given(trace=random_traces(), tag_bits=tag_widths)
    def test_small_cache_exercises_every_arm(self, trace, tag_bits):
        """A 4-entry cache over 12 branch PCs: tag conflicts, inserts and
        hits on both caches, so the cache counters' telemetry is compared
        too, not just the choice table's."""
        def make():
            return YagsPredictor(4, 4, 2, tag_bits=tag_bits)
        assert_equivalent(make, trace, BranchGhistProvider)


class TestEV8Differential:
    @settings(max_examples=20, deadline=None)
    @given(trace=random_traces(),
           policy=st.sampled_from(("partial", "total")))
    def test_table1_random_trace(self, trace, policy):
        """The full Table 1 predictor on its own lghist/path provider and
        the hardware-constrained index functions."""
        assert_equivalent(lambda: EV8BranchPredictor(update_policy=policy),
                          trace, EV8BranchPredictor.make_provider)


def _batch_capable_classes(cls=BatchCapable):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _batch_capable_classes(subclass)


def test_every_batch_capable_predictor_has_a_fuzz_case():
    """A new batched predictor cannot go unfuzzed: every ``BatchCapable``
    class in ``repro.predictors`` and ``repro.ev8`` has a
    :data:`FUZZ_CASES` entry."""
    for package in ("repro.predictors", "repro.ev8"):
        importlib.import_module(package)
    fuzzed = set(FUZZ_CASES)
    shipped = {cls for cls in _batch_capable_classes()
               if cls.__module__.startswith("repro.")}
    assert shipped, "found no BatchCapable predictor"
    missing = sorted(cls.__qualname__ for cls in shipped - fuzzed)
    assert not missing, f"BatchCapable predictors with no fuzz case: {missing}"


def test_yags_cache_counters_are_reported():
    """The caches' counters report as ``bank.*_cache.*`` on both engines."""
    builder = TraceBuilder("alternating")
    for i in range(200):
        pc = _PCS[i % 3]
        taken = (i // 3) % 3 != 0
        builder.add(pc, 2, TerminatorKind.CONDITIONAL, taken,
                    pc if taken else pc + 16)
    counters = assert_equivalent(lambda: YagsPredictor(8, 8, 3),
                                 builder.build(), BranchGhistProvider)
    for cache in ("taken_cache", "not_taken_cache"):
        assert counters[f"bank.{cache}.reads"] > 0


@pytest.mark.parametrize("tag_bits", [8, 9, 16, 17, 32, 33, 64, 72])
def test_yags_tags_keep_their_top_bit(tag_bits):
    """Two branches whose tags differ only in the top tag bit share every
    cache entry, so each tag width (byte, ``H``, ``I`` and ``Q`` buffers)
    must store that bit for their hits and inserts to match the scalar
    walk."""
    top = min(tag_bits, 61) - 1
    pcs = (0x4000, 0x4000 + (1 << (2 + top)))
    builder = TraceBuilder("top-tag-bit")
    rng = np.random.default_rng(tag_bits)
    for i in range(300):
        pc = pcs[i % 2]
        taken = bool(rng.random() < 0.3 + 0.4 * (i % 2))
        builder.add(pc, 2, TerminatorKind.CONDITIONAL, taken,
                    pc if taken else pc + 16)
    counters = assert_equivalent(
        lambda: YagsPredictor(4, 4, 0, tag_bits=tag_bits), builder.build(),
        BranchGhistProvider)
    assert counters["bank.taken_cache.reads"] > 0


def test_fuzz_budget_meets_acceptance_floor():
    """The default example budget exercises 200+ generated cases (the
    acceptance criterion); CI may override it explicitly but the default
    must not silently shrink."""
    if "REPRO_DIFF_FUZZ_EXAMPLES" not in os.environ:
        assert FUZZ_EXAMPLES >= 200


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
