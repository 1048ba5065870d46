"""Tests for the branch behaviour models."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import choice_cdf
from repro.workloads.behaviors import (
    BiasedBehavior,
    ConditionCell,
    ConditionFollowerBehavior,
    ConditionLeaderBehavior,
    GlobalCorrelatedBehavior,
    LocalCorrelatedBehavior,
    LoopBehavior,
    MarkovBehavior,
    PatternBehavior,
)


class FakeContext:
    """Minimal ExecutionContext for driving behaviours directly, counting
    the outcomes it records."""

    def __init__(self):
        self.global_history = 0
        self.recorded = 0
        self.counts = {}

    def occurrence(self, branch_id):
        return self.counts.get(branch_id, 0)

    def record(self, branch_id, taken):
        self.global_history = (self.global_history << 1) | int(taken)
        self.recorded += 1
        self.counts[branch_id] = self.counts.get(branch_id, 0) + 1


@pytest.fixture
def ctx():
    return FakeContext()


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestBiased:
    def test_extremes(self, rng, ctx):
        always = BiasedBehavior(rng, 1.0)
        never = BiasedBehavior(rng, 0.0)
        assert all(always.next(0, ctx) for _ in range(50))
        assert not any(never.next(0, ctx) for _ in range(50))

    def test_rate_matches_probability(self, rng, ctx):
        behavior = BiasedBehavior(rng, 0.2)
        rate = sum(behavior.next(0, ctx) for _ in range(5000)) / 5000
        assert rate == pytest.approx(0.2, abs=0.03)

    def test_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            BiasedBehavior(rng, 1.5)

    def test_noise_flips(self, rng, ctx):
        behavior = BiasedBehavior(rng, 1.0, noise=0.3)
        rate = sum(behavior.next(0, ctx) for _ in range(5000)) / 5000
        assert rate == pytest.approx(0.7, abs=0.03)

    def test_rejects_bad_noise(self, rng):
        with pytest.raises(ValueError):
            BiasedBehavior(rng, 0.5, noise=-0.1)

    def test_random_behavior_is_balanced(self, rng, ctx):
        behavior = BiasedBehavior(rng, 0.5)
        rate = sum(behavior.next(0, ctx) for _ in range(5000)) / 5000
        assert rate == pytest.approx(0.5, abs=0.05)

    def test_determinism_given_seed(self, ctx):
        a = BiasedBehavior(np.random.default_rng(3), 0.5)
        b = BiasedBehavior(np.random.default_rng(3), 0.5)
        assert [a.next(0, ctx) for _ in range(30)] == [
            b.next(0, ctx) for _ in range(30)]


class TestLoop:
    def test_fixed_trip_count(self, rng, ctx):
        behavior = LoopBehavior(rng, mean_trips=4)
        behavior.enter()
        outcomes = [behavior.next(0, ctx) for _ in range(8)]
        # taken, taken, taken, not-taken -- twice (auto re-enter).
        assert outcomes == [True, True, True, False] * 2

    def test_single_trip_loop_always_exits(self, rng, ctx):
        behavior = LoopBehavior(rng, mean_trips=1)
        behavior.enter()
        assert [behavior.next(0, ctx) for _ in range(4)] == [False] * 4

    def test_rejects_zero_trips(self, rng):
        with pytest.raises(ValueError):
            LoopBehavior(rng, 0)

    def test_jitter_draws_at_least_one(self, rng, ctx):
        behavior = LoopBehavior(rng, mean_trips=2, trip_jitter=3.0)
        for _ in range(50):
            behavior.enter()
            # Must terminate within a bounded number of iterations.
            for _ in range(10000):
                if not behavior.next(0, ctx):
                    break
            else:
                pytest.fail("loop behaviour never exited")


class TestPattern:
    def test_string_pattern(self, rng, ctx):
        behavior = PatternBehavior(rng, "110")
        outcomes = []
        for _ in range(6):
            outcome = behavior.next(0, ctx)
            outcomes.append(outcome)
            ctx.record(0, outcome)
        assert outcomes == [True, True, False, True, True, False]

    def test_list_pattern(self, rng, ctx):
        behavior = PatternBehavior(rng, [True, False])
        outcome = behavior.next(0, ctx)
        ctx.record(0, outcome)
        assert outcome is True
        assert behavior.next(0, ctx) is False

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            PatternBehavior(rng, "")


class TestGlobalCorrelated:
    def test_deterministic_function_of_lags(self, rng):
        behavior = GlobalCorrelatedBehavior(rng, [1, 3])
        ctx = FakeContext()
        seen = {}
        for history in range(16):
            ctx.global_history = history
            key = (history & 1, (history >> 2) & 1)
            outcome = behavior.next(0, ctx)
            if key in seen:
                assert seen[key] == outcome
            seen[key] = outcome

    def test_depth(self, rng):
        behavior = GlobalCorrelatedBehavior(rng, [2, 7, 5])
        assert behavior.depth == 7
        assert behavior.lags == [2, 5, 7]

    def test_rejects_bad_lags(self, rng):
        with pytest.raises(ValueError):
            GlobalCorrelatedBehavior(rng, [])
        with pytest.raises(ValueError):
            GlobalCorrelatedBehavior(rng, [0])
        with pytest.raises(ValueError):
            GlobalCorrelatedBehavior(rng, list(range(1, 20)))

    def test_duplicate_lags_deduplicated(self, rng):
        behavior = GlobalCorrelatedBehavior(rng, [3, 3, 5])
        assert behavior.lags == [3, 5]


class TestLocalCorrelated:
    def test_eventually_periodic(self, rng, ctx):
        # A deterministic function of its own last outcomes must enter a
        # cycle of length at most 2^depth.
        behavior = LocalCorrelatedBehavior(rng, depth=3)
        outcomes = [behavior.next(0, ctx) for _ in range(64)]
        tail = outcomes[16:]
        # Look for a period up to 8 in the tail.
        assert any(
            all(tail[i] == tail[i + period] for i in range(len(tail) - period))
            for period in range(1, 9))

    def test_rejects_bad_depth(self, rng):
        with pytest.raises(ValueError):
            LocalCorrelatedBehavior(rng, 0)
        with pytest.raises(ValueError):
            LocalCorrelatedBehavior(rng, 17)


class TestMarkov:
    def test_high_persistence_produces_runs(self, rng, ctx):
        behavior = MarkovBehavior(rng, 0.99, 0.99)
        outcomes = [behavior.next(0, ctx) for _ in range(2000)]
        switches = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a != b)
        assert switches < 80  # ~1% switch rate

    def test_zero_persistence_alternates(self, rng, ctx):
        behavior = MarkovBehavior(rng, 0.0, 0.0)
        outcomes = [behavior.next(0, ctx) for _ in range(10)]
        assert all(a != b for a, b in zip(outcomes, outcomes[1:]))

    def test_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            MarkovBehavior(rng, 1.2, 0.5)


# -- stream contract ------------------------------------------------------------
#
# Each behaviour must emit exactly what an eager implementation emits: a
# child ``default_rng(parent.integers(0, 2**63))`` made at construction,
# its construction draws taken at once, and every later draw a scalar call.
# The references below are that implementation, written out per class.

STEPS = 2_000
NOISE = 0.3


def _child(parent):
    return np.random.default_rng(parent.integers(0, 2**63))


def _with_noise(child, value):
    return (not value) if child.random() < NOISE else value


def _bit_table(child, size):
    return [bool(b) for b in child.integers(0, 2, size=size)]


def _ref_biased(parent, p_taken):
    child = _child(parent)
    return lambda ctx: _with_noise(child, bool(child.random() < p_taken))


def _ref_loop(parent, mean_trips, trip_jitter):
    child = _child(parent)

    def draw_trips():
        if trip_jitter <= 0.0:
            return mean_trips
        spread = max(1.0, mean_trips * trip_jitter)
        return max(1, int(round(child.normal(mean_trips, spread))))
    remaining = [draw_trips()]  # the constructor's draw
    remaining[0] = draw_trips()  # enter(), as LoopNode calls it

    def step(ctx):
        remaining[0] -= 1
        if remaining[0] <= 0:
            remaining[0] = draw_trips()
            return _with_noise(child, False)
        return _with_noise(child, True)
    return step


def _ref_pattern(parent, pattern):
    child = _child(parent)
    return lambda ctx: _with_noise(
        child, pattern[ctx.occurrence(0) % len(pattern)])


def _ref_global(parent, lags):
    child = _child(parent)
    table = _bit_table(child, 1 << len(lags))

    def step(ctx):
        index = 0
        for position, lag in enumerate(lags):
            index |= ((ctx.global_history >> (lag - 1)) & 1) << position
        return _with_noise(child, table[index])
    return step


def _ref_local(parent, depth):
    child = _child(parent)
    table = _bit_table(child, 1 << depth)
    history = [0]

    def step(ctx):
        value = table[history[0] & ((1 << depth) - 1)]
        history[0] = (history[0] << 1) | int(value)
        return _with_noise(child, value)
    return step


def _ref_markov(parent, p_stay_taken, p_stay_not_taken):
    child = _child(parent)
    state = [bool(child.integers(0, 2))]

    def step(ctx):
        stay = p_stay_taken if state[0] else p_stay_not_taken
        if child.random() >= stay:
            state[0] = not state[0]
        return _with_noise(child, state[0])
    return step


def _ref_leader(parent, p_taken):
    child, cell = _child(parent), ConditionCell()

    def step(ctx):
        cell.value = bool(child.random() < p_taken)
        return _with_noise(child, cell.value)
    return step


def _cell_leader(ctx):
    return bool(ctx.recorded % 7 < 3)  # stands in for a leader branch


def _ref_follower(parent):
    child = _child(parent)
    invert = bool(child.integers(0, 2))
    return lambda ctx: _with_noise(child, _cell_leader(ctx) ^ invert)


def _stepping(behavior, enter=False):
    if enter:
        behavior.enter()  # as LoopNode does at loop entry
    return lambda ctx: behavior.next(0, ctx)


def _follower(parent):
    cell = ConditionCell()
    behavior = ConditionFollowerBehavior(parent, cell, noise=NOISE)

    def step(ctx):
        cell.value = _cell_leader(ctx)
        return behavior.next(0, ctx)
    return step


# name -> (behaviour built from a parent, reference built from a parent);
# each is a function returning one outcome per call.
CASES = {
    "biased": (lambda rng: _stepping(BiasedBehavior(rng, 0.7, noise=NOISE)),
               lambda rng: _ref_biased(rng, 0.7)),
    "loop": (lambda rng: _stepping(LoopBehavior(rng, 5, noise=NOISE),
                                   enter=True),
             lambda rng: _ref_loop(rng, 5, 0.0)),
    "loop-jitter": (
        lambda rng: _stepping(LoopBehavior(rng, 6, trip_jitter=0.5,
                                           noise=NOISE), enter=True),
        lambda rng: _ref_loop(rng, 6, 0.5)),
    "pattern": (
        lambda rng: _stepping(PatternBehavior(rng, "1101", noise=NOISE)),
        lambda rng: _ref_pattern(rng, [True, True, False, True])),
    "global": (lambda rng: _stepping(GlobalCorrelatedBehavior(
                   rng, [1, 4, 9], noise=NOISE)),
               lambda rng: _ref_global(rng, [1, 4, 9])),
    "local": (
        lambda rng: _stepping(LocalCorrelatedBehavior(rng, 3, noise=NOISE)),
        lambda rng: _ref_local(rng, 3)),
    "markov": (
        lambda rng: _stepping(MarkovBehavior(rng, 0.9, 0.1, noise=NOISE)),
        lambda rng: _ref_markov(rng, 0.9, 0.1)),
    "leader": (lambda rng: _stepping(ConditionLeaderBehavior(
                   rng, ConditionCell(), 0.4, noise=NOISE)),
               lambda rng: _ref_leader(rng, 0.4)),
    "follower": (_follower, _ref_follower),
}


def _run(step):
    ctx = FakeContext()
    outcomes = []
    for _ in range(STEPS):
        outcome = step(ctx)
        outcomes.append(outcome)
        ctx.record(0, outcome)
    return outcomes


@pytest.mark.parametrize("case", list(CASES))
def test_outcomes_match_eager_scalar_reference(case):
    build, reference = CASES[case]
    parent = np.random.default_rng(2024)
    reference_parent = np.random.default_rng(2024)
    assert _run(build(parent)) == _run(reference(reference_parent))
    # One parent draw per behaviour, exactly as before.
    assert parent.random() == reference_parent.random()


def test_stream_is_created_on_first_draw():
    follower = ConditionFollowerBehavior(np.random.default_rng(3),
                                         ConditionCell())
    biased = BiasedBehavior(np.random.default_rng(3), 0.5)
    pattern = PatternBehavior(np.random.default_rng(3), "10")
    assert follower._rng is None and biased._rng is None
    pattern.next(0, FakeContext())  # no noise: draws nothing
    assert pattern._rng is None
    assert follower.invert == bool(
        _child(np.random.default_rng(3)).integers(0, 2))
    assert follower._rng is not None


@given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
                        min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
       seed=st.integers(0, 2**32 - 1))
def test_cdf_draw_picks_what_choice_picks(weights, seed):
    p = np.asarray(weights) / np.sum(weights)
    cdf = choice_cdf(p)
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert bisect_right(cdf, ours.random()) == int(
            numpys.choice(len(p), p=p))
