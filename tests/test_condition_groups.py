"""Tests for condition groups — the correlation substrate of the synthetic
workloads."""

import numpy as np
import pytest

from repro.workloads.behaviors import (
    ConditionCell,
    ConditionFollowerBehavior,
    ConditionLeaderBehavior,
)


class FakeContext:
    def __init__(self):
        self.global_history = 0
        self.counts = {}

    def occurrence(self, branch_id):
        return self.counts.get(branch_id, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(21)


@pytest.fixture
def ctx():
    return FakeContext()


class TestConditionGroups:
    def test_leader_publishes_to_cell(self, rng, ctx):
        cell = ConditionCell()
        leader = ConditionLeaderBehavior(rng, cell, p_taken=1.0)
        assert leader.next(0, ctx) is True
        assert cell.value is True

    def test_follower_copies_cell(self, rng, ctx):
        cell = ConditionCell()
        leader = ConditionLeaderBehavior(rng, cell, p_taken=0.5)
        follower = ConditionFollowerBehavior(rng, cell, invert=False)
        for _ in range(50):
            outcome = leader.next(0, ctx)
            assert follower.next(1, ctx) == outcome
            assert follower.next(1, ctx) == outcome  # stable until redraw

    def test_inverted_follower(self, rng, ctx):
        cell = ConditionCell()
        leader = ConditionLeaderBehavior(rng, cell, p_taken=0.5)
        follower = ConditionFollowerBehavior(rng, cell, invert=True)
        for _ in range(20):
            outcome = leader.next(0, ctx)
            assert follower.next(1, ctx) == (not outcome)

    def test_leader_draw_rate(self, rng, ctx):
        cell = ConditionCell()
        leader = ConditionLeaderBehavior(rng, cell, p_taken=0.2)
        rate = sum(leader.next(0, ctx) for _ in range(5000)) / 5000
        assert rate == pytest.approx(0.2, abs=0.03)

    def test_leader_validates_probability(self, rng):
        with pytest.raises(ValueError):
            ConditionLeaderBehavior(rng, ConditionCell(), p_taken=1.5)

    def test_follower_random_inversion_is_deterministic_per_seed(self, ctx):
        cell = ConditionCell()
        a = ConditionFollowerBehavior(np.random.default_rng(5), cell)
        b = ConditionFollowerBehavior(np.random.default_rng(5), cell)
        assert a.invert == b.invert


class TestGroupsInPrograms:
    def test_followers_capturable_by_history_not_counters(self, rng):
        """The design property: a balanced-leader group's followers defeat a
        bimodal counter but fall to a history predictor."""
        from repro.predictors import BimodalPredictor, GsharePredictor
        from repro.sim.driver import simulate
        from repro.workloads.cfg import (
            DispatchNode, Function, IfNode, LoopNode, Program, Sequence,
            StaticBranch, Straight)
        from repro.workloads.behaviors import LoopBehavior

        cell = ConditionCell()
        leader = IfNode(StaticBranch(0, ConditionLeaderBehavior(
            rng, cell, 0.5)), Straight(2), lead=1)
        followers = [IfNode(StaticBranch(i + 1, ConditionFollowerBehavior(
            rng, cell)), Straight(2), lead=2) for i in range(3)]
        body = Sequence([leader] + followers)
        loop = LoopNode(StaticBranch(9, LoopBehavior(rng, 1_000_000)), body)
        function = Function("f", loop)
        program = Program("groups", [function],
                          DispatchNode(rng, [function], np.array([[1.0]])),
                          code_base=0x2000)
        trace = program.run(30_000)
        bimodal = simulate(BimodalPredictor(1 << 12), trace)
        gshare = simulate(GsharePredictor(1 << 12, 8), trace)
        # 4 of 5 branches per iteration relate to the condition; the
        # followers are free accuracy for the history predictor only.
        assert gshare.mispredictions < bimodal.mispredictions * 0.55
