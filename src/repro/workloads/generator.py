"""Random program generation from a workload profile.

A :class:`WorkloadProfile` captures, per benchmark, the trace-visible
characteristics that drive branch-predictor behaviour: static branch
footprint, behaviour mix, loop trip counts, correlation depths, noise, and
instruction density.  :func:`generate_program` expands a profile into a
:class:`~repro.workloads.cfg.Program` deterministically (seeded by the
profile name), and :func:`generate_trace` executes it.

The programs are structured as a phase dispatcher (a Markov chain over
functions, modelling a driver loop) over functions containing nested loops
and if-trees, so that:

* dynamic branch frequency is heavily skewed (hot inner loops, cold error
  paths) as in real integer code,
* global history is *usable*: correlated behaviours see stable control
  contexts within phases,
* the address stream is realistic (forward not-taken ifs, backward taken
  loop edges, call/return jumps).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.common.rng import DEFAULT_SEED, choice_cdf, seed_from_name
from repro.traces.model import Trace
from repro.workloads.behaviors import (
    Behavior,
    BiasedBehavior,
    ConditionCell,
    ConditionFollowerBehavior,
    ConditionLeaderBehavior,
    LocalCorrelatedBehavior,
    LoopBehavior,
    MarkovBehavior,
    PatternBehavior,
)
from repro.workloads.cfg import (
    CallNode,
    DispatchNode,
    Function,
    IfNode,
    LoopNode,
    Node,
    Program,
    Sequence,
    StaticBranch,
    Straight,
)

__all__ = ["GENERATOR_VERSION", "BehaviorMix", "WorkloadProfile",
           "generate_program", "generate_trace"]

GENERATOR_VERSION = 5
"""Bumped whenever generation semantics change, to invalidate cached traces.

Version 3: inter-branch correlation is modelled with *condition groups*
(one leader branch computes a fresh condition, several follower branches
re-test it deterministically).  The redundancy of the reflections is the
mechanism that lets the block-compressed lghist carry as much usable
information as full branch history (the paper's Section 8.3 finding), while
the fresh per-activation draw keeps the followers out of reach of
per-branch counters."""


@dataclass(frozen=True)
class BehaviorMix:
    """Relative weights of the behaviour classes assigned to if-branches.

    Loop back-edges always use :class:`LoopBehavior`; these weights apportion
    everything else.
    """

    biased_easy: float = 0.35
    """Strongly biased branches (error checks, guards)."""
    biased_hard: float = 0.10
    """Weakly biased, data-dependent branches."""
    global_shallow: float = 0.25
    """Members of *compact* condition groups: leader and followers sit close
    together, so reflections are shallow in the history."""
    global_deep: float = 0.10
    """Members of *spread* condition groups: members are scattered across
    the program (even across functions), so the nearest reflection sits deep
    in the history — the Fig 6 long-history knob."""
    local_pattern: float = 0.10
    """Short repeating / self-correlated patterns."""
    markov: float = 0.10
    """Phase-switching branches."""

    def as_items(self) -> tuple[list[str], list[float]]:
        pairs = [("biased_easy", self.biased_easy),
                 ("biased_hard", self.biased_hard),
                 ("global_shallow", self.global_shallow),
                 ("global_deep", self.global_deep),
                 ("local_pattern", self.local_pattern),
                 ("markov", self.markov)]
        names = [name for name, _ in pairs]
        weights = np.array([weight for _, weight in pairs], dtype=np.float64)
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError(f"invalid behaviour mix weights: {pairs}")
        return names, list(weights / weights.sum())


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything needed to synthesise one benchmark's program."""

    name: str
    static_branches: int
    """Target static conditional branch count (Table 2 column)."""
    num_functions: int = 12
    mix: BehaviorMix = field(default_factory=BehaviorMix)
    loop_fraction: float = 0.2
    """Fraction of static branches that are loop back-edges."""
    mean_loop_trips: float = 8.0
    loop_trip_sigma: float = 0.8
    """Log-normal sigma of per-loop mean trip counts."""
    loop_jitter: float = 0.2
    leader_concentration: float = 0.8
    """Beta(a, a) parameter for condition-group leader bias: small values
    concentrate leader probabilities near 0/1 (predictable first tests, as
    in database/simulator codes); values >= 1 keep them balanced (hard
    data-dependent conditions, as in go/compress)."""
    group_followers_span: tuple[int, int] = (2, 6)
    """Followers per condition group (inclusive span).  Larger groups mean
    rarer (unpredictable) leaders and more redundancy."""
    noise: float = 0.04
    """Baseline outcome noise on structured behaviours."""
    easy_bias: float = 0.04
    """Not-taken probability margin for strongly biased branches."""
    hard_bias_span: tuple[float, float] = (0.3, 0.7)
    taken_bias_fraction: float = 0.25
    """Fraction of strongly biased branches biased towards taken."""
    mean_lead_instructions: float = 3.0
    """Mean straight-line instructions in front of each branch (controls
    instructions/branch)."""
    else_probability: float = 0.3
    chain_probability: float = 0.25
    """Probability that an if-branch is generated as part of a short chain of
    compare-and-skip guards (consecutive branches with tiny bodies — these
    are what pack several predictions into one fetch block)."""
    max_nest_depth: int = 4
    call_probability: float = 0.08
    dispatch_affinity: float = 0.6
    """Markov self+neighbour affinity of the phase dispatcher."""
    code_base: int = 0x1200_0000
    root_seed: int = DEFAULT_SEED

    def cache_parameters(self) -> dict:
        """Stable dictionary of all generation parameters (trace-cache key)."""
        return {"generator_version": GENERATOR_VERSION, **asdict(self)}

    def with_seed(self, root_seed: int) -> "WorkloadProfile":
        """A copy of the profile with a different root seed (for SMT threads
        running distinct instances of the same program)."""
        return replace(self, root_seed=root_seed)


class _ProgramBuilder:
    """Stateful helper expanding one profile into a Program."""

    def __init__(self, profile: WorkloadProfile) -> None:
        self.profile = profile
        self.rng = np.random.default_rng(
            seed_from_name(profile.name, profile.root_seed))
        self._next_branch_id = 0
        self._behavior_names, weights = profile.mix.as_items()
        self._behavior_cdf = choice_cdf(weights)
        # Open condition groups: (cell, followers still to hand out).
        # Shallow groups are refilled rapidly so their members end up
        # adjacent in the program; deep draws are rare, so one deep group's
        # members spread across the whole program (and across functions).
        self._open_shallow: tuple[ConditionCell, int] | None = None
        self._open_deep: tuple[ConditionCell, int] | None = None

    def _draw_group_member(self, kind: str, noise: float) -> Behavior:
        """Hand out the next member of a condition group (creating the
        group, with its leader, when none is open)."""
        open_attr = "_open_shallow" if kind == "shallow" else "_open_deep"
        state = getattr(self, open_attr)
        if state is None:
            cell = ConditionCell()
            low, high = self.profile.group_followers_span
            followers = int(self.rng.integers(low, high + 1))
            setattr(self, open_attr, (cell, followers))
            a = self.profile.leader_concentration
            p_taken = float(self.rng.beta(a, a))
            return ConditionLeaderBehavior(self.rng, cell, p_taken,
                                           noise=noise)
        cell, remaining = state
        remaining -= 1
        setattr(self, open_attr, None if remaining <= 0 else (cell, remaining))
        return ConditionFollowerBehavior(self.rng, cell, noise=noise)

    def _close_shallow_groups(self) -> None:
        """Shallow groups never span a function boundary."""
        self._open_shallow = None

    # -- primitive draws ---------------------------------------------------

    def _new_branch(self, behavior: Behavior) -> StaticBranch:
        branch = StaticBranch(self._next_branch_id, behavior)
        self._next_branch_id += 1
        return branch

    def _draw_lead(self) -> int:
        mean = max(1.0, self.profile.mean_lead_instructions)
        return int(self.rng.geometric(1.0 / mean))

    def _draw_if_behavior(self, depth: int = 0) -> Behavior:
        profile = self.profile
        # rng.choice(n, p=weights), from the same single draw.
        kind = self._behavior_names[bisect_right(self._behavior_cdf,
                                                 self.rng.random())]
        if kind == "biased_hard" and depth >= 2 and self.rng.random() < 0.7:
            # Deep inner loops are the optimised hot paths; a data-dependent
            # coin-flip there would dominate the whole trace's dynamic mix
            # by sheer execution count.  Most of the time, demote it.
            kind = "biased_easy"
        if kind == "biased_easy":
            if self.rng.random() < profile.taken_bias_fraction:
                p_taken = 1.0 - profile.easy_bias * self.rng.random()
            else:
                p_taken = profile.easy_bias * self.rng.random()
            return BiasedBehavior(self.rng, p_taken)
        if kind == "biased_hard":
            # Hard data-dependent branches.  Real ones are not IID coin
            # flips: their outcomes come in runs or carry weak correlation,
            # so they keep the *history stream* low-entropy while staying
            # mostly unpredictable.  An IID 50/50 branch would poison every
            # history window that contains it and make long histories
            # unusable for everyone else — which is not what SPEC traces
            # look like.
            if self.rng.random() < 0.5:
                persistence = self.rng.uniform(0.60, 0.85)
                return MarkovBehavior(self.rng, persistence, persistence)
            low, high = profile.hard_bias_span
            return BiasedBehavior(self.rng, float(self.rng.uniform(low, high)))
        if kind == "global_shallow":
            return self._draw_group_member("shallow", noise=profile.noise)
        if kind == "global_deep":
            return self._draw_group_member("deep", noise=profile.noise)
        if kind == "local_pattern":
            if self.rng.random() < 0.5:
                period = int(self.rng.integers(2, 7))
                pattern = [bool(b) for b in self.rng.integers(0, 2, period)]
                if all(pattern) or not any(pattern):
                    pattern[0] = not pattern[0]
                return PatternBehavior(self.rng, pattern, noise=profile.noise)
            # Short self-correlation only: long chaotic cycles would be
            # unpredictable by ANY of the paper's predictors and just raise
            # the noise floor.
            depth = int(self.rng.integers(2, 4))
            return LocalCorrelatedBehavior(self.rng, depth,
                                           noise=profile.noise)
        if kind == "markov":
            persistence = self.rng.uniform(0.9, 0.995)
            return MarkovBehavior(self.rng, persistence, persistence,
                                  noise=profile.noise)
        raise AssertionError(f"unknown behaviour kind {kind!r}")

    #: Trip-count ceilings by nesting depth.  Without them, nested loops
    #: multiply into single-phase traces that exercise almost no static
    #: footprint (one function call emitting tens of thousands of branches).
    _TRIP_CAPS = (160, 16, 6, 3)

    def _draw_loop_behavior(self, depth: int) -> LoopBehavior:
        profile = self.profile
        trips = self.rng.lognormal(np.log(profile.mean_loop_trips),
                                   profile.loop_trip_sigma)
        cap = self._TRIP_CAPS[min(depth, len(self._TRIP_CAPS) - 1)]
        # Most real loop bounds are constant within a phase; constant trip
        # counts are what make global-history contexts *recur* and history
        # bits pay off.  Only a minority of loops get data-dependent jitter.
        jitter = (profile.loop_jitter if self.rng.random() < 0.1 else 0.0)
        return LoopBehavior(self.rng, max(1, min(cap, int(round(trips)))),
                            trip_jitter=jitter)

    # -- structure generation ----------------------------------------------

    def _gen_body(self, budget: int, depth: int,
                  callable_functions: list[Function]) -> Node:
        """Generate a body consuming exactly ``budget`` static branches."""
        profile = self.profile
        items: list[Node] = []
        remaining = budget
        while remaining > 0:
            if (callable_functions and depth < 2
                    and self.rng.random() < profile.call_probability):
                callee = callable_functions[int(
                    self.rng.integers(len(callable_functions)))]
                items.append(CallNode(callee))
                # Calls consume no branch budget; continue.
            roll = self.rng.random()
            can_nest = depth < profile.max_nest_depth and remaining >= 2
            if roll < profile.loop_fraction:
                # Loop bodies carry if-branches whenever the budget allows:
                # in real code the branches *inside* the hot loop execute as
                # often as its back-edge, so an empty body would skew the
                # dynamic mix towards taken back-edges.
                inner = 0
                if can_nest:
                    inner = int(self.rng.integers(1, min(remaining, 9)))
                body = (self._gen_body(inner, depth + 1, callable_functions)
                        if inner else Straight(self._draw_lead()))
                branch = self._new_branch(self._draw_loop_behavior(depth))
                items.append(LoopNode(branch, body, lead=self._draw_lead()))
                remaining -= inner + 1
            elif remaining >= 2 and self.rng.random() < profile.chain_probability:
                # A compare-and-skip chain re-testing one freshly computed
                # condition: the canonical condition group.  The leader
                # computes the condition, the following guards re-test it at
                # the same execution frequency and distance — exactly the
                # redundant correlation global-history predictors feed on.
                # Their tiny bodies also pack several predictions into one
                # fetch block (the source of lghist compression).
                chain_len = min(remaining, int(self.rng.integers(3, 8)))
                cell = ConditionCell()
                concentration = profile.leader_concentration
                for position in range(chain_len):
                    if position == 0:
                        behavior: Behavior = ConditionLeaderBehavior(
                            self.rng, cell,
                            float(self.rng.beta(concentration,
                                                concentration)),
                            noise=profile.noise)
                    elif self.rng.random() < 0.60:
                        # Most chain guards are cheap biased checks: the
                        # chain's packing (several branches per fetch block)
                        # is what produces lghist compression, but outcomes
                        # of non-final branches in a block never enter
                        # lghist — so the *correlation* payload must mostly
                        # travel in branches spread across blocks (the body
                        # groups), not inside the chain itself.
                        behavior = BiasedBehavior(
                            self.rng, profile.easy_bias * self.rng.random())
                    else:
                        behavior = ConditionFollowerBehavior(
                            self.rng, cell, noise=profile.noise)
                    branch = self._new_branch(behavior)
                    skip = Straight(int(self.rng.integers(1, 4)))
                    items.append(IfNode(branch, skip, None,
                                        lead=int(self.rng.integers(0, 2))))
                remaining -= chain_len
            else:
                then_budget = 0
                if can_nest and self.rng.random() < 0.5:
                    then_budget = int(self.rng.integers(0, min(remaining, 4)))
                then_body = (self._gen_body(then_budget, depth + 1,
                                            callable_functions)
                             if then_budget else Straight(self._draw_lead()))
                else_body = None
                if self.rng.random() < profile.else_probability:
                    else_body = Straight(self._draw_lead())
                branch = self._new_branch(self._draw_if_behavior(depth))
                items.append(IfNode(branch, then_body, else_body,
                                    lead=self._draw_lead()))
                remaining -= then_budget + 1
            if self.rng.random() < 0.5:
                items.append(Straight(self._draw_lead()))
        # Shallow condition groups never span a body: members must execute
        # at the same frequency for their reflections to stay close.
        self._open_shallow = None
        return Sequence(items)

    def _branch_budgets(self) -> list[int]:
        """Split the static branch budget over functions with a skewed
        (Zipf-like) distribution: a few big functions, many small ones."""
        profile = self.profile
        n = max(1, min(profile.num_functions, profile.static_branches))
        raw = 1.0 / np.arange(1, n + 1) ** 0.8
        self.rng.shuffle(raw)
        shares = raw / raw.sum()
        budgets = np.maximum(1, np.round(shares * profile.static_branches))
        budgets = budgets.astype(int)
        # Adjust rounding drift so the total is exact.
        drift = int(budgets.sum()) - profile.static_branches
        index = 0
        while drift != 0:
            step = -1 if drift > 0 else 1
            if budgets[index % n] + step >= 1:
                budgets[index % n] += step
                drift += step
            index += 1
        return [int(b) for b in budgets]

    def _dispatch_matrix(self, n: int) -> np.ndarray:
        """Markov transitions between phases: high affinity for the same and
        the next function, small uniform leak everywhere."""
        affinity = self.profile.dispatch_affinity
        matrix = np.full((n, n), (1.0 - affinity) / n, dtype=np.float64)
        for i in range(n):
            matrix[i, i] += affinity / 2
            matrix[i, (i + 1) % n] += affinity / 2
        return matrix / matrix.sum(axis=1, keepdims=True)

    def build(self) -> Program:
        functions: list[Function] = []
        for index, budget in enumerate(self._branch_budgets()):
            body = self._gen_body(budget, depth=0,
                                  callable_functions=functions[:index])
            functions.append(Function(f"f{index}", body))
            self._close_shallow_groups()
        dispatch = DispatchNode(self.rng, functions,
                                self._dispatch_matrix(len(functions)))
        return Program(self.profile.name, functions, dispatch,
                       code_base=self.profile.code_base)


def generate_program(profile: WorkloadProfile) -> Program:
    """Deterministically expand a profile into a laid-out program."""
    return _ProgramBuilder(profile).build()


def generate_trace(profile: WorkloadProfile, num_branches: int) -> Trace:
    """Generate a program from ``profile`` and execute it for
    ``num_branches`` dynamic conditional branches."""
    if num_branches < 1:
        raise ValueError(f"num_branches must be >= 1, got {num_branches}")
    return generate_program(profile).run(num_branches)
