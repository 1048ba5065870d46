"""Synthetic workloads: behaviour models, program generation, SPECINT95
stand-in profiles, SMT interleaving."""

from repro.workloads.behaviors import (
    Behavior,
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
from repro.workloads.smt import SMTResult, interleave_blocks, simulate_smt
from repro.workloads.generator import (
    BehaviorMix,
    WorkloadProfile,
    generate_program,
    generate_trace,
)
from repro.workloads.spec95 import (
    SPEC95_BENCHMARKS,
    TABLE2_DYNAMIC_PER_KI,
    TABLE2_STATIC_BRANCHES,
    default_trace_branches,
    profile_for,
    spec95_profiles,
    spec95_trace,
    spec95_traces,
)

__all__ = [
    "Behavior",
    "BiasedBehavior",
    "ConditionCell",
    "ConditionFollowerBehavior",
    "ConditionLeaderBehavior",
    "SMTResult",
    "interleave_blocks",
    "simulate_smt",
    "GlobalCorrelatedBehavior",
    "LocalCorrelatedBehavior",
    "LoopBehavior",
    "MarkovBehavior",
    "PatternBehavior",
    "BehaviorMix",
    "WorkloadProfile",
    "generate_program",
    "generate_trace",
    "SPEC95_BENCHMARKS",
    "TABLE2_DYNAMIC_PER_KI",
    "TABLE2_STATIC_BRANCHES",
    "default_trace_branches",
    "profile_for",
    "spec95_profiles",
    "spec95_trace",
    "spec95_traces",
]
