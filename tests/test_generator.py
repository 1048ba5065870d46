"""Tests for random program generation from workload profiles."""

import functools
from dataclasses import fields, replace

import pytest

from conftest import trace_digest
from repro.traces.io import TraceCache
from repro.workloads.generator import (
    BehaviorMix,
    WorkloadProfile,
    generate_program,
    generate_trace,
)
from repro.workloads.spec95 import spec95_profiles


def small_profile(**overrides) -> WorkloadProfile:
    defaults = dict(name="unit", static_branches=40, num_functions=4)
    defaults.update(overrides)
    return WorkloadProfile(**defaults)


# A clearly different value for every WorkloadProfile field.
CHANGED_FIELDS = {
    "name": "unit-renamed",
    "static_branches": 80,
    "num_functions": 8,
    "mix": BehaviorMix(markov=0.9),
    "loop_fraction": 0.6,
    "mean_loop_trips": 30.0,
    "loop_trip_sigma": 0.1,
    "loop_jitter": 0.0,
    "leader_concentration": 5.0,
    "group_followers_span": (10, 14),
    "noise": 0.3,
    "easy_bias": 0.3,
    "hard_bias_span": (0.05, 0.15),
    "taken_bias_fraction": 0.9,
    "mean_lead_instructions": 12.0,
    "else_probability": 0.9,
    "chain_probability": 0.9,
    "max_nest_depth": 1,
    "call_probability": 0.5,
    "dispatch_affinity": 0.05,
    "code_base": 0x4000_0000,
    "root_seed": 99,
}


@functools.cache
def _digest(profile: WorkloadProfile) -> str:
    return trace_digest(generate_trace(profile, 4000))


class TestBehaviorMix:
    def test_weights_normalised(self):
        names, weights = BehaviorMix().as_items()
        assert len(names) == 6
        assert sum(weights) == pytest.approx(1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            BehaviorMix(biased_easy=-1.0).as_items()

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            BehaviorMix(biased_easy=0, biased_hard=0, global_shallow=0,
                        global_deep=0, local_pattern=0, markov=0).as_items()


class TestGeneration:
    def test_static_branch_budget_exact(self):
        program = generate_program(small_profile())
        assert len(program.static_branches()) == 40

    def test_budget_exact_for_various_sizes(self):
        for count in (1, 2, 7, 100, 333):
            program = generate_program(
                small_profile(static_branches=count,
                              num_functions=min(6, count)))
            assert len(program.static_branches()) == count

    def test_deterministic(self):
        a = generate_trace(small_profile(), 2000)
        b = generate_trace(small_profile(), 2000)
        assert a.branches() == b.branches()
        assert list(a.starts) == list(b.starts)

    def test_different_seed_different_trace(self):
        a = generate_trace(small_profile(), 2000)
        b = generate_trace(small_profile(root_seed=999), 2000)
        assert a.branches() != b.branches()

    def test_different_name_different_program(self):
        a = generate_trace(small_profile(name="one"), 1000)
        b = generate_trace(small_profile(name="two"), 1000)
        assert a.branches() != b.branches()

    def test_trace_length(self):
        trace = generate_trace(small_profile(), 5000)
        assert trace.conditional_count == 5000

    def test_rejects_zero_branches(self):
        with pytest.raises(ValueError):
            generate_trace(small_profile(), 0)

    def test_all_branch_ids_unique(self):
        program = generate_program(small_profile(static_branches=200,
                                                 num_functions=8))
        ids = [branch.branch_id for branch in program.static_branches()]
        assert len(ids) == len(set(ids))

    def test_all_branches_have_addresses(self):
        program = generate_program(small_profile())
        assert all(branch.pc >= program.code_base
                   for branch in program.static_branches())

    def test_exercised_static_subset_of_program(self):
        profile = small_profile(static_branches=150, num_functions=6)
        program = generate_program(profile)
        trace = program.run(3000)
        program_pcs = {branch.pc for branch in program.static_branches()}
        assert trace.static_conditional_pcs() <= program_pcs

    def test_lead_instruction_knob_changes_density(self):
        sparse = generate_trace(small_profile(mean_lead_instructions=10.0),
                                4000)
        dense = generate_trace(small_profile(mean_lead_instructions=1.5),
                               4000)
        sparse_density = sparse.instruction_count / sparse.conditional_count
        dense_density = dense.instruction_count / dense.conditional_count
        assert sparse_density > dense_density * 1.3

    def test_contiguous_address_stream(self):
        from repro.traces.model import TerminatorKind
        trace = generate_trace(small_profile(static_branches=120,
                                             num_functions=6), 5000)
        previous = None
        for block in trace.blocks():
            if previous is not None:
                expected = (previous.end
                            if previous.kind == TerminatorKind.FALLTHROUGH
                            else previous.next_start)
                assert block.start == expected
            previous = block


class TestProfileHelpers:
    def test_cache_parameters_stable_and_complete(self):
        profile = small_profile()
        params = profile.cache_parameters()
        assert params == small_profile().cache_parameters()
        assert params["name"] == "unit"
        assert isinstance(params["mix"], dict)
        assert "biased_easy" in params["mix"]

    def test_stand_in_cache_keys_unchanged(self, tmp_path):
        # Pinned trace-cache keys of the eight stand-ins at the default
        # length, so existing caches stay valid across refactors.
        cache = TraceCache(tmp_path)
        keys = {name: cache._key(name, {**profile.cache_parameters(),
                                        "num_branches": 300_000})
                for name, profile in spec95_profiles().items()}
        assert keys == {
            "compress": "compress-v1-74f4e1f26bdf75fe",
            "gcc": "gcc-v1-cb79c017d5e482f7",
            "go": "go-v1-8cbc6458467a9f6d",
            "ijpeg": "ijpeg-v1-7c5c0870a93c2d14",
            "li": "li-v1-9437d8c274bb92e0",
            "m88ksim": "m88ksim-v1-c21c2fa799047e25",
            "perl": "perl-v1-dbb3995fbe63b387",
            "vortex": "vortex-v1-2cbff9a0266c38ea",
        }

    @pytest.mark.parametrize("field",
                             [field.name for field in fields(WorkloadProfile)])
    def test_every_field_changes_the_trace(self, field):
        # Every field is part of the trace-cache key, so each must shape
        # the generated trace; a field the generator ignores only splits
        # the cache.  120 static branches draw every behaviour class.
        profile = small_profile(static_branches=120)
        changed = replace(profile, **{field: CHANGED_FIELDS[field]})
        assert _digest(changed) != _digest(profile)

    def test_with_seed(self):
        profile = small_profile()
        reseeded = profile.with_seed(123)
        assert reseeded.root_seed == 123
        assert reseeded.name == profile.name
