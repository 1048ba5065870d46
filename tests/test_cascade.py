"""Tests for the cascaded predictor hierarchy (the conclusion's proposal)."""

import pytest

from conftest import make_vector, simple_loop_trace
from repro.predictors import (
    BimodalPredictor,
    CascadePredictor,
    GsharePredictor,
    LocalPredictor,
    PerceptronPredictor,
)
from repro.sim.driver import simulate


def make_cascade(**kwargs):
    return CascadePredictor(BimodalPredictor(256),
                            GsharePredictor(1024, 6), **kwargs)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_cascade(chooser_entries=100)
        with pytest.raises(ValueError):
            make_cascade(backup_delay=20, misprediction_penalty=14)

    def test_storage_is_sum_plus_chooser(self):
        cascade = make_cascade(chooser_entries=512)
        assert cascade.storage_bits == (BimodalPredictor(256).storage_bits
                                        + GsharePredictor(1024, 6).storage_bits
                                        + 1024)

    def test_name(self):
        assert "cascade" in make_cascade().name


class TestOverrideBehaviour:
    def test_no_override_until_backup_earns_trust(self):
        cascade = make_cascade()
        vector = make_vector(history=0b1)
        # Chooser starts weakly not-taken = distrust the backup.
        primary = cascade.primary.predict(vector)
        assert cascade.predict(vector) == primary

    def test_backup_earns_override_on_alternating_branch(self):
        """A pattern the bimodal primary cannot learn but the gshare backup
        can: after training, the cascade must follow the backup."""
        trace = simple_loop_trace(iterations=600, taken_pattern=[True, False])
        cascade = make_cascade()
        result = simulate(cascade, trace)
        stats = cascade.statistics
        assert stats.final_mispredictions < stats.primary_mispredictions * 0.5
        assert stats.good_overrides > stats.bad_overrides
        assert result.mispredictions == stats.final_mispredictions

    def test_no_overrides_on_trivial_branch(self):
        trace = simple_loop_trace(iterations=300, taken_pattern=[True])
        cascade = make_cascade()
        simulate(cascade, trace)
        # Primary handles it; overrides should be (nearly) absent.
        assert cascade.statistics.overrides <= 2

    def test_override_precision(self):
        trace = simple_loop_trace(iterations=600, taken_pattern=[True, False])
        cascade = make_cascade()
        simulate(cascade, trace)
        assert cascade.statistics.override_precision > 0.8


class TestPipelineCost:
    def test_zero_cost_before_use(self):
        assert make_cascade().pipeline_cost() == 0.0

    def test_backup_reduces_pipeline_cost_when_it_helps(self):
        """The conclusion's trade-off: paying backup_delay redirects to
        avoid full penalties must pay off on a backup-friendly workload."""
        trace = simple_loop_trace(iterations=800, taken_pattern=[True, False])
        with_backup = make_cascade(backup_delay=4, misprediction_penalty=14)
        simulate(with_backup, trace)
        solo = BimodalPredictor(256)
        solo_result = simulate(solo, trace)
        solo_cost = solo_result.mispredictions * 14 / solo_result.branches
        assert with_backup.pipeline_cost() < solo_cost

    def test_realistic_hierarchy_on_workload(self, compress_trace):
        """EV8-style primary + perceptron backup on a real stand-in trace:
        the cascade must never be worse than its primary in accuracy."""
        cascade = CascadePredictor(
            GsharePredictor(1 << 14, 10),
            PerceptronPredictor(512, 20),
            backup_delay=5)
        simulate(cascade, compress_trace)
        stats = cascade.statistics
        assert stats.final_mispredictions <= stats.primary_mispredictions


class TestWithLocalBackup:
    def test_local_backup_catches_local_patterns(self):
        """A local-history backup catches self-correlated branches a global
        primary misses — the 'different information vector types' the
        conclusion suggests."""
        trace = simple_loop_trace(
            iterations=900, taken_pattern=[True, True, True, False, False])
        cascade = CascadePredictor(BimodalPredictor(64),
                                   LocalPredictor(64, 8, 1024))
        simulate(cascade, trace)
        stats = cascade.statistics
        assert stats.final_mispredictions < stats.primary_mispredictions
