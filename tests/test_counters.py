"""Tests for the split prediction/hysteresis counter arrays (Sections
4.3-4.4 of the paper)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.counters import SplitCounterArray
from repro.obs import Telemetry


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SplitCounterArray(48)

    def test_rejects_non_power_of_two_hysteresis(self):
        with pytest.raises(ValueError):
            SplitCounterArray(64, 48)

    def test_rejects_hysteresis_larger_than_prediction(self):
        with pytest.raises(ValueError):
            SplitCounterArray(64, 128)

    def test_default_initial_state_weak_not_taken(self):
        array = SplitCounterArray(16)
        for index in range(16):
            assert array.counter_value(index) == 1  # weak not-taken
            assert not array.predict(index)

    def test_init_taken(self):
        array = SplitCounterArray(16, init_taken=True)
        for index in range(16):
            assert array.counter_value(index) == 2  # weak taken
            assert array.predict(index)

    @pytest.mark.parametrize("init_taken", [False, True])
    def test_fresh_buffers(self, init_taken):
        array = SplitCounterArray(1024, 256, init_taken=init_taken)
        assert type(array._prediction) is bytearray
        assert array._prediction == bytes([int(init_taken)]) * 1024
        assert array._hysteresis == bytes(256)

    @pytest.mark.parametrize("init_taken", [False, True])
    def test_arrays_never_share_buffers(self, init_taken):
        first = SplitCounterArray(64, init_taken=init_taken)
        second = SplitCounterArray(64, init_taken=init_taken)
        first.set_counter(5, 0 if init_taken else 3)
        assert second.counter_value(5) == (2 if init_taken else 1)
        assert second._prediction == bytes([int(init_taken)]) * 64
        assert second._hysteresis == bytes(64)

    def test_storage_accounting(self):
        assert SplitCounterArray(64).storage_bits == 128
        assert SplitCounterArray(64, 32).storage_bits == 96
        assert len(SplitCounterArray(64)) == 64


class TestSaturatingSemantics:
    """The update must follow the conventional 2-bit automaton in the
    (prediction, hysteresis) encoding."""

    def test_full_walk_up(self):
        array = SplitCounterArray(4)
        array.set_counter(0, 0)  # strong not-taken
        expected = [1, 2, 3, 3]  # weak NT -> weak T -> strong T -> saturate
        for value in expected:
            array.update(0, True)
            assert array.counter_value(0) == value

    def test_full_walk_down(self):
        array = SplitCounterArray(4)
        array.set_counter(0, 3)
        expected = [2, 1, 0, 0]
        for value in expected:
            array.update(0, False)
            assert array.counter_value(0) == value

    def test_direction_flip_lands_weak(self):
        array = SplitCounterArray(4)
        array.set_counter(0, 1)  # weak not-taken
        array.update(0, True)
        assert array.counter_value(0) == 2  # weak taken, not strong

    @given(st.integers(0, 3), st.lists(st.booleans(), max_size=30))
    def test_matches_reference_automaton(self, start, outcomes):
        array = SplitCounterArray(4)
        array.set_counter(1, start)
        reference = start
        for taken in outcomes:
            array.update(1, taken)
            reference = min(3, reference + 1) if taken else max(0, reference - 1)
            assert array.counter_value(1) == reference
            assert array.predict(1) == (reference >= 2)


class TestStrengthen:
    def test_strengthen_sets_hysteresis_only(self):
        array = SplitCounterArray(4)
        array.set_counter(0, 2)  # weak taken
        array.strengthen(0, True)
        assert array.counter_value(0) == 3
        # Idempotent.
        array.strengthen(0, True)
        assert array.counter_value(0) == 3

    def test_strengthen_against_direction_weakens(self):
        # Can happen when a majority vote was right but this bank was wrong.
        array = SplitCounterArray(4)
        array.set_counter(0, 3)  # strong taken
        array.strengthen(0, False)
        assert array.counter_value(0) == 2  # weakened one step


class TestSharedHysteresis:
    """Section 4.4: two prediction entries share one hysteresis entry; the
    index differs only in the most significant bit."""

    def test_partner_enumeration(self):
        array = SplitCounterArray(8, 4)
        assert array.sharing_partners(1) == [1, 5]
        assert array.sharing_partners(5) == [1, 5]
        private = SplitCounterArray(8)
        assert private.sharing_partners(3) == [3]

    def test_shared_strength_is_visible_to_partner(self):
        array = SplitCounterArray(8, 4)
        array.set_counter(0, 3)  # strong taken -> shared hysteresis set
        # Partner entry 4 keeps its own direction but sees the hysteresis.
        assert array.predict(4) is False
        assert array.hysteresis(4) is True
        # So the partner is now effectively STRONG not-taken.
        assert array.counter_value(4) == 0

    def test_partner_reset_scenario_from_paper(self):
        """The Section 4.4 aliasing scenario: A keeps resetting the shared
        hysteresis bit, but two consecutive accesses to B with no
        intermediate access to A still let B flip its prediction bit."""
        array = SplitCounterArray(8, 4)
        a_index, b_index = 0, 4
        # B is biased not-taken but currently predicts taken (wrong
        # direction); A trains strongly taken (setting the shared bit).
        array.set_counter(b_index, 2)
        array.set_counter(a_index, 3)
        # B mispredicts: first update clears the shared hysteresis...
        array.update(b_index, False)
        assert array.predict(b_index) is True  # still wrong
        # ...A interferes by re-strengthening...
        array.strengthen(a_index, True)
        assert array.hysteresis(b_index) is True
        # ...but two consecutive B accesses fix B regardless.
        array.update(b_index, False)
        array.update(b_index, False)
        assert array.predict(b_index) is False

    def test_reset(self):
        array = SplitCounterArray(8, 4)
        buffers = (array._prediction, array._hysteresis)
        array.set_counter(2, 3)
        array.reset()
        assert array.counter_value(2) == 1
        array.set_counter(2, 0)
        array.reset(init_taken=True)
        assert [array.counter_value(i) for i in range(8)] == [2] * 8
        assert array._prediction is buffers[0]
        assert array._hysteresis is buffers[1]

    def test_set_counter_rejects_out_of_range(self):
        array = SplitCounterArray(4)
        with pytest.raises(ValueError):
            array.set_counter(0, 4)


class TestIndexWrapping:
    def test_indices_wrap_modulo_size(self):
        array = SplitCounterArray(8)
        array.set_counter(3, 3)
        assert array.predict(3 + 8) is True
        assert array.counter_value(3 + 16) == 3


def _scalar_replay(size, hysteresis_size, indices, takens, sink=None):
    """Reference: predict-then-update one access at a time."""
    array = SplitCounterArray(size, hysteresis_size)
    if sink is not None:
        array.attach_telemetry(sink)
    predictions = []
    for index, taken in zip(indices, takens):
        predictions.append(array.predict(int(index)))
        array.update(int(index), bool(taken))
    return array, predictions


def _random_stream(size, length, seed=0):
    rng = np.random.default_rng(seed)
    # Skewed indices so hysteresis groups see real collision runs.
    indices = (rng.integers(0, size, size=length)
               & rng.integers(0, size, size=length))
    takens = rng.random(length) < 0.7
    return indices.astype(np.int64), takens


def _assert_replay_with_telemetry(size, hysteresis_size):
    """Predictions, both buffers and every ``bank.*`` counter,
    ``sharing_conflicts`` included, equal the scalar walk's."""
    indices, takens = _random_stream(size, 3000, seed=hysteresis_size)
    scalar_sink, batched_sink = Telemetry(), Telemetry()
    reference, expected = _scalar_replay(size, hysteresis_size, indices,
                                         takens, scalar_sink)
    array = SplitCounterArray(size, hysteresis_size)
    array.attach_telemetry(batched_sink)
    assert array.batch_access(indices, takens).tolist() == expected
    assert array._prediction == reference._prediction
    assert array._hysteresis == reference._hysteresis
    counters = scalar_sink.snapshot()["counters"]
    assert counters["bank.counters.sharing_conflicts"] > 0
    assert batched_sink.snapshot()["counters"] == counters


class TestBatchAccess:
    """``batch_access`` must replay a whole stream bit-identically to the
    scalar predict/update walk — including shared/half-size hysteresis,
    where partners couple through one strength bit (Section 4.4)."""

    @pytest.mark.parametrize("size,hysteresis_size",
                             [(64, 64), (64, 32), (64, 16), (128, 32),
                              (16, 4), (8, 2)])
    def test_matches_scalar_replay(self, size, hysteresis_size):
        indices, takens = _random_stream(size, 3000, seed=size)
        reference, expected = _scalar_replay(size, hysteresis_size,
                                             indices, takens)
        array = SplitCounterArray(size, hysteresis_size)
        predictions = array.batch_access(indices, takens)
        assert predictions.tolist() == expected
        assert array._prediction == reference._prediction
        assert array._hysteresis == reference._hysteresis

    def test_chunking_does_not_change_results(self):
        """Replaying a stream in two ``batch_access`` calls equals replaying
        it in one: the table state carries across calls."""
        indices, takens = _random_stream(64, 2000, seed=7)
        whole = SplitCounterArray(64, 16)
        split = SplitCounterArray(64, 16)
        whole_predictions = whole.batch_access(indices, takens)
        split_predictions = np.concatenate(
            [split.batch_access(indices[:700], takens[:700]),
             split.batch_access(indices[700:], takens[700:])])
        assert (whole_predictions == split_predictions).all()
        assert whole._prediction == split._prediction
        assert whole._hysteresis == split._hysteresis

    def test_partner_interference_through_shared_bit(self):
        """The Section 4.4 aliasing scenario, replayed in one batch: hammering
        entry A must leak strength into partner B exactly as it does
        scalar-wise."""
        size, hysteresis_size = 8, 4
        a_index, b_index = 0, 4  # sharing partners
        indices = np.array([a_index] * 5 + [b_index, a_index, b_index] * 10,
                           dtype=np.int64)
        takens = np.array([True] * 5 + [False, True, False] * 10)
        reference, expected = _scalar_replay(size, hysteresis_size,
                                             indices, takens)
        array = SplitCounterArray(size, hysteresis_size)
        predictions = array.batch_access(indices, takens)
        assert predictions.tolist() == expected
        assert array._prediction == reference._prediction
        assert array._hysteresis == reference._hysteresis

    @given(st.lists(st.tuples(st.integers(0, 15), st.booleans()),
                    max_size=60))
    def test_matches_scalar_replay_hypothesis(self, accesses):
        indices = np.array([index for index, _ in accesses], dtype=np.int64)
        takens = np.array([taken for _, taken in accesses], dtype=np.bool_)
        reference, expected = _scalar_replay(16, 4, indices, takens)
        array = SplitCounterArray(16, 4)
        predictions = array.batch_access(indices, takens)
        assert predictions.tolist() == expected
        assert array._prediction == reference._prediction
        assert array._hysteresis == reference._hysteresis

    @pytest.mark.parametrize("size,hysteresis_size", [(64, 32), (64, 16)])
    def test_shared_hysteresis_telemetry_matches_scalar(self, size,
                                                        hysteresis_size):
        _assert_replay_with_telemetry(size, hysteresis_size)

    def test_ratio_32_matches_scalar_replay(self):
        """A sharing ratio far beyond the paper's 2 is inside the
        envelope."""
        assert SplitCounterArray(256, 8).batch_supported
        _assert_replay_with_telemetry(256, 8)

    def test_ev8_ratio_two_is_supported(self):
        # The paper's G0/Meta configuration: half-size hysteresis.
        assert SplitCounterArray(1 << 16, 1 << 15).batch_supported

