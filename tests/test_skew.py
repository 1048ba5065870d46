"""Tests for the skewed-indexing function family (Seznec-Bodin)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexing.skew import (
    SKEW_FUNCTION_COUNT,
    h_function,
    h_inverse,
    skew_index,
)

widths = st.integers(min_value=2, max_value=24)


class TestHFunction:
    def test_known_values(self):
        # H on 4 bits: 0b1000 -> shift left (drops to 0b0000) with feedback
        # bit x3^x2 = 1.
        assert h_function(0b1000, 4) == 0b0001
        assert h_function(0b0100, 4) == 0b1001
        assert h_function(0b0001, 4) == 0b0010

    def test_rejects_width_below_two(self):
        with pytest.raises(ValueError):
            h_function(1, 1)
        with pytest.raises(ValueError):
            h_inverse(1, 0)

    @given(widths)
    @settings(max_examples=20, deadline=None)
    def test_bijective_exhaustive_small(self, width):
        width = min(width, 12)
        images = {h_function(x, width) for x in range(1 << width)}
        assert len(images) == 1 << width

    @given(st.integers(0, 2**24 - 1), widths)
    def test_inverse_round_trip(self, value, width):
        value &= (1 << width) - 1
        assert h_inverse(h_function(value, width), width) == value
        assert h_function(h_inverse(value, width), width) == value

    def test_h_is_not_identity(self):
        differing = sum(1 for x in range(256) if h_function(x, 8) != x)
        assert differing > 250


class TestSkewIndex:
    def test_known_values(self):
        # v1 = 0x4C, v2 = 0xB7 on 8 bits: H(v1) = 153, Hinv(v2) = 91,
        # Hinv(v1) = 38, H(v2) = 111.
        assert [skew_index(rank, 0xB74C, 8) for rank in range(4)] == [
            153 ^ 91 ^ 0xB7, 153 ^ 91 ^ 0x4C, 38 ^ 111 ^ 0xB7, 38 ^ 111 ^ 0x4C]
        assert (h_function(0x4C, 8), h_inverse(0xB7, 8),
                h_inverse(0x4C, 8), h_function(0xB7, 8)) == (153, 91, 38, 111)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            skew_index(4, 0, 8)
        with pytest.raises(ValueError):
            skew_index(-1, 0, 8)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 16))
    def test_result_in_range(self, info, width):
        for rank in range(SKEW_FUNCTION_COUNT):
            assert 0 <= skew_index(rank, info, width) < (1 << width)

    def test_functions_differ(self):
        # The four functions must disagree on most inputs — that is the
        # whole point of skewing.
        width = 10
        info_values = range(0, 4096, 7)
        for rank_a in range(SKEW_FUNCTION_COUNT):
            for rank_b in range(rank_a + 1, SKEW_FUNCTION_COUNT):
                agreements = sum(
                    1 for info in info_values
                    if skew_index(rank_a, info, width)
                    == skew_index(rank_b, info, width))
                assert agreements < len(list(info_values)) * 0.2

    def test_interbank_dispersion(self):
        """Two information words colliding in one bank should rarely collide
        in another (the property Section 7.2 cites from [17])."""
        width = 8
        pairs_checked = 0
        double_collisions = 0
        words = list(range(0, 1 << 16, 251))
        buckets: dict[int, list[int]] = {}
        for word in words:
            buckets.setdefault(skew_index(0, word, width), []).append(word)
        for bucket in buckets.values():
            for i in range(len(bucket)):
                for j in range(i + 1, len(bucket)):
                    pairs_checked += 1
                    if (skew_index(1, bucket[i], width)
                            == skew_index(1, bucket[j], width)):
                        double_collisions += 1
        assert pairs_checked > 50  # the test is meaningful
        # Random chance of a second collision is 1/256; allow generous slack.
        assert double_collisions <= pairs_checked * 0.05

    def test_single_bit_flip_changes_index(self):
        width = 12
        base = 0b1010_1100_0011_0101_1001_0110
        for rank in range(SKEW_FUNCTION_COUNT):
            reference = skew_index(rank, base, width)
            changed = sum(
                1 for bit in range(2 * width)
                if skew_index(rank, base ^ (1 << bit), width) != reference)
            # Every input bit must influence the index.
            assert changed == 2 * width
