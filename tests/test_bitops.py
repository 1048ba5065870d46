"""Unit and property tests for repro.common.bitops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bitops import bit, bits, mask, xor_fold

values = st.integers(min_value=0, max_value=2**80 - 1)
widths = st.integers(min_value=1, max_value=64)


class TestMask:
    def test_small_masks(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(4) == 0b1111
        assert mask(16) == 0xFFFF

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)

    @given(widths)
    def test_mask_has_width_bits(self, width):
        assert mask(width).bit_length() == width
        assert mask(width).bit_count() == width


class TestBitAccess:
    def test_bit_extraction(self):
        assert bit(0b1010, 0) == 0
        assert bit(0b1010, 1) == 1
        assert bit(0b1010, 3) == 1
        assert bit(0b1010, 10) == 0

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            bit(1, -1)

    def test_bits_field(self):
        assert bits(0xABCD, 4, 8) == 0xBC
        assert bits(0xABCD, 0, 4) == 0xD
        assert bits(0xABCD, 12, 4) == 0xA

    def test_bits_zero_width(self):
        assert bits(0xFFFF, 3, 0) == 0


class TestXorFold:
    def test_identity_when_short(self):
        assert xor_fold(0b101, 8) == 0b101

    def test_fold_two_segments(self):
        assert xor_fold(0xF0 << 8 | 0x0F, 8) == 0xFF

    def test_zero(self):
        assert xor_fold(0, 16) == 0

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            xor_fold(5, 0)

    @given(values, widths)
    def test_result_fits_width(self, value, width):
        assert 0 <= xor_fold(value, width) < (1 << width)

    @given(values, values, widths)
    def test_fold_is_xor_homomorphic(self, a, b, width):
        # Folding distributes over XOR — the property that makes folded
        # indices stable under partial history updates.
        assert xor_fold(a ^ b, width) == xor_fold(a, width) ^ xor_fold(b, width)
