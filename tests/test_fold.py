"""Tests for information-word construction and gshare indexing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.indexing.fold import PC_FIELD_BITS, gshare_index, info_word


class TestInfoWord:
    def test_pure_address_hash_when_no_history(self):
        assert info_word(0x1000, 0xFFFF, 0, 16) == info_word(0x1000, 0, 0, 16)

    def test_history_changes_word(self):
        with_history = info_word(0x1000, 0b1011, 4, 16)
        without = info_word(0x1000, 0, 4, 16)
        assert with_history != without

    def test_history_masked_to_length(self):
        a = info_word(0x1000, 0b1111_0011, 4, 16)
        b = info_word(0x1000, 0b0000_0011, 4, 16)
        assert a == b

    def test_path_field(self):
        with_path = info_word(0x1000, 0b1, 1, 16, path=0x3F, path_bits=6)
        without = info_word(0x1000, 0b1, 1, 16)
        assert with_path != without
        # Zero path bits means the path argument is ignored.
        assert info_word(0x1000, 0b1, 1, 16, path=0x3F) == without

    def test_validation(self):
        with pytest.raises(ValueError):
            info_word(0, 0, -1, 16)
        with pytest.raises(ValueError):
            info_word(0, 0, 0, 0)

    @given(st.integers(0, 2**30), st.integers(0, 2**40), st.integers(0, 40),
           st.integers(1, 24))
    def test_fits_width(self, pc, history, history_length, width):
        assert 0 <= info_word(pc, history, history_length, width) < (1 << width)

    def test_pc_bits_beyond_field_ignored(self):
        low = info_word(0x1000, 0, 0, 16)
        high = info_word(0x1000 + (1 << (PC_FIELD_BITS + 2)), 0, 0, 16)
        assert low == high


class TestGshareIndex:
    def test_zero_history_is_pc(self):
        assert gshare_index(0x40, 0b1111, 0, 10) == 0x10

    def test_short_history_aligned_to_msbs(self):
        # history length 2, width 8: history occupies bits 7..6.
        index = gshare_index(0x0, 0b11, 2, 8)
        assert index == 0b1100_0000

    def test_long_history_folded(self):
        index = gshare_index(0x0, (1 << 12) | 1, 16, 8)
        # fold of 0b1_0000_0000_0001 over 8 bits: 0b0001_0000 ^ 0b0000_0001.
        assert index == 0b0001_0001

    def test_full_length_history_xors_pc(self):
        assert gshare_index(0xFF << 2, 0xFF, 8, 8) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gshare_index(0, 0, 4, 0)

    @given(st.integers(0, 2**30), st.integers(0, 2**40), st.integers(0, 40),
           st.integers(1, 24))
    def test_fits_width(self, pc, history, history_length, width):
        assert 0 <= gshare_index(pc, history, history_length, width) < (1 << width)


class TestKnownAnswers:
    """Fixed vectors pinned to their indices.  The batched engine compiles
    its index streams from these scalar functions, so a scalar/batched
    comparison cannot catch a bug in them; these pins (and the golden
    misprediction counts) can."""

    @pytest.mark.parametrize("args,expected", [
        ((0x1234, 0b1011, 4, 10, 0b11, 2), 183),
        ((0xDEADBEEC, 0x3FFFF, 18, 16), 36991),
        ((0x401000, 0x5A5A5A5A5A, 40, 13, 0x2D, 6), 1657),
        ((0xFFFC, 0, 0, 7), 0),
    ])
    def test_info_word(self, args, expected):
        assert info_word(*args) == expected

    @pytest.mark.parametrize("args,expected", [
        ((0x1234, 0b101, 3, 10), 0b0010001101 ^ 0b1010000000),
        ((0x1234, 0x3FF, 10, 10), 0b0010001101 ^ 0x3FF),
        ((0xABCDE8, 0x12345, 17, 12), 0x37A ^ 0x345 ^ 0x12),
        ((0x8000, 0, 0, 8), 0),
    ])
    def test_gshare_index(self, args, expected):
        assert gshare_index(*args) == expected
