"""Tests for the EV8 hardware-constrained index functions (Section 7)."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import batch_rows, make_vector, vector_batches
from repro.ev8.config import EV8_CONFIG
from repro.ev8.indexfuncs import EV8IndexScheme, decompose_index
from repro.history.providers import VectorBatch

CONFIGS = EV8_CONFIG.tables()


def indices_for(vector, scheme=None):
    scheme = scheme or EV8IndexScheme()
    return scheme.compute(vector, CONFIGS)


class TestDecompose:
    def test_field_extraction(self):
        index = (0b10110 << 11) | (0b011010 << 5) | (0b101 << 2) | 0b10
        bank, offset, line, column = decompose_index(index)
        assert bank == 0b10
        assert offset == 0b101
        assert line == 0b011010
        assert column == 0b10110

    def test_bim_column_width(self):
        index = (0b111 << 11) | 0
        assert decompose_index(index, column_bits=3)[3] == 0b111


class TestIndexRanges:
    def test_indices_fit_table_sizes(self):
        for history in (0, 0x155555, 0x1FFFFF):
            for pc in (0x1000, 0x12345678 & ~3, 0x7FFC):
                vector = make_vector(pc=pc, history=history,
                                     path=(0x2040, 0x1100, 0x880), bank=2)
                bim, g0, g1, meta = indices_for(vector)
                assert 0 <= bim < CONFIGS[0].entries
                assert 0 <= g0 < CONFIGS[1].entries
                assert 0 <= g1 < CONFIGS[2].entries
                assert 0 <= meta < CONFIGS[3].entries

    def test_validation(self):
        with pytest.raises(ValueError):
            EV8IndexScheme(wordline_mode="diagonal")


class TestSharedBits:
    def test_bank_and_wordline_shared_across_tables(self):
        """Section 7.3: all four indices share the 2 bank bits and the 6
        wordline bits."""
        vector = make_vector(pc=0x1ABC0, history=0x5A5A5,
                             path=(0x2040, 0x1100, 0x880), bank=3)
        decomposed = [decompose_index(i) for i in indices_for(vector)]
        banks = {d[0] for d in decomposed}
        lines = {d[2] for d in decomposed}
        assert len(banks) == 1
        assert len(lines) == 1

    def test_wordline_is_h3_h0_a8_a7(self):
        vector = make_vector(pc=0x1000, address=0x1000, history=0b1011,
                             bank=0)
        _, _, line, _ = decompose_index(indices_for(vector)[1])
        # (i10..i5) = (h3,h2,h1,h0,a8,a7); a8,a7 of 0x1000 are 0,0.
        assert line == 0b1011_00

    def test_wordline_address_mode(self):
        scheme = EV8IndexScheme(wordline_mode="address")
        vector = make_vector(pc=0x1000, address=0b1_1010_1000_0000,
                             history=0xF, bank=0)
        _, _, line, _ = decompose_index(indices_for(vector, scheme)[1])
        assert line == (vector.address >> 7) & 0x3F

    def test_bank_comes_from_vector(self):
        for bank in range(4):
            vector = make_vector(bank=bank)
            assert all(decompose_index(i)[0] == bank
                       for i in indices_for(vector))

    def test_address_bank_mode(self):
        scheme = EV8IndexScheme(use_block_bank=False)
        vector = make_vector(pc=0x1000, address=0b110_0000, bank=3)
        assert decompose_index(indices_for(vector, scheme)[1])[0] == 0b11


class TestBlockCohesion:
    def test_same_block_same_word_different_slots(self):
        """Section 6.1: the 8 predictions of one fetch block lie in a single
        8-bit word — identical bank/line/column, offsets permuted by the
        shared unshuffle parameter."""
        base = dict(history=0x3CA5, address=0x2340,
                    path=(0x8000, 0x4000, 0x2000), bank=1)
        decomposed = []
        for slot in range(8):
            vector = make_vector(pc=0x2340 + slot * 4, **base)
            decomposed.append(
                [decompose_index(i) for i in indices_for(vector)])
        for table in range(4):
            banks = {d[table][0] for d in decomposed}
            lines = {d[table][2] for d in decomposed}
            columns = {d[table][3] for d in decomposed}
            offsets = [d[table][1] for d in decomposed]
            assert len(banks) == len(lines) == len(columns) == 1
            # The XOR permutation is a bijection on the 8 slots.
            assert sorted(offsets) == list(range(8))

    def test_unshuffle_is_xor_permutation(self):
        """offset(slot) = slot XOR P for a block-constant P."""
        base = dict(history=0x1111, address=0x5680,
                    path=(0x100, 0x200, 0x300), bank=2)
        offsets = []
        for slot in range(8):
            vector = make_vector(pc=0x5680 + slot * 4, **base)
            offsets.append(decompose_index(indices_for(vector)[2])[1])
        parameter = offsets[0]
        assert all(offsets[slot] == slot ^ parameter for slot in range(8))


class TestHistoryUsage:
    def test_g1_uses_bit_20(self):
        """G1's 21-bit history: flipping h20 must move its index."""
        a = make_vector(history=0)
        b = make_vector(history=1 << 20)
        assert indices_for(a)[2] != indices_for(b)[2]

    def test_g0_ignores_bits_beyond_13(self):
        a = make_vector(history=0)
        b = make_vector(history=1 << 13)
        assert indices_for(a)[1] == indices_for(b)[1]

    def test_meta_uses_bit_14_but_not_15(self):
        a = make_vector(history=0)
        assert indices_for(a)[3] != indices_for(make_vector(history=1 << 14))[3]
        assert indices_for(a)[3] == indices_for(make_vector(history=1 << 15))[3]

    def test_bim_uses_exactly_four_history_bits(self):
        a = make_vector(history=0)
        for bit in range(4):
            assert indices_for(a)[0] != \
                indices_for(make_vector(history=1 << bit))[0]
        assert indices_for(a)[0] == indices_for(make_vector(history=1 << 4))[0]

    def test_effective_history_lengths_match_table1(self):
        """Exhaustively confirm each table's index depends on exactly the
        Table 1 history bits (4/13/21/15)."""
        reference = indices_for(make_vector(history=0))
        sensitive = [set() for _ in range(4)]
        for bit in range(24):
            flipped = indices_for(make_vector(history=1 << bit))
            for table in range(4):
                if flipped[table] != reference[table]:
                    sensitive[table].add(bit)
        assert max(sensitive[0]) == 3    # BIM: h0..h3
        assert max(sensitive[1]) == 12   # G0: h0..h12
        assert max(sensitive[2]) == 20   # G1: h0..h20
        assert max(sensitive[3]) == 14   # Meta: h0..h14
        # The wordline bits h0..h3 are shared by everyone.
        for table in range(4):
            assert {0, 1, 2, 3} <= sensitive[table]


class TestPathUsage:
    def test_z_bits_affect_indices(self):
        a = make_vector(path=(0, 0, 0))
        b = make_vector(path=(1 << 6, 0, 0))
        indices_a, indices_b = indices_for(a), indices_for(b)
        assert indices_a[0] != indices_b[0]  # BIM uses z6
        assert indices_a[2] != indices_b[2]  # G1 uses z6

    def test_distribution_better_with_history_wordline(self, gcc_trace):
        """Fig 9's mechanism: history-based wordline bits spread accesses
        over the table more uniformly than address-only bits."""
        from repro.history.providers import BlockLghistProvider
        from repro.indexing.analysis import assess_indices
        from repro.traces.fetch import fetch_blocks_for

        def wordlines(mode):
            scheme = EV8IndexScheme(wordline_mode=mode)
            provider = BlockLghistProvider(include_path=True, delay_blocks=3)
            lines = []
            for block in fetch_blocks_for(gcc_trace)[:20000]:
                for vector in provider.begin_block(block):
                    lines.append(decompose_index(
                        scheme.compute(vector, CONFIGS)[1])[2])
                provider.end_block(block)
            return lines

        history_quality = assess_indices(wordlines("history"), 64)
        address_quality = assess_indices(wordlines("address"), 64)
        assert history_quality.entropy > address_quality.entropy


class TestComputeBatch:
    @pytest.mark.parametrize("mode,use_bank", [("history", True),
                                               ("history", False),
                                               ("address", True),
                                               ("address", False)])
    @given(batch=vector_batches())
    @settings(max_examples=60, deadline=None)
    def test_equals_row_by_row_compute(self, mode, use_bank, batch):
        self.check_rows(EV8IndexScheme(wordline_mode=mode,
                                       use_block_bank=use_bank), batch)

    @staticmethod
    def check_rows(scheme, batch):
        columns = scheme.compute_batch(batch, CONFIGS).streams()
        for i, vector in enumerate(batch_rows(batch)):
            assert tuple(int(c[i]) for c in columns) == \
                scheme.compute(vector, CONFIGS), i


class _AndsTwoBits(EV8IndexScheme):
    """A column bit that ANDs two history bits: not linear over GF(2)."""

    def compute(self, vector, configs):
        bim, g0, g1, meta = super().compute(vector, configs)
        both = (vector.history >> 30) & (vector.history >> 31) & 1
        return bim, g0 ^ (both << 15), g1, meta


class _Inverted(EV8IndexScheme):
    """An affine offset: the zero vector maps to a nonzero index."""

    def compute(self, vector, configs):
        bim, g0, g1, meta = super().compute(vector, configs)
        return bim, g0, g1, meta ^ 1


class _Wide(EV8IndexScheme):
    """A 17th index bit, wider than a 16-bit lane."""

    def compute(self, vector, configs):
        bim, g0, g1, meta = super().compute(vector, configs)
        return bim, g0, g1 | ((vector.history >> 40) & 1) << 16, meta


class _Over64(EV8IndexScheme):
    """A 65th index bit, wider than any lane."""

    def compute(self, vector, configs):
        bim, g0, g1, meta = super().compute(vector, configs)
        return bim, g0, g1 | ((vector.history >> 40) & 1) << 64, meta


class TestByteTableGuards:
    """The byte tables must refuse an index function they cannot
    represent instead of replaying a different one."""

    @pytest.mark.parametrize("scheme_class,message", [
        (_AndsTwoBits, "not linear over GF"),
        (_Inverted, "zero vector"),
        (_Over64, "64 bits"),
    ])
    def test_unrepresentable_compute_raises(self, scheme_class, message):
        batch = VectorBatch(
            history=np.zeros(4, dtype=np.uint64),
            address=np.zeros(4, dtype=np.uint64),
            branch_pc=np.zeros(4, dtype=np.uint64),
            path=np.zeros((0, 4), dtype=np.uint64),
            takens=np.zeros(4, dtype=np.bool_))
        with pytest.raises(ValueError, match=message):
            scheme_class().compute_batch(batch, CONFIGS)

    @given(batch=vector_batches())
    @settings(max_examples=30, deadline=None)
    def test_wider_index_takes_wider_lanes(self, batch):
        """A 17-bit index is packed in 32-bit lanes instead of refused."""
        scheme = _Wide()
        assert scheme.tables(CONFIGS, batch.path_depth).lane_bits == 32
        TestComputeBatch.check_rows(scheme, batch)
