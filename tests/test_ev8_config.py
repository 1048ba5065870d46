"""Tests for the EV8 configuration (Table 1)."""

import pytest

from repro.ev8.config import EV8_CONFIG, TABLE1, EV8Config
from repro.predictors.twobcgskew import TableConfig


class TestTable1:
    def test_budget_totals(self):
        """Table 1 must sum to the paper's stated 208 + 144 = 352 Kbits."""
        assert EV8_CONFIG.prediction_bits == 208 * 1024
        assert EV8_CONFIG.hysteresis_bits == 144 * 1024
        assert EV8_CONFIG.total_bits == 352 * 1024

    def test_table1_entries_match_config(self):
        for label, table in zip(("BIM", "G0", "G1", "Meta"),
                                EV8_CONFIG.tables()):
            assert table.entries == TABLE1[label]["prediction"]
            assert (table.hysteresis_entries or table.entries) == \
                TABLE1[label]["hysteresis"]
            assert table.history_length == TABLE1[label]["history"]

    def test_half_hysteresis_on_g0_and_meta(self):
        """The paper's prose (4.4) and Table 1 disagree; Table 1 (G0 and
        Meta halved) is the arithmetic that reaches 352 Kbit."""
        assert EV8_CONFIG.g0.hysteresis_entries == EV8_CONFIG.g0.entries // 2
        assert EV8_CONFIG.meta.hysteresis_entries == EV8_CONFIG.meta.entries // 2
        assert EV8_CONFIG.g1.hysteresis_entries == EV8_CONFIG.g1.entries
        assert EV8_CONFIG.bim.hysteresis_entries == EV8_CONFIG.bim.entries

    def test_history_lengths(self):
        assert [t.history_length for t in EV8_CONFIG.tables()] == [4, 13, 21, 15]

    def test_structural_parameters(self):
        assert EV8_CONFIG.banks == 4
        assert 1 << EV8_CONFIG.wordline_bits == 64
        assert 1 << EV8_CONFIG.word_bits == 8


class TestValidation:
    def test_default_validates(self):
        EV8_CONFIG.validate()

    def test_rejects_tiny_tables(self):
        config = EV8Config(bim=TableConfig(64, 4))
        with pytest.raises(ValueError, match="shared"):
            config.validate()

    def test_rejects_unequal_global_tables(self):
        config = EV8Config(g0=TableConfig(32 * 1024, 13))
        with pytest.raises(ValueError, match="equally sized"):
            config.validate()

    def test_rejects_non_four_banks(self):
        config = EV8Config(banks=8)
        with pytest.raises(ValueError, match="4 banks"):
            config.validate()
