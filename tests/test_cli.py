"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs import Telemetry, use_telemetry


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_predictor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "tage", "gcc"])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "ev8", "mcf"])

    def test_experiment_commands_registered(self):
        for name in ("table2", "table3", "fig5", "fig10"):
            args = build_parser().parse_args([name])
            assert args.command == name
            assert args.branches is None


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "352 Kbits" in out
        assert "Table 1" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "bimodal", "compress",
                     "--branches", "5000"]) == 0
        out = capsys.readouterr().out
        assert "misp/KI" in out
        assert "storage" in out

    def test_simulate_ev8_uses_block_provider(self, capsys):
        assert main(["simulate", "ev8", "compress",
                     "--branches", "5000"]) == 0
        assert "misp/KI" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "compress", "--branches", "5000",
                     "--lengths", "0", "4"]) == 0
        out = capsys.readouterr().out
        assert "<- best" in out
        assert out.count("h=") == 2

    def test_sweep_on_two_workers_matches_serial(self, capsys):
        argv = ["sweep", "compress", "--branches", "5000",
                "--lengths", "0", "4", "8"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        sink = Telemetry()
        with use_telemetry(sink):
            assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert sink.counters["scheduler.runs"] == 1  # ran threaded

    def test_sweep_has_no_parallel_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "li", "--parallel"])

    def test_experiment_table3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["table3", "--branches", "4000"]) == 0
        assert "lghist" in capsys.readouterr().out

    def test_every_predictor_constructs(self):
        from repro.cli import _make_predictor, _PREDICTOR_CHOICES
        for name in _PREDICTOR_CHOICES:
            predictor = _make_predictor(name)
            assert predictor.storage_bits > 0, name
