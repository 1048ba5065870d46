"""Smoke test for the consolidated report generator."""

import importlib
import json
import os
import re

import pytest

from repro.experiments.common import experiment_traces
from repro.experiments.runall import run_all
from repro.obs import Telemetry
from repro.sim import compare, result_cache
from repro.workloads import spec95

# ``repro.sim.sweep`` the attribute is the function, so import the module.
sweep_module = importlib.import_module("repro.sim.sweep")


def _without_timings(report: str) -> list[str]:
    """The report's lines, less each section's ``*(Ns)*`` wall-time line
    and the telemetry summary."""
    report = report.split("## Telemetry summary")[0].rstrip()
    return [line for line in report.splitlines()
            if not re.fullmatch(r"\*\(\d+s\)\*", line)]


@pytest.mark.slow
def test_run_all_produces_complete_report(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "cache"))
    report = run_all(num_branches=4000)
    # One section per paper table/figure, with its finding and its table.
    for heading in ("Table 2", "Table 3", "Fig 5", "Fig 6", "Fig 7",
                    "Fig 8", "Fig 9", "Fig 10"):
        assert f"## {heading}" in report, heading
    assert report.count("```") % 2 == 0
    assert "misp/KI" in report
    # The per-experiment JSON files were recorded as a side effect.
    recorded = {path.name for path in tmp_path.glob("*.json")}
    assert {"table2.json", "table3.json", "fig5.json", "fig10.json"} <= recorded
    # Every simulation populated the persistent result cache...
    assert (tmp_path / "cache" / result_cache.log_path().name).stat().st_size
    first_run = json.loads((tmp_path / "fig5.json").read_text())
    assert set(sum((list(row.values()) for row in
                    first_run["cache"].values()), [])) == {"miss"}
    # ...so a repeated invocation replays every cell from the cache.
    again = Telemetry()
    report_again = run_all(num_branches=4000, telemetry=again)
    assert "engine.batched_runs" not in again.counters
    assert _without_timings(report_again) == _without_timings(report)
    second_run = json.loads((tmp_path / "fig5.json").read_text())
    assert set(sum((list(row.values()) for row in
                    second_run["cache"].values()), [])) == {"hit"}
    assert second_run["misp_per_ki"] == first_run["misp_per_ki"]


@pytest.mark.slow
def test_each_distinct_cell_simulates_once(tmp_path, monkeypatch):
    # 280 cells, 160 distinct simulations: figures reuse configurations,
    # some under new labels, and the result cache runs each one once.
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "cache"))
    cached = Telemetry()
    report = run_all(num_branches=4000, telemetry=cached)
    assert cached.counters["result_cache.stores"] == 160
    assert cached.counters["engine.batched_runs"] == 160
    # Without the persistent cache: a private one, deleted afterwards,
    # whatever the environment names.
    monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "kept"))
    uncached = Telemetry()
    report_uncached = run_all(num_branches=4000, use_cache=False,
                              telemetry=uncached)
    assert uncached.counters["engine.batched_runs"] == 160
    assert _without_timings(report_uncached) == _without_timings(report)
    assert not (tmp_path / "kept").exists()


@pytest.mark.slow
def test_threaded_grids_report_what_serial_grids_report(tmp_path,
                                                        monkeypatch):
    # The same run with every comparison grid forced onto one thread:
    # same report, same counters, same span names and counts.  Both runs
    # load their traces from disk, so neither finds the other's in memory
    # or their batches already materialized.
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    experiment_traces(4000)
    spec95._cache().clear_memory()
    threaded = Telemetry()
    report = run_all(num_branches=4000, use_cache=False, telemetry=threaded)
    spec95._cache().clear_memory()
    real_run_cells = compare.run_cells
    monkeypatch.setattr(compare, "run_cells",
                        lambda cells, *args: real_run_cells(cells, *args,
                                                            workers=1))
    serial = Telemetry()
    report_serial = run_all(num_branches=4000, use_cache=False,
                            telemetry=serial)
    assert _without_timings(report) == _without_timings(report_serial)
    scheduled = {name: threaded.counters.pop(name)
                 for name in ("scheduler.runs", "scheduler.units")
                 if name in threaded.counters}
    assert bool(scheduled) == ((os.cpu_count() or 1) > 1)
    assert threaded.counters == serial.counters
    assert threaded.counters["engine.batched_runs"] == 160
    def span_counts(sink):
        return {path: record["count"] for path, record in sink.spans.items()}

    assert span_counts(threaded) == span_counts(serial)


@pytest.mark.slow
def test_every_factory_runall_hands_the_planner_is_deterministic(
        tmp_path, monkeypatch):
    # ``run_cells`` fingerprints each factory once and keys all its cells
    # from that one object, which holds only if a factory returns an equal
    # fresh object on every call (the ``Cell`` contract).  Check it
    # against every factory the report's grids use.
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    factories = {}
    real_run_cells = sweep_module.run_cells

    def spy(cells, *args, **kwargs):
        for cell in cells:
            factories[id(cell.make_predictor)] = (
                cell.make_predictor, result_cache.predictor_fingerprint)
            if cell.make_provider is not None:
                factories[id(cell.make_provider)] = (
                    cell.make_provider, result_cache.fingerprint)
        return real_run_cells(cells, *args, **kwargs)

    monkeypatch.setattr(compare, "run_cells", spy)
    monkeypatch.setattr(sweep_module, "run_cells", spy)
    run_all(num_branches=4000, use_cache=False)
    assert factories
    for make, fingerprint in factories.values():
        first, second = make(), make()
        assert first is not second
        assert fingerprint(first) == fingerprint(second), make
        assert getattr(first, "name", None) == getattr(second, "name",
                                                       None), make
