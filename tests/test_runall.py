"""Smoke test for the consolidated report generator."""

import json
import re

import pytest

from repro.experiments.runall import run_all
from repro.obs import Telemetry


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
    assert list((tmp_path / "cache").glob("*.json"))
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
