"""The benchmark's own tests (``python3 -m pytest perfbench``).  They run at
the workloads' real trace lengths against the committed seed-1 reference."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cells
import oracle
import workload

BENCHMARK = json.loads((cells.ROOT / "BENCHMARK.json").read_text())


def _segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("repro-planes-")}


def _run(*args: str, env=None) -> tuple[dict, str]:
    completed = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True,
        cwd=str(cells.ROOT), env={**os.environ, **(env or {})})
    return json.loads(completed.stdout.strip().splitlines()[-1]), \
        completed.stdout


@pytest.fixture(scope="module")
def g1_runs():
    """Untraced and traced runs of the sweep workload, and the plane
    segments that existed before them."""
    before = _segments()
    runs = {trace: _run("perfbench/run.py", "--workload", "g1_sweep",
                        "--seed", "1", "--seconds", "1", "--trace", str(trace))
            for trace in (0, 1)}
    return before, runs


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(g1_runs, trace, kind):
    result, stdout = g1_runs[1][trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == expected
    assert "error_rate" in stdout


def test_workload_names_match_benchmark_json():
    from run import WORKLOADS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(WORKLOADS) == set(workload.WORKLOADS)


def test_sweep_leaves_no_plane_segment(g1_runs):
    before, _ = g1_runs
    assert _segments() <= before


def test_sweep_pass_tears_down_cleanly():
    sweep = workload.G1Sweep(seed=1)
    sweep.setup()
    wall, found, leaked = sweep.timed_pass()
    assert leaked == 0 and wall > 0
    assert len(found) == len(cells.G1_LENGTHS) * len(cells.G1_TRACES)
    assert not any(name.startswith(f"repro-planes-{os.getpid()}-")
                   for name in os.listdir("/dev/shm"))


def test_perturbed_reference_drives_error_rate_above_zero(tmp_path):
    reference = oracle.ensure(1, workload.Fig9EV8.branches, ["fig9"])
    good = tmp_path / "good.json"
    good.write_text(json.dumps(reference))
    perturbed = json.loads(json.dumps(reference))
    perturbed["cells"][cells.cell_id("fig9", "EV8", "gcc")][1] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(perturbed))
    env = {}
    for name in ("REPRO_TRACE_CACHE", "REPRO_RESULT_CACHE_DIR",
                 "REPRO_RESULTS_DIR"):
        (tmp_path / name).mkdir()
        env[name] = str(tmp_path / name)
    outcomes = {}
    for label, path in (("good", good), ("bad", bad)):
        outcomes[label], _ = _run(
            "perfbench/workload.py", "--workload", "fig9_ev8", "--seed", "1",
            "--seconds", "0", "--reference", str(path), env=env)
    assert outcomes["good"]["failed"] == 0
    assert outcomes["bad"]["failed"] > 0
    # One cell is wrong in every pass.
    assert outcomes["bad"]["failed"] == outcomes["bad"]["passes"]


def test_seeds_give_different_deterministic_traces():
    def digests(seed):
        return {name: cells.trace_digest(cells.generate(name, seed, 10_000))
                for name in ("gcc", "li")}

    first, again, other = digests(1), digests(1), digests(2)
    assert first == again
    assert all(first[name] != other[name] for name in first)


def test_fig9_set_matches_the_experiment(monkeypatch):
    """The benchmark's Fig 9 cells are the ones ``fig9.run`` simulates:
    same order, and the same predictor and provider for each, down to the
    result-cache fingerprint of their full state."""
    from repro.experiments import fig9
    from repro.sim.result_cache import result_key

    used = {}

    def capture(configs, traces, provider_factories, engine=None):
        used.update(configs=configs, providers=provider_factories)

    monkeypatch.setattr(fig9, "experiment_traces", lambda num_branches: {})
    monkeypatch.setattr(fig9, "run_comparison", capture)
    monkeypatch.setattr(fig9, "record_results", lambda name, table: None)
    fig9.run()
    configs, providers = cells.fig9_set()
    assert list(configs) == list(fig9.CONFIG_ORDER) == list(used["configs"])
    trace = cells.generate("gcc", 1, 1000)

    def key(make_predictor, make_provider):
        return result_key(make_predictor(), trace, make_provider(), 0, "scalar")

    for config in fig9.CONFIG_ORDER:
        assert configs[config]().name == used["configs"][config]().name
        assert key(configs[config], providers[config]) == key(
            used["configs"][config], used["providers"][config])


def test_refuses_to_run_without_the_simulator(tmp_path):
    checkout = tmp_path / "bare"
    (checkout / "perfbench").mkdir(parents=True)
    for path in Path(cells.BENCH_DIR).glob("*.py"):
        (checkout / "perfbench" / path.name).write_text(path.read_text())
    (checkout / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(checkout), timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
