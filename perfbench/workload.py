"""One benchmark workload in its own process.

Started by ``run.py``: it inherits private trace-cache,
result-cache and results directories through the environment, sets up
(several times, to time set-up), runs timed passes for the requested
number of seconds and checks every cell against the scalar reference.
With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer times instead.  The last line of standard output is one JSON
object that ``run.py`` turns into the benchmark's result.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

import cells
import tracing
from oracle import cell_specs
from repro.history.providers import BranchGhistProvider, ev8_info_provider
from repro.obs import Telemetry
from repro.sim import planes, scheduler
from repro.sim.compare import run_comparison
from repro.sim.driver import simulate
from repro.sim.engine import BatchedEngine
from repro.sim.sweep import sweep, sweep_parallel
from repro.traces.io import TraceCache
from repro.workloads.spec95 import SPEC95_BENCHMARKS

SETUP_REPEATS = 3
WORKERS = min(2, os.cpu_count() or 1)


def _private_dir(kind: str) -> str:
    """A fresh, empty directory beside the private one the environment
    names (so every pass of a write-path workload starts cache-empty)."""
    base = Path(os.environ["REPRO_RESULT_CACHE_DIR"]).parent
    return tempfile.mkdtemp(prefix=f"{kind}-", dir=base)


def _table_cells(group: str, table) -> list[dict]:
    return [{"id": cells.cell_id(group, config, name),
             "branches": result.branches,
             "misp": result.mispredictions, "cache": result.cache}
            for config, row in table.cells.items()
            for name, result in row.items()]


def _fig5(traces) -> list[dict]:
    configs, _ = cells.fig5_set()
    table = run_comparison(configs, traces,
                           provider_factory=BranchGhistProvider,
                           engine="batched", use_cache=True)
    return _table_cells("fig5", table)


def _fig9(traces) -> list[dict]:
    configs, providers = cells.fig9_set()
    table = run_comparison(configs, traces, provider_factories=providers,
                           engine=BatchedEngine(strict=True), use_cache=True)
    return _table_cells("fig9", table)


def _refuse_generation():
    raise RuntimeError("trace cache miss: the timed pass must only load")


def _teardown_fabric() -> int:
    """Release the sweep fabric the way a runner does, wait for the pool
    workers to exit, and count what is left behind (live workers plus
    this process's ``/dev/shm`` plane segments)."""
    planes.release_plane_store()
    scheduler.shutdown_schedulers()
    deadline = time.monotonic() + 20
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    prefix = f"{planes.SEGMENT_PREFIX}-{os.getpid()}-"
    try:
        segments = [name for name in os.listdir("/dev/shm")
                    if name.startswith(prefix)]
    except OSError:
        segments = []
    return len(multiprocessing.active_children()) + len(segments)


class Workload:
    groups: tuple[str, ...] = ()
    trace_names: tuple[str, ...] = SPEC95_BENCHMARKS
    expect_cache = "miss"
    branches = 20_000
    """Conditional branches per trace: the largest length at which a run on
    a new seed, which first computes the scalar reference (about 0.65 s
    per 1000 branches for the EV8 cells), still ends in about 30 s on a
    2-vCPU host (README, *Trace lengths*)."""
    min_passes = 5
    """Timed passes a run makes at least, however short ``--seconds``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.traces: dict = {}
        self.peaks: list[float] = []

    def setup(self) -> None:
        """Everything before the timed pass: generate the seeded traces."""
        self.traces = cells.generate_all(self.seed, self.branches,
                                         self.trace_names)

    def timed_pass(self) -> tuple[float, list[dict], int]:
        """Run one pass; returns (wall seconds, cells, leaked resources)."""
        traces = cells.fresh_copies(self.traces)
        if self.expect_cache == "miss":
            os.environ["REPRO_RESULT_CACHE_DIR"] = _private_dir("results")
        inherited = self.start_peak()
        started = time.perf_counter()
        found = self.run(traces)
        wall = time.perf_counter() - started
        self.record_peak(inherited)
        return wall, found, 0

    def start_peak(self) -> float:
        """Restart the peak resident size before a pass; returns this
        process's anonymous resident memory, which a sweep worker forked
        during the pass starts with already counted in its own."""
        reset_peak_rss()
        return status_mb("self", "RssAnon")

    def record_peak(self, inherited: float) -> None:
        """Note the peak resident MiB of the pass just run: this process's
        peak plus the largest live sweep worker's peak over the pages it
        inherited.  Shared-memory planes count in the process that wrote
        them; workers that only read them count them again."""
        workers = [status_mb(child.pid, "VmHWM") - inherited
                   for child in multiprocessing.active_children()]
        self.peaks.append(status_mb("self", "VmHWM") + max(workers + [0.0]))


class Fig5Mixed(Workload):
    groups = ("fig5",)
    branches = 15_000  # five scalar-heavy passes must fit the same budget

    def run(self, traces):
        return _fig5(traces)


class Fig9EV8(Workload):
    groups = ("fig9",)

    def run(self, traces):
        return _fig9(traces)


class G1Sweep(Workload):
    groups = ("g1",)
    trace_names = cells.G1_TRACES
    expect_cache = None

    def run(self, traces, parallel: bool = True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            if parallel:
                points = sweep_parallel(
                    cells.table1_predictor, cells.G1_LENGTHS, traces,
                    ev8_info_provider, engine="batched",
                    max_workers=WORKERS, use_cache=False)
            else:
                points = sweep(cells.table1_predictor, cells.G1_LENGTHS,
                               traces, ev8_info_provider, engine="batched",
                               use_cache=False)
        fell_back = any("falling back" in str(w.message) for w in caught)
        return [{"id": cells.cell_id("g1", point.value, name),
                 "misp_per_ki": misp, "fell_back": fell_back}
                for point in points
                for name, misp in point.per_benchmark.items()]

    def timed_pass(self):
        wall, found, _ = super().timed_pass()
        return wall, found, _teardown_fabric()


class CachedReplay(Workload):
    groups = ("fig5", "fig9")
    expect_cache = "hit"
    # The pass simulates nothing: it takes about as long at 10k as at 300k
    # branches and result_key leads at both, while filling the caches in
    # set-up grows with the length (README, *Trace lengths*).
    branches = 10_000
    # Its pass is short (about 0.8 s) and its time drifts with the host
    # more than machine_seconds tracks: five passes spread 0.15 over ten
    # seeds, about ten passes 0.10.
    min_passes = 12

    def setup(self) -> None:
        """Generate the traces, store them in a private on-disk trace
        cache, and fill a private result cache with every cell."""
        super().setup()
        self.trace_dir = _private_dir("traces")
        store = TraceCache(self.trace_dir)
        for name, trace in self.traces.items():
            store.get_or_generate(
                name, cells.trace_parameters(name, self.seed, self.branches),
                lambda trace=trace: trace)
        self.result_dir = _private_dir("results")
        os.environ["REPRO_RESULT_CACHE_DIR"] = self.result_dir
        _fig5(self.traces)
        _fig9(self.traces)

    def timed_pass(self):
        os.environ["REPRO_RESULT_CACHE_DIR"] = self.result_dir
        inherited = self.start_peak()
        started = time.perf_counter()
        loader = TraceCache(self.trace_dir)
        traces = {name: loader.get_or_generate(
                      name, cells.trace_parameters(name, self.seed,
                                                   self.branches),
                      _refuse_generation)
                  for name in self.trace_names}
        found = _fig5(traces) + _fig9(traces)
        wall = time.perf_counter() - started
        self.record_peak(inherited)
        return wall, found, 0


WORKLOADS = {"fig5_mixed": Fig5Mixed, "fig9_ev8": Fig9EV8,
             "g1_sweep": G1Sweep, "cached_replay": CachedReplay}


def expected_cells(workload: Workload) -> list[str]:
    return [spec[0] for group in workload.groups
            for spec in cell_specs(group)]


def check(found: list[dict], expected: list[str], reference: dict,
          expect_cache: str | None) -> tuple[int, int]:
    """(failed cells, delivered branches) of one pass against the scalar
    reference.  A cell fails when it is missing, its counts differ, its
    cache provenance is wrong or its sweep fell back to serial."""
    by_id = {cell["id"]: cell for cell in found}
    failed = delivered = 0
    for cid in expected:
        cell, ref = by_id.get(cid), reference["cells"].get(cid)
        if cell is None or ref is None:
            failed += 1
            continue
        branches, misp, misp_per_ki = ref
        if "misp_per_ki" in cell:
            good = cell["misp_per_ki"] == misp_per_ki and not cell["fell_back"]
        else:
            good = ((cell["branches"], cell["misp"]) == (branches, misp)
                    and (expect_cache is None
                         or cell["cache"] == expect_cache))
        if good:
            delivered += branches
        else:
            failed += 1
    return failed, delivered


def traces_match(workload: Workload, reference: dict) -> bool:
    return all(reference["traces"].get(name, {}).get("digest")
               == cells.trace_digest(trace)
               for name, trace in workload.traces.items())


def telemetry_on_ratio(traces) -> float:
    """Table 1 EV8 cells with a recording telemetry sink over no sink
    (median of three of each, fresh traces every time)."""
    names = ("gcc", "go")

    def timed(with_sink: bool) -> float:
        fresh = cells.fresh_copies({name: traces[name] for name in names})
        started = time.perf_counter()
        for trace in fresh.values():
            simulate(cells.table1_predictor(21), trace, ev8_info_provider(),
                     engine="batched", use_cache=False,
                     telemetry=Telemetry() if with_sink else None)
        return time.perf_counter() - started

    off = statistics.median(timed(False) for _ in range(3))
    on = statistics.median(timed(True) for _ in range(3))
    return on / off


REFERENCE_MACHINE_S = 0.0085
"""What :func:`machine_seconds` takes on the host the benchmark was
defined on when it is quiet (2-vCPU VM, Python 3.11, numpy 2.4)."""

_CALIBRATION_PCS = np.random.default_rng(0).integers(0, 1 << 30, size=40_000)


def machine_seconds() -> float:
    """Host time of a fixed kernel that runs no simulator code, median of
    three samples: hashed index vectors gathered from and scattered into a
    64K-entry table, the cache-resident numpy work the batched passes do.
    Of the kernels tried (this one, interpreter loops, dict and hashing
    traffic, scattered writes to a 2 MiB table) it tracked the pass times of
    fig5_mixed, fig9_ev8 and g1_sweep best.  Timed before and after every
    pass and set-up, it shows how fast the shared host runs at that
    moment."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        table = np.zeros(1 << 16, dtype=np.int8)
        for shift in range(8):
            index = ((_CALIBRATION_PCS >> shift)
                     ^ (_CALIBRATION_PCS >> (shift + 7))) & 0xFFFF
            values = table[index]
            np.cumsum(values, dtype=np.int64)
            table[index] = values + 1
            np.unique(index[:5000])
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def scaled(walls: list[float], samples: list[float]) -> list[float]:
    """Each wall scaled to the reference host's speed by the kernel times
    taken just before and just after it (``samples[i]`` and
    ``samples[i + 1]``)."""
    return [wall * 2 * REFERENCE_MACHINE_S / (before + after)
            for wall, before, after in zip(walls, samples, samples[1:])]


def status_mb(pid, field: str) -> float:
    """One memory field of ``/proc/<pid>/status`` (``pid`` may be
    ``"self"``), in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no {field} line")


def reset_peak_rss() -> None:
    """Make this process's peak resident size (``VmHWM``) start again
    from its current resident size."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


LAYER_SPANS = {
    "traces.fetch_blocks_s": "traces.fetch_blocks",
    "traces.cache_load_s": "traces.cache_load",
    "history.materialize_s": "history.materialize",
    "ev8.index_s": "ev8.index",
    "indexing.index_s": "indexing.index",
    "predictors.replay_s": "predictors.replay",
    "sim.scalar_run_s": "sim.scalar_run",
    "sim.batched_run_s": "sim.batched_run",
    "sim.result_cache.key_s": "sim.result_cache.key",
    "sim.result_cache.load_s": "sim.result_cache.load",
    "sim.result_cache.store_s": "sim.result_cache.store",
    "sim.planes.publish_s": "sim.planes.publish",
    "sim.scheduler.run_s": "sim.scheduler.run",
}


def layer_metrics(wall: float, spans) -> dict[str, float]:
    """The per-layer numbers of one traced pass."""
    own = tracing.self_times(spans)
    metrics = {metric: own.get(name, 0.0)
               for metric, name in LAYER_SPANS.items()}
    metrics["history.materialize_hit_frac"] = tracing.fraction(
        spans, "history.materialize")
    metrics["sim.fallback_frac"] = tracing.fraction(spans, "sim.batched_run")
    metrics["sim.result_cache.hit_frac"] = tracing.fraction(
        spans, "sim.result_cache.load")
    metrics["sim.orchestration_s"] = wall - tracing.top_level_seconds(
        spans, ("sim.simulate", "sim.scheduler.run"))
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args()

    reference = json.loads(Path(args.reference).read_text())
    workload = WORKLOADS[args.workload](args.seed)
    expected = expected_cells(workload)
    errors: list[str] = []

    setup_walls, setup_spans = [], []
    setup_machine = [machine_seconds()]
    gc.collect()
    baseline_rss = status_mb("self", "VmRSS")
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if args.trace:
            tracing.install()
        started = time.perf_counter()
        workload.setup()
        setup_walls.append(time.perf_counter() - started)
        tracing.uninstall()
        setup_spans = tracing.take()
        gc.collect()
        setup_machine.append(machine_seconds())
    attempted = failed = 0
    if not traces_match(workload, reference):
        attempted = failed = 1
        errors.append("generated traces differ from the reference's traces")

    walls = {False: [], True: []}
    rates, layers, counts = [], [], {False: None, True: None}
    # Traced runs alternate which kind of pass goes first.
    orders = ([(False, True), (True, False)] if args.trace
              else [(False,)])
    pass_machine = [machine_seconds()]
    deadline = time.perf_counter() + args.seconds
    while True:
        for traced in orders[len(walls[False]) % len(orders)]:
            if traced:
                tracing.install()
            started = time.perf_counter()
            try:
                wall, found, leaked = workload.timed_pass()
            except Exception as error:  # a raising cell fails the pass
                errors.append(f"pass raised {error!r}")
                wall, found, leaked = time.perf_counter() - started, [], 0
            finally:
                tracing.uninstall()
            spans = tracing.take()
            bad, delivered = check(found, expected, reference,
                                   workload.expect_cache)
            attempted += len(expected) + leaked
            failed += bad + leaked
            if leaked:
                errors.append(f"{leaked} worker(s)/plane segment(s) leaked")
            key = {cell["id"]: cell.get("misp_per_ki", cell.get("misp"))
                   for cell in found}
            if counts[traced] is None:
                counts[traced] = key
            elif counts[traced] != key:
                failed += 1
                errors.append("counts changed between passes")
            walls[traced].append(wall)
            if not traced:
                rates.append(delivered / wall)
            else:
                layers.append(layer_metrics(wall, spans))
                if args.spans:
                    tracing.write(spans, args.spans, args.run_id,
                                  f"pass-{len(layers)}")
            gc.collect()
            if not traced:
                pass_machine.append(machine_seconds())
        if (len(walls[False]) >= workload.min_passes
                and time.perf_counter() >= deadline):
            break
    if args.trace and counts[False] != counts[True]:
        failed += 1
        errors.append("traced counts differ from untraced counts")

    result = {"attempted": attempted, "failed": failed, "errors": errors,
              "passes": len(walls[False]), "walls": walls[False],
              "setup_walls": setup_walls, "setup_machine": setup_machine,
              "pass_machine": pass_machine}
    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["workloads.generate_s"] = tracing.self_times(
            setup_spans).get("workloads.generate", 0.0)
        metrics["trace_overhead_frac"] = (statistics.median(walls[True])
                                          / statistics.median(walls[False])
                                          - 1.0)
        metrics["obs.telemetry_on_ratio"] = telemetry_on_ratio(
            workload.traces)
        metrics["sim.sweep.serial_ratio"] = 0.0
        if isinstance(workload, G1Sweep):
            serial = []
            for _ in range(3):
                fresh = cells.fresh_copies(workload.traces)
                started = time.perf_counter()
                workload.run(fresh, parallel=False)
                serial.append(time.perf_counter() - started)
            metrics["sim.sweep.serial_ratio"] = (
                statistics.median(serial) / statistics.median(walls[False]))
        if args.spans:
            tracing.write(setup_spans, args.spans, args.run_id, "setup")
    else:
        pass_walls = scaled(walls[False], pass_machine)
        metrics = {"wall_s": statistics.median(pass_walls),
                   "branches_per_s": statistics.median(
                       rate * wall / scaled_wall for rate, wall, scaled_wall
                       in zip(rates, walls[False], pass_walls)),
                   "setup_s": statistics.median(
                       scaled(setup_walls, setup_machine)),
                   "peak_rss_mb": (statistics.median(workload.peaks)
                                   - baseline_rss)}
        result["raw"] = {"wall_s": statistics.median(walls[False]),
                         "setup_s": statistics.median(setup_walls),
                         "host_speed": (REFERENCE_MACHINE_S
                                        / statistics.median(pass_machine))}
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
