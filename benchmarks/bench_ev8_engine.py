"""Engine throughput on the full EV8 predictor (the Table 1 configuration).

The closed batched envelope, end to end: block-compressed aged lghist with
path bits (materialized trace-side), the EV8 bank-interleaved index
functions, shared G0/Meta hysteresis, and the partial update policy — all
replayed by ``BatchedEngine(strict=True)``, so any regression that would
silently fall back to the scalar path fails loudly instead.  Asserted:

* the batched run is bit-identical to the scalar reference (mispredictions
  and branch counts), and
* it is at least 3x faster on a >= 1M-branch trace.

Two telemetry gates ride along:

* with the default ``NullTelemetry`` sink, the instrumented hot path must
  stay within 3% of an identical baseline run (the instrumentation is
  opt-in — the null path is a single attribute check per event site);
* with an enabled ``Telemetry`` sink, the Table 1 partial-update policy
  demonstrably suppresses per-bank write traffic relative to total update
  (the Section 4.2 claim, measured rather than asserted from code reading).
"""

from __future__ import annotations

import time

from conftest import emit, run_once
from repro.ev8.predictor import EV8BranchPredictor
from repro.obs import NullTelemetry, Telemetry
from repro.sim.engine import BatchedEngine, ScalarEngine
from repro.traces.fetch import fetch_blocks_for
from repro.workloads.spec95 import default_trace_branches, spec95_trace

MIN_BRANCHES = 1_000_000  # the ISSUE's floor for an honest speedup number


def test_ev8_engine_speedup(benchmark):
    branches = max(MIN_BRANCHES, default_trace_branches())
    trace = spec95_trace("gcc", branches)
    fetch_blocks_for(trace)  # warm the shared block cache for both engines

    def run():
        scalar = ScalarEngine().run(
            EV8BranchPredictor(), trace,
            provider=EV8BranchPredictor.make_provider())
        batched = BatchedEngine(strict=True).run(
            EV8BranchPredictor(), trace,
            provider=EV8BranchPredictor.make_provider())
        return scalar, batched

    scalar, batched = run_once(benchmark, run)
    speedup = scalar.wall_seconds / batched.wall_seconds

    lines = [f"EV8 engine speedup: Table 1 configuration on gcc "
             f"({scalar.branches:,} conditional branches)",
             f"{'engine':>8}{'misp/KI':>10}{'seconds':>10}{'branches/s':>14}",
             "-" * 42,
             f"{'scalar':>8}{scalar.misp_per_ki:>10.3f}"
             f"{scalar.wall_seconds:>10.2f}"
             f"{scalar.branches_per_second:>14,.0f}",
             f"{'batched':>8}{batched.misp_per_ki:>10.3f}"
             f"{batched.wall_seconds:>10.2f}"
             f"{batched.branches_per_second:>14,.0f}",
             "-" * 42,
             f"speedup {speedup:.1f}x"]
    emit("\n".join(lines), "bench_ev8_engine")

    assert batched.engine == "batched"
    assert (batched.mispredictions, batched.branches) == \
        (scalar.mispredictions, scalar.branches), "engines disagree"
    assert speedup >= 3.0, (
        f"batched EV8 only {speedup:.2f}x faster "
        f"({scalar.wall_seconds:.2f}s vs {batched.wall_seconds:.2f}s)")


def test_null_telemetry_overhead(benchmark):
    """The observability tax when nobody is observing: < 3%.

    Baseline (no sink argument) and explicit ``NullTelemetry()`` runs are
    interleaved and each variant keeps its best-of-N wall time, so the gate
    measures the code path, not scheduler noise.  It fails if the null sink
    ever starts doing real work (e.g. the ``enabled`` fast-gate is dropped
    from a hot accounting site).
    """
    branches = max(400_000, default_trace_branches())
    trace = spec95_trace("gcc", branches)
    fetch_blocks_for(trace)
    rounds = 3

    def timed(sink):
        started = time.perf_counter()
        result = BatchedEngine(strict=True).run(
            EV8BranchPredictor(), trace,
            provider=EV8BranchPredictor.make_provider(), telemetry=sink)
        elapsed = time.perf_counter() - started
        assert result.engine == "batched"
        return elapsed

    def run():
        baseline, null_sink = [], []
        for _ in range(rounds):
            baseline.append(timed(None))
            null_sink.append(timed(NullTelemetry()))
        return min(baseline), min(null_sink)

    base_seconds, null_seconds = run_once(benchmark, run)
    overhead = null_seconds / base_seconds - 1.0
    emit("\n".join([
        f"NullTelemetry overhead: EV8 batched on gcc ({branches:,} branches),"
        f" best of {rounds}",
        f"{'variant':>14}{'seconds':>10}",
        "-" * 24,
        f"{'baseline':>14}{base_seconds:>10.3f}",
        f"{'null sink':>14}{null_seconds:>10.3f}",
        "-" * 24,
        f"overhead {overhead:+.1%} (gate: < +3%)"]), "bench_null_telemetry")
    assert overhead < 0.03, (
        f"NullTelemetry run {overhead:+.1%} slower than baseline "
        f"({null_seconds:.3f}s vs {base_seconds:.3f}s)")


def test_partial_update_write_suppression(benchmark):
    """Enabled telemetry on the Table 1 configuration: the partial policy's
    per-bank write traffic vs total update, and the suppression headline
    (``update.suppressed_writes`` = writes never issued)."""
    branches = max(400_000, default_trace_branches())
    trace = spec95_trace("gcc", branches)
    fetch_blocks_for(trace)

    def run():
        sinks = {}
        for policy in ("partial", "total"):
            sink = Telemetry()
            BatchedEngine(strict=True).run(
                EV8BranchPredictor(update_policy=policy), trace,
                provider=EV8BranchPredictor.make_provider(), telemetry=sink)
            sinks[policy] = sink.counters
        return sinks

    counters = run_once(benchmark, run)

    def writes(policy, kind):
        return sum(value for name, value in counters[policy].items()
                   if name.startswith("bank.") and name.endswith(kind))

    rows = []
    for bank in ("bim", "g0", "g1", "meta"):
        per_bank = [counters[policy][f"bank.{bank}.{kind}"]
                    for policy in ("partial", "total")
                    for kind in ("prediction_writes", "hysteresis_writes")]
        rows.append(f"{bank:>6}" + "".join(f"{v:>14,}" for v in per_bank))
    total_writes = {p: writes(p, "_writes") for p in ("partial", "total")}
    suppressed = counters["partial"]["update.suppressed_writes"]
    emit("\n".join(
        [f"Partial-update write suppression: Table 1 EV8 on gcc "
         f"({branches:,} branches)",
         f"{'bank':>6}{'part pred':>14}{'part hyst':>14}"
         f"{'total pred':>14}{'total hyst':>14}",
         "-" * 62] + rows + ["-" * 62,
         f"writes issued: partial {total_writes['partial']:,} vs total "
         f"{total_writes['total']:,} "
         f"({1 - total_writes['partial'] / total_writes['total']:.1%} fewer)",
         f"suppressed bank updates never issued: {suppressed:,}"]),
        "bench_write_suppression")

    assert suppressed > 0, "partial update never suppressed anything"
    assert total_writes["partial"] < total_writes["total"], (
        "partial update did not reduce write traffic: "
        f"{total_writes['partial']:,} vs {total_writes['total']:,}")
