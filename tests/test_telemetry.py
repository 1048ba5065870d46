"""Telemetry subsystem: sink unit tests plus cross-layer invariants.

The invariants pin down the telemetry *semantics*, not just its plumbing:

* per-bank read counts equal branch count × banks consulted (partial update
  never skips a fetch-time read — suppression is about writes);
* Meta arbitration outcomes partition the conditional branch stream;
* the partial-update event counters partition the branch stream, and
  partial update demonstrably suppresses hysteresis writes vs total update;
* spans nest (keys are slash-joined paths, a parent's time covers its
  children's);
* serial and parallel sweeps merge per-point sinks into identical counters.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.ev8.predictor import EV8BranchPredictor
from repro.experiments.common import make_fig5_configs
from repro.history.providers import BranchGhistProvider, ev8_info_provider
from repro.obs import (NULL_TELEMETRY, NullTelemetry, Telemetry,
                       get_telemetry, render_summary, set_telemetry,
                       use_telemetry)
from repro.predictors import BimodalPredictor, EGskewPredictor
from repro.predictors.twobcgskew import TableConfig, TwoBcGskewPredictor
from repro.sim.engine import BatchedEngine, ScalarEngine
from repro.sim.sweep import sweep, sweep_parallel
from repro.workloads.spec95 import spec95_trace

from conftest import TEST_TRACE_BRANCHES


def small_2bcgskew(update_policy: str = "partial") -> TwoBcGskewPredictor:
    return TwoBcGskewPredictor(
        TableConfig(1024, 0), TableConfig(2048, 9, 1024),
        TableConfig(2048, 13), TableConfig(2048, 11, 1024),
        update_policy=update_policy)


# Every batched kernel at realistic table occupancy: the Table 1 EV8 on its
# own provider (shared hysteresis at ratio 2), the Fig 5 set (2Bc-gskew,
# bi-mode, gshare, YAGS), e-gskew, and a bimodal sharing hysteresis at
# ratio 4.
COUNTER_CASES = {
    "2bc-gskew-small": (small_2bcgskew, BranchGhistProvider),
    "ev8-table1": (EV8BranchPredictor, ev8_info_provider),
    "egskew": (lambda: EGskewPredictor(1 << 14, 12, 8), BranchGhistProvider),
    "bimodal-hysteresis-ratio-4": (
        lambda: BimodalPredictor(1 << 12, hysteresis_entries=1 << 10),
        BranchGhistProvider),
    **{name: (make, BranchGhistProvider)
       for name, make in make_fig5_configs().items()},
}


# -- sink unit tests ----------------------------------------------------------

class TestNullTelemetry:
    def test_disabled_and_inert(self):
        sink = NullTelemetry()
        assert not sink.enabled
        sink.count("x")
        sink.observe("y", 1.5)
        with sink.span("z"):
            pass
        assert sink.snapshot() == {"counters": {}, "histograms": {},
                                   "spans": {}}

    def test_shared_instance_is_the_default(self):
        assert isinstance(NULL_TELEMETRY, NullTelemetry)
        assert not NULL_TELEMETRY.enabled


class TestTelemetrySink:
    def test_counters_accumulate(self):
        sink = Telemetry()
        sink.count("a")
        sink.count("a", 4)
        sink.count("b", 0)
        assert sink.counters == {"a": 5, "b": 0}

    def test_histograms_reduce(self):
        sink = Telemetry()
        for value in (2.0, 8.0, 5.0):
            sink.observe("latency", value)
        stats = sink.histograms["latency"]
        assert stats == {"count": 3, "total": 15.0, "min": 2.0, "max": 8.0}

    def test_spans_nest(self):
        sink = Telemetry()
        with sink.span("outer"):
            assert sink.span_depth == 1
            with sink.span("inner"):
                assert sink.span_depth == 2
        assert sink.span_depth == 0
        assert set(sink.spans) == {"outer", "outer/inner"}
        assert sink.spans["outer"]["seconds"] >= \
            sink.spans["outer/inner"]["seconds"]

    def test_span_names_reject_separator(self):
        sink = Telemetry()
        with pytest.raises(ValueError, match="span names"):
            with sink.span("a/b"):
                pass

    def test_span_reentry_accumulates(self):
        sink = Telemetry()
        for _ in range(3):
            with sink.span("loop"):
                pass
        assert sink.spans["loop"]["count"] == 3

    def test_merge_snapshot_adds_and_widens(self):
        left, right = Telemetry(), Telemetry()
        left.count("n", 2)
        right.count("n", 3)
        right.count("only_right")
        left.observe("h", 1.0)
        right.observe("h", 9.0)
        with right.span("s"):
            pass
        left.merge_snapshot(right.snapshot())
        assert left.counters == {"n": 5, "only_right": 1}
        assert left.histograms["h"] == {"count": 2, "total": 10.0,
                                        "min": 1.0, "max": 9.0}
        assert left.spans["s"]["count"] == 1

    def test_merged_spans_nest_under_the_open_spans(self):
        # As they would have had the cell recorded into this sink.
        section, cell = Telemetry(), Telemetry()
        with cell.span("run"):
            with cell.span("replay"):
                pass
        with section.span("fig5"):
            with section.span("grid"):
                section.merge_snapshot(cell.snapshot())
        section.merge_snapshot(cell.snapshot())
        assert sorted(section.spans) == ["fig5", "fig5/grid",
                                         "fig5/grid/run",
                                         "fig5/grid/run/replay", "run",
                                         "run/replay"]

    def test_counts_from_many_threads_are_exact(self):
        # Switch threads as often as the interpreter allows, so an
        # unlocked read-add-store would lose increments.
        sink, threads, calls = Telemetry(), 8, 5_000
        barrier = threading.Barrier(threads, timeout=10)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def count():
            barrier.wait()
            for _ in range(calls):
                sink.count("n")
                sink.observe("h", 1.0)

        try:
            workers = [threading.Thread(target=count)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert sink.counters == {"n": threads * calls}
        assert sink.histograms["h"]["count"] == threads * calls

    def test_json_round_trip(self, tmp_path):
        sink = Telemetry()
        sink.count("c", 7)
        sink.observe("h", 0.5)
        path = tmp_path / "telemetry.json"
        text = sink.to_json(path)
        assert json.loads(text) == sink.snapshot()
        assert json.loads(path.read_text()) == sink.snapshot()

    def test_csv_rows(self, tmp_path):
        sink = Telemetry()
        sink.count("c", 7)
        sink.observe("h", 0.5)
        with sink.span("s"):
            pass
        path = tmp_path / "telemetry.csv"
        text = sink.to_csv(path)
        lines = text.strip().splitlines()
        assert lines[0] == "kind,name,field,value"
        assert "counter,c,value,7" in lines
        assert any(line.startswith("histogram,h,count,") for line in lines)
        assert any(line.startswith("span,s,seconds,") for line in lines)
        assert path.read_text() == text

    def test_write_picks_format_by_extension(self, tmp_path):
        sink = Telemetry()
        sink.count("c")
        sink.write(tmp_path / "t.csv")
        sink.write(tmp_path / "t.json")
        assert (tmp_path / "t.csv").read_text().startswith("kind,name")
        assert json.loads((tmp_path / "t.json").read_text())


class TestActiveSinkPlumbing:
    def test_default_is_null(self):
        assert get_telemetry() is NULL_TELEMETRY

    def test_explicit_sink_passes_through(self):
        sink = Telemetry()
        assert get_telemetry(sink) is sink

    def test_set_and_restore(self):
        sink = Telemetry()
        previous = set_telemetry(sink)
        try:
            assert get_telemetry() is sink
        finally:
            set_telemetry(previous)
        assert get_telemetry() is previous

    def test_use_telemetry_scopes(self):
        sink = Telemetry()
        with use_telemetry(sink) as active:
            assert active is sink
            assert get_telemetry() is sink
        assert get_telemetry() is NULL_TELEMETRY

    def test_use_telemetry_none_is_null(self):
        with use_telemetry(None) as active:
            assert active is NULL_TELEMETRY


class TestRenderSummary:
    def test_sections(self):
        sink = Telemetry()
        sink.count("bank.g0.reads", 100)
        sink.count("bank.g0.hysteresis_writes", 10)
        sink.count("arbitration.bim_chosen", 60)
        sink.observe("result_cache.hit_seconds", 0.001)
        with sink.span("run"):
            pass
        text = render_summary(sink.snapshot())
        assert "Per-bank counter traffic" in text
        assert "g0" in text
        assert "arbitration.bim_chosen" in text
        assert "result_cache.hit_seconds" in text
        assert "run" in text

    def test_index_span_gets_a_legend(self):
        """The gather runs inside the kernel, so the summary says that the
        ``index`` span is descriptor set-up only, and only when it is
        there."""
        sink = Telemetry()
        with sink.span("replay"):
            pass
        assert "gather" not in render_summary(sink.snapshot())
        with sink.span("replay"):
            with sink.span("index"):
                pass
        text = render_summary(sink.snapshot()).splitlines()
        legend = [line for line in text if "gather" in line]
        assert legend == ["(replay/index times lookup-descriptor set-up; "
                          "the byte-table gather runs inside the replay "
                          "kernel)"]
        assert text.index(legend[0]) == text.index(
            "Spans  (count / total seconds)") + 1

    def test_empty_snapshot(self):
        assert render_summary(Telemetry().snapshot()) \
            == "(no telemetry recorded)"


# -- cross-layer invariants ---------------------------------------------------

@pytest.fixture(scope="module")
def instrumented_run(gcc_trace):
    """One scalar run of the small 2Bc-gskew under a recording sink."""
    sink = Telemetry()
    predictor = small_2bcgskew()
    result = ScalarEngine().run(predictor, gcc_trace, telemetry=sink)
    return result, sink.snapshot(), predictor


# The module-scope fixture needs a module-scope trace; reuse the session
# fixture values through a tiny indirection.
@pytest.fixture(scope="module")
def gcc_trace():
    return spec95_trace("gcc", TEST_TRACE_BRANCHES)


class TestEngineInvariants:
    def test_reads_equal_branches_times_banks_consulted(self,
                                                        instrumented_run):
        result, snapshot, _ = instrumented_run
        counters = snapshot["counters"]
        # 2Bc-gskew consults all four banks on every prediction; partial
        # update suppresses *writes*, never fetch-time reads.
        for bank in ("bim", "g0", "g1", "meta"):
            assert counters[f"bank.{bank}.reads"] == result.branches

    def test_arbitration_partitions_branches(self, instrumented_run):
        result, snapshot, _ = instrumented_run
        counters = snapshot["counters"]
        assert (counters["arbitration.bim_chosen"]
                + counters["arbitration.majority_chosen"]) == result.branches
        assert counters["arbitration.chosen_correct"] \
            == result.branches - result.mispredictions

    def test_update_events_partition_branches(self, instrumented_run):
        result, snapshot, _ = instrumented_run
        counters = snapshot["counters"]
        events = sum(counters.get(f"update.{kind}", 0)
                     for kind in ("suppressed", "strengthened",
                                  "chooser_fixed", "full"))
        assert events == result.branches
        assert counters["update.suppressed_writes"] \
            == 3 * counters["update.suppressed"]

    def test_result_carries_snapshot(self, instrumented_run):
        result, snapshot, _ = instrumented_run
        assert result.telemetry == snapshot

    def test_engine_detaches_sink_after_run(self, instrumented_run):
        _, _, predictor = instrumented_run
        assert predictor._telemetry is NULL_TELEMETRY
        assert predictor.bim._telemetry is NULL_TELEMETRY

    def test_uninstrumented_run_stamps_none(self, gcc_trace):
        result = ScalarEngine().run(small_2bcgskew(), gcc_trace)
        assert result.telemetry is None

    def test_batched_spans_nest_run_phases(self, gcc_trace):
        sink = Telemetry()
        BatchedEngine(strict=True).run(small_2bcgskew(), gcc_trace,
                                       telemetry=sink)
        assert "batched_run" in sink.spans
        for child in ("batched_run/materialize", "batched_run/replay"):
            assert child in sink.spans
            assert sink.spans["batched_run"]["seconds"] \
                >= sink.spans[child]["seconds"]
        assert sink.span_depth == 0

    @pytest.mark.parametrize("case", sorted(COUNTER_CASES))
    def test_batched_counters_match_scalar(self, case, gcc_trace):
        """A recording sink on the batched engine sees the scalar run's
        bank, arbitration and update counters, key for key, and
        ``engine.branches`` carries the replayed position count."""
        make, make_provider = COUNTER_CASES[case]
        sinks = Telemetry(), Telemetry()
        scalar, batched = (
            engine.run(make(), gcc_trace, make_provider(), telemetry=sink)
            for engine, sink in zip((ScalarEngine(),
                                     BatchedEngine(strict=True)), sinks))

        def predictor_counters(counters):
            return {name: value for name, value in counters.items()
                    if not name.startswith("engine.")}

        assert predictor_counters(sinks[1].counters) \
            == predictor_counters(sinks[0].counters)
        assert batched.mispredictions == scalar.mispredictions
        assert sinks[1].counters["engine.branches"] == batched.branches

    def test_partial_update_suppresses_hysteresis_writes(self, gcc_trace):
        """The Section 4.2 claim, measured: the partial policy issues
        strictly less strength-bit traffic than total update."""
        def hysteresis_writes(policy):
            sink = Telemetry()
            ScalarEngine().run(small_2bcgskew(policy), gcc_trace,
                               telemetry=sink)
            return sum(value for name, value in sink.counters.items()
                       if name.endswith(".hysteresis_writes"))
        assert hysteresis_writes("partial") < hysteresis_writes("total")


# -- sweep merging ------------------------------------------------------------

def _sweep_predictor(history: int) -> TwoBcGskewPredictor:
    return TwoBcGskewPredictor(
        TableConfig(256, 0), TableConfig(512, history),
        TableConfig(512, history + 2), TableConfig(512, history + 1))


class TestSweepTelemetryMerging:
    def test_serial_and_parallel_merge_identically(self):
        traces = {"gcc": spec95_trace("gcc", 4000),
                  "compress": spec95_trace("compress", 4000)}
        values = [4, 7, 10]
        serial, parallel = Telemetry(), Telemetry()
        points_serial = sweep(_sweep_predictor, values, traces,
                              engine="batched", telemetry=serial)
        points_parallel = sweep_parallel(_sweep_predictor, values, traces,
                                         engine="batched", max_workers=2,
                                         telemetry=parallel)
        assert [p.value for p in points_serial] \
            == [p.value for p in points_parallel] == values
        assert [p.mean_misp_per_ki for p in points_serial] \
            == [p.mean_misp_per_ki for p in points_parallel]
        assert serial.counters == parallel.counters
        assert serial.counters  # non-trivial: the sweep recorded something
        # Span *counts* are deterministic too; wall seconds of course differ.
        assert {path: record["count"]
                for path, record in serial.spans.items()} \
            == {path: record["count"]
                for path, record in parallel.spans.items()}

    def test_disabled_sink_records_nothing(self):
        traces = {"gcc": spec95_trace("gcc", 1000)}
        points = sweep(_sweep_predictor, [4], traces, engine="batched")
        assert len(points) == 1
        assert get_telemetry() is NULL_TELEMETRY


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
