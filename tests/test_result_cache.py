"""Persistent caches: result-cache keying/storage/driver plumbing, plus the
telemetry that distinguishes cold-miss, corrupt-regenerate and hit for both
the result cache and the trace cache."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from array import array

import numpy as np
import pytest

from conftest import simple_loop_trace
from repro.common.counters import SplitCounterArray
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import BlockLghistProvider, BranchGhistProvider
from repro.obs import Telemetry, use_telemetry
from repro.predictors import GsharePredictor, YagsPredictor
from repro.sim import result_cache
from repro.sim.driver import simulate
from repro.sim.metrics import SimulationResult
from repro.sim.result_cache import (
    CACHE_DIR_ENV_VAR,
    CACHE_ENV_VAR,
    UncacheableError,
    cache_dir,
    cache_enabled,
    load,
    result_key,
    store,
)
from repro.traces.io import TraceCache


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Enable the cache in an isolated directory."""
    monkeypatch.setenv(CACHE_ENV_VAR, "1")
    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "cache"))
    return tmp_path / "cache"


@pytest.fixture
def trace():
    return simple_loop_trace(400, taken_pattern=(True, True, False))


def _gshare():
    return GsharePredictor(1 << 10, 10)


class TestEnvironment:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert not cache_enabled()

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), (" on ", True),
        ("0", False), ("off", False), ("", False),
    ])
    def test_truthy_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        assert cache_enabled() is expected

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "x"))
        assert cache_dir() == tmp_path / "x"


class TestResultKey:
    def test_deterministic_across_fresh_instances(self, trace):
        first = result_key(_gshare(), trace, BranchGhistProvider(), 0,
                           "batched")
        second = result_key(_gshare(), trace, BranchGhistProvider(), 0,
                            "batched")
        assert first == second

    def test_discriminates_every_input(self, trace):
        base = result_key(_gshare(), trace, None, 0, "batched")
        assert result_key(GsharePredictor(1 << 10, 12), trace, None, 0,
                          "batched") != base
        assert result_key(_gshare(), trace, BranchGhistProvider(), 0,
                          "batched") != base
        assert result_key(_gshare(), trace, None, 100, "batched") != base
        assert result_key(_gshare(), trace, None, 0, "scalar") != base
        other_trace = simple_loop_trace(400)  # different outcome pattern
        assert result_key(_gshare(), other_trace, None, 0, "batched") != base

    def test_discriminates_provider_configuration(self, trace):
        aged = result_key(_gshare(), trace,
                          BlockLghistProvider(delay_blocks=3), 0, "scalar")
        fresh = result_key(_gshare(), trace,
                           BlockLghistProvider(delay_blocks=0), 0, "scalar")
        assert aged != fresh

    def test_trace_name_excluded_from_key(self):
        # Identical content under different names is the same simulation.
        first = simple_loop_trace(200, name="a")
        second = simple_loop_trace(200, name="b")
        assert result_key(_gshare(), first, None, 0, "scalar") == \
            result_key(_gshare(), second, None, 0, "scalar")

    def test_uncacheable_inputs_raise(self, trace):
        predictor = _gshare()
        predictor.hook = lambda: None  # a callable attribute
        with pytest.raises(UncacheableError):
            result_key(predictor, trace, None, 0, "scalar")

    def test_buffers_key_by_content(self, trace):
        def key(value):
            predictor = _gshare()
            predictor.extra = value
            return result_key(predictor, trace, None, 0, "scalar")

        assert key(array("B", [1, 2])) != key(array("B", [9, 9, 9]))
        assert key(array("B", [1, 2])) != key(array("H", [1, 2]))
        assert key(memoryview(b"ab")) != key(memoryview(b"ac"))
        assert key(np.int64(3)) != key(np.int64(5))
        assert key(array("B", [1, 2])) == key(array("B", [1, 2]))
        # Uniform contents take the run-length form; they must stay
        # distinct from each other and from non-uniform contents.
        assert key(array("B", [7, 7])) != key(array("B", [7, 7, 7]))
        assert key(array("B", [7, 7])) != key(array("H", [7, 7]))
        assert key(array("B", [7, 7])) != key(array("B", [7, 8]))
        assert key(memoryview(b"aa")) != key(memoryview(b"ab"))
        assert key(memoryview(b"aa")) != key(memoryview(b"aaa"))
        assert key(np.zeros(4, np.uint8)) != key(np.zeros(4, np.int8))
        assert key(np.zeros(4, np.uint8)) != key(np.zeros((2, 2), np.uint8))
        assert key(np.zeros(4, np.uint8)) != key(np.ones(4, np.uint8))
        assert key(np.zeros(4, np.uint8)) != key(np.arange(4, dtype=np.uint8))
        assert key(np.int64(0)) != key(np.int32(0))

    def test_uniform_buffers_key_by_content(self, trace):
        def key(value):
            predictor = _gshare()
            predictor.extra = value
            return result_key(predictor, trace, None, 0, "scalar")

        uniform = bytearray(4096)
        base = key(uniform)
        for index in (0, len(uniform) - 1):
            changed = bytearray(uniform)
            changed[index] = 1
            assert key(changed) != base
        assert key(bytearray(4097)) != base
        assert key(bytearray(b"\x01") * 4096) != base
        assert key(bytes(uniform)) == base
        assert key(b"\x01\x02") == key(bytearray(b"\x01\x02"))
        assert key(b"") == key(bytearray())
        assert key(b"") != key(b"\x00")

    def test_counter_init_direction_keys(self, trace):
        def key(array):
            predictor = _gshare()
            predictor.extra = array
            return result_key(predictor, trace, None, 0, "scalar")

        assert key(SplitCounterArray(1024, init_taken=True)) != \
            key(SplitCounterArray(1024))

    def test_fresh_tables_hash_in_run_length_form(self):
        # A cache hit fingerprints a freshly built predictor: its 64K-entry
        # tables must cost a few header bytes each, not their full size.
        trace = simple_loop_trace(400)
        result_key(EV8BranchPredictor(), trace,
                   EV8BranchPredictor.make_provider(), 0, "batched")
        fed = []
        sha256 = hashlib.sha256

        class CountingHasher:
            def __init__(self, data=b""):
                self._hasher = sha256(data)
                fed.append(len(data))

            def update(self, data):
                fed.append(len(data))
                self._hasher.update(data)

            def hexdigest(self):
                return self._hasher.hexdigest()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(result_cache.hashlib, "sha256", CountingHasher)
            result_key(EV8BranchPredictor(), trace,
                       EV8BranchPredictor.make_provider(), 0, "batched")
        assert fed
        assert sum(fed) < 16 * 1024

    def test_key_salted_with_simulator_sources(self, trace, monkeypatch):
        base = result_key(_gshare(), trace, None, 0, "scalar")
        assert result_key(_gshare(), trace, None, 0, "scalar") == base
        digest = result_cache._source_digest()
        assert digest == result_cache._source_digest()
        assert len(digest) == 32
        monkeypatch.setattr(result_cache, "_source_digest",
                            lambda: bytes(32))
        assert result_key(_gshare(), trace, None, 0, "scalar") != base

    def test_source_digest_covers_semantic_sources(self, tmp_path,
                                                   monkeypatch):
        for entry in ("predictors/x.py", "common/x.py", "history/x.py",
                      "indexing/x.py", "ev8/x.py", "sim/engine.py",
                      "sim/report.py"):
            (tmp_path / entry).parent.mkdir(exist_ok=True)
            (tmp_path / entry).write_text("pass\n")
        monkeypatch.setattr(result_cache, "_PACKAGE_ROOT", tmp_path)
        digest = result_cache._source_digest.__wrapped__
        base = digest()
        (tmp_path / "sim/report.py").write_text("changed\n")
        assert digest() == base
        (tmp_path / "sim/engine.py").write_text("changed\n")
        edited = digest()
        assert edited != base
        (tmp_path / "ev8/x.py").rename(tmp_path / "ev8/y.py")
        assert digest() not in (base, edited)

    def test_source_digest_covers_the_c_kernels(self):
        files = result_cache._semantic_files()
        assert "kernels/replay.c" in files
        assert "kernels/__init__.py" in files

    def test_source_digest_covers_the_fetch_block_geometry(self):
        # Fetch blocks and the geometry every materialized batch is built
        # from decide what a simulation computes.
        assert "traces/fetch.py" in result_cache._semantic_files()

    def test_objects_without_attributes_raise(self, trace):
        predictor = _gshare()
        predictor.extra = {1, 2}  # neither __dict__ nor __slots__
        with pytest.raises(UncacheableError):
            result_key(predictor, trace, None, 0, "scalar")

    @pytest.mark.parametrize("tag_bits", [6, 12])
    def test_yags_tag_contents_key(self, trace, tag_bits):
        first = YagsPredictor(256, 256, 4, tag_bits=tag_bits)
        second = YagsPredictor(256, 256, 4, tag_bits=tag_bits)
        assert result_key(first, trace, None, 0, "scalar") == \
            result_key(second, trace, None, 0, "scalar")
        second.taken_cache._tags[17] = 5
        assert result_key(first, trace, None, 0, "scalar") != \
            result_key(second, trace, None, 0, "scalar")


class TestStorage:
    RESULT = SimulationResult(predictor_name="gshare", trace_name="loop",
                              branches=400, mispredictions=37,
                              instructions=1600, wall_seconds=0.25,
                              engine="batched", cache="miss")

    def test_round_trip_marks_hit(self, cache_env):
        store("deadbeef", self.RESULT)
        loaded = load("deadbeef")
        assert loaded is not None
        assert loaded.cache == "hit"
        assert dataclasses.replace(loaded, cache="miss") == self.RESULT

    def test_stored_payload_omits_cache_provenance(self, cache_env):
        store("deadbeef", self.RESULT)
        payload = json.loads((cache_env / "deadbeef.json").read_text())
        assert "cache" not in payload
        assert payload["mispredictions"] == 37

    def test_missing_entry_is_none(self, cache_env):
        assert load("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, cache_env):
        cache_env.mkdir(parents=True, exist_ok=True)
        (cache_env / "bad.json").write_text("{not json")
        (cache_env / "partial.json").write_text('{"branches": 3}')
        assert load("bad") is None
        assert load("partial") is None


class TestDriverPlumbing:
    def test_cache_off_by_default(self, trace, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "cache"))
        result = simulate(_gshare(), trace)
        assert result.cache == "off"
        assert not (tmp_path / "cache").exists()

    def test_miss_then_hit(self, cache_env, trace):
        first = simulate(_gshare(), trace, engine="batched")
        assert first.cache == "miss"
        assert list(cache_env.glob("*.json"))
        second = simulate(_gshare(), trace, engine="batched")
        assert second.cache == "hit"
        assert second.mispredictions == first.mispredictions
        assert second.branches == first.branches
        assert second.engine == first.engine

    def test_explicit_use_cache_overrides_environment(self, cache_env,
                                                      trace, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        first = simulate(_gshare(), trace, use_cache=True)
        second = simulate(_gshare(), trace, use_cache=True)
        assert (first.cache, second.cache) == ("miss", "hit")
        third = simulate(_gshare(), trace, use_cache=False)
        assert third.cache == "off"

    def test_engines_key_separately(self, cache_env, trace):
        batched = simulate(_gshare(), trace, engine="batched")
        scalar = simulate(_gshare(), trace, engine="scalar")
        assert (batched.cache, scalar.cache) == ("miss", "miss")
        assert scalar.mispredictions == batched.mispredictions

    def test_uncacheable_predictor_runs_uncached(self, cache_env, trace):
        predictor = _gshare()
        predictor.hook = lambda: None
        result = simulate(predictor, trace)
        assert result.cache == "off"
        assert result.branches == 400

    def test_hit_matches_fresh_simulation(self, cache_env, trace):
        simulate(_gshare(), trace, engine="batched", warmup_branches=50)
        hit = simulate(_gshare(), trace, engine="batched",
                       warmup_branches=50)
        fresh = simulate(_gshare(), trace, engine="batched",
                         warmup_branches=50, use_cache=False)
        assert hit.cache == "hit"
        assert hit.mispredictions == fresh.mispredictions
        assert hit.branches == fresh.branches


class TestResultCacheTelemetry:
    """The cache telemetry distinguishes its three lookup outcomes."""

    def test_cold_miss_then_hit(self, cache_env, trace):
        sink = Telemetry()
        first = simulate(_gshare(), trace, engine="batched", telemetry=sink)
        second = simulate(_gshare(), trace, engine="batched", telemetry=sink)
        assert (first.cache, second.cache) == ("miss", "hit")
        assert sink.counters["result_cache.cold_misses"] == 1
        assert sink.counters["result_cache.hits"] == 1
        assert sink.counters["result_cache.stores"] == 1
        assert "result_cache.corrupt" not in sink.counters
        assert sink.histograms["result_cache.hit_seconds"]["count"] == 1
        assert sink.histograms["result_cache.miss_seconds"]["count"] == 1
        # The miss simulated; the hit only read a small JSON file.
        assert sink.histograms["result_cache.miss_seconds"]["total"] \
            >= sink.histograms["result_cache.hit_seconds"]["total"]

    def test_corrupt_entry_counts_and_is_rewritten(self, cache_env, trace):
        simulate(_gshare(), trace, engine="batched")
        entry, = cache_env.glob("*.json")
        entry.write_text("{definitely not json")
        sink = Telemetry()
        recovered = simulate(_gshare(), trace, engine="batched",
                             telemetry=sink)
        assert recovered.cache == "miss"  # re-simulated and re-stored
        assert sink.counters["result_cache.corrupt"] == 1
        assert sink.counters["result_cache.stores"] == 1
        assert "result_cache.hits" not in sink.counters
        assert "result_cache.cold_misses" not in sink.counters
        # The rewrite healed the entry: the next lookup is a clean hit.
        healed = simulate(_gshare(), trace, engine="batched", telemetry=sink)
        assert healed.cache == "hit"
        assert sink.counters["result_cache.hits"] == 1
        assert healed.mispredictions == recovered.mispredictions

    def test_structurally_invalid_entry_is_corrupt(self, cache_env):
        cache_env.mkdir(parents=True, exist_ok=True)
        (cache_env / "partial.json").write_text('{"branches": 3}')
        sink = Telemetry()
        assert load("partial", telemetry=sink) is None
        assert sink.counters == {"result_cache.corrupt": 1}

    def test_active_sink_used_when_none_passed(self, cache_env):
        sink = Telemetry()
        with use_telemetry(sink):
            assert load("0" * 64) is None
        assert sink.counters == {"result_cache.cold_misses": 1}

    def test_null_sink_records_nothing(self, cache_env, trace):
        result = simulate(_gshare(), trace, engine="batched")
        assert result.cache == "miss"
        assert load("0" * 64) is None  # and no sink to notice it


class TestTraceCacheTelemetry:
    """trace_cache.* distinguishes memory hit, disk hit, cold miss and
    corrupt-regenerate (the satellite case: a garbage ``.npz`` must be
    dropped, regenerated, and rewritten)."""

    @staticmethod
    def _generator(calls):
        def generate():
            calls.append(1)
            return simple_loop_trace(60, name="cached")
        return generate

    def test_cold_miss_then_memory_then_disk(self, tmp_path):
        sink = Telemetry()
        calls = []
        cache = TraceCache(tmp_path, telemetry=sink)
        cache.get_or_generate("t", {"n": 1}, self._generator(calls))
        assert sink.counters == {"trace_cache.cold_misses": 1}
        assert sink.histograms["trace_cache.generate_seconds"]["count"] == 1

        cache.get_or_generate("t", {"n": 1}, self._generator(calls))
        assert sink.counters["trace_cache.memory_hits"] == 1

        cache.clear_memory()
        cache.get_or_generate("t", {"n": 1}, self._generator(calls))
        assert sink.counters["trace_cache.disk_hits"] == 1
        assert len(calls) == 1  # generated exactly once throughout

    def test_corrupt_npz_is_regenerated_and_rewritten(self, tmp_path):
        sink = Telemetry()
        calls = []
        cache = TraceCache(tmp_path, telemetry=sink)
        first = cache.get_or_generate("t", {"n": 1}, self._generator(calls))
        archive, = tmp_path.glob("*.npz")
        archive.write_bytes(b"\x00garbage, not a zip archive")

        cache.clear_memory()
        regenerated = cache.get_or_generate("t", {"n": 1},
                                            self._generator(calls))
        assert len(calls) == 2
        assert regenerated.conditional_count == first.conditional_count
        assert sink.counters["trace_cache.corrupt_regenerated"] == 1
        assert sink.counters["trace_cache.cold_misses"] == 1
        assert sink.histograms["trace_cache.generate_seconds"]["count"] == 2

        # The regeneration rewrote the archive: next lookup is a disk hit.
        cache.clear_memory()
        cache.get_or_generate("t", {"n": 1}, self._generator(calls))
        assert len(calls) == 2
        assert sink.counters["trace_cache.disk_hits"] == 1

    def test_defers_to_active_sink_when_unbound(self, tmp_path):
        sink = Telemetry()
        cache = TraceCache(tmp_path)  # no sink bound at construction
        with use_telemetry(sink):
            cache.get_or_generate("t", {"n": 1}, self._generator([]))
        assert sink.counters == {"trace_cache.cold_misses": 1}
        # Outside the scope, the same instance goes quiet again.
        cache.clear_memory()
        cache.get_or_generate("t", {"n": 1}, self._generator([]))
        assert sink.counters == {"trace_cache.cold_misses": 1}
