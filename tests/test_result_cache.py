"""Persistent caches: result-cache keying/storage/driver plumbing, plus the
telemetry that distinguishes cold-miss, corrupt-regenerate and hit for both
the result cache and the trace cache."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
from array import array
from collections import defaultdict, deque, namedtuple

import numpy as np
import pytest

from conftest import scalar_predictions, simple_loop_trace
from repro.cli import _PREDICTOR_CHOICES, _make_predictor
from repro.common.counters import SplitCounterArray
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import BlockLghistProvider, BranchGhistProvider
from repro.obs import Telemetry, use_telemetry
from repro.predictors import CascadePredictor, GsharePredictor, YagsPredictor
from repro.sim import result_cache
from repro.sim.compare import run_comparison
from repro.sim.driver import simulate
from repro.sim.metrics import SimulationResult
from repro.sim.result_cache import (
    CACHE_DIR_ENV_VAR,
    CACHE_ENV_VAR,
    UncacheableError,
    cache_dir,
    cache_enabled,
    load,
    log_path,
    result_key,
    store,
)
from repro.traces.io import TraceCache
from repro.workloads.spec95 import spec95_trace


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


def _records() -> list[tuple[str, dict]]:
    """Every line of the result log as ``(key, stored fields)``."""
    text = log_path().read_text()
    assert text.endswith("\n")
    return [(key, json.loads(payload)) for key, payload
            in (line.split(" ", 1) for line in text.splitlines())]


def _append_line(line: str) -> None:
    log_path().parent.mkdir(parents=True, exist_ok=True)
    with open(log_path(), "a") as log:
        log.write(line)


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

    def test_fingerprints_key_as_the_live_objects(self, trace):
        live = result_key(_gshare(), trace, BranchGhistProvider(), 0,
                          "batched")
        assert result_key(result_cache.predictor_fingerprint(_gshare()),
                          trace,
                          result_cache.fingerprint(BranchGhistProvider()),
                          0, "batched") == live
        assert result_key(_gshare(), trace, result_cache.fingerprint(None),
                          0, "batched") \
            == result_key(_gshare(), trace, None, 0, "batched")

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

    @pytest.mark.parametrize("name", _PREDICTOR_CHOICES)
    def test_display_name_is_not_a_simulation_input(self, name):
        # Two instances that differ only in their display name key alike
        # and predict alike, branch for branch.
        trace = spec95_trace("gcc", 2_000)

        def provider():
            return (EV8BranchPredictor.make_provider() if name == "ev8"
                    else BranchGhistProvider())

        first, renamed = _make_predictor(name), _make_predictor(name)
        renamed.name = "renamed"
        assert result_key(first, trace, provider(), 0, "scalar") == \
            result_key(renamed, trace, provider(), 0, "scalar")
        assert np.array_equal(
            scalar_predictions(first, trace, provider()),
            scalar_predictions(renamed, trace, provider()))

    def test_configuration_still_keys_under_one_name(self, trace):
        assert result_key(GsharePredictor(1 << 10, 10, name="g"), trace,
                          None, 0, "scalar") != \
            result_key(GsharePredictor(1 << 11, 10, name="g"), trace, None,
                       0, "scalar")

        # Only the top-level name is left out; a held predictor's still keys.
        def cascade(primary_name):
            return CascadePredictor(GsharePredictor(1 << 10, 10,
                                                    name=primary_name),
                                    _gshare(), name="c")
        assert result_key(cascade("a"), trace, None, 0, "scalar") != \
            result_key(cascade("b"), trace, None, 0, "scalar")

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

    def test_large_buffers_feed_what_a_whole_buffer_compare_decides(self):
        # Past one chunk the uniform test runs chunk by chunk; it must pick
        # the same form a compare against a full-size copy picks.
        def fed(data):
            hasher = hashlib.sha256()
            result_cache._update_buffer(hasher, b"h", data)
            return hasher.digest()

        def reference(data):
            hasher = hashlib.sha256()
            if data == data[:1] * len(data):
                hasher.update(b"\x00Uh" + str(len(data)).encode() + b":"
                              + data[:1])
            else:
                hasher.update(b"h")
                hasher.update(data)
            return hasher.digest()

        chunk = result_cache._UNIFORM_CHUNK
        for size in (chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 7,
                     1 << 20):
            for fill in (0, 3):
                uniform = bytearray([fill]) * size
                assert fed(uniform) == reference(uniform)
                assert fed(bytes(uniform)) == reference(uniform)
                for index in {0, 1, chunk - 1, chunk, size // 2,
                              size - chunk, size - 1} & set(range(size)):
                    changed = bytearray(uniform)
                    changed[index] ^= 1
                    assert fed(changed) == reference(changed), (size, index)

    def test_sequence_subclasses_key_by_type_and_items(self, trace):
        def key(value):
            predictor = _gshare()
            predictor.extra = value
            return result_key(predictor, trace, None, 0, "scalar")

        class Tagged(list):
            pass

        pair, other = namedtuple("P", "a b"), namedtuple("Q", "a b")
        assert key(pair(1, 2)) == key(pair(1, 2))
        assert key(pair(1, 2)) != key(pair(1, 3))
        assert key(pair(1, 2)) != key(other(1, 2))
        assert key(pair(1, 2)) != key((1, 2))
        assert key(Tagged([1])) != key([1])
        assert key(deque([1])) != key([1])
        tagged = Tagged([1])
        tagged.note = "x"
        assert key(tagged) != key(Tagged([1]))

    def test_dict_subclasses_key_by_type_and_items(self, trace):
        def key(value):
            predictor = _gshare()
            predictor.extra = value
            return result_key(predictor, trace, None, 0, "scalar")

        class Tagged(dict):
            pass

        assert key(Tagged({1: 2})) == key(Tagged({1: 2}))
        assert key(Tagged({1: 2})) != key({1: 2})
        assert key(Tagged({1: 2})) != key(Tagged({1: 3}))
        tagged = Tagged({1: 2})
        tagged.note = "x"
        assert key(tagged) != key(Tagged({1: 2}))

    @pytest.mark.parametrize("factory", [list, int])
    def test_defaultdicts_are_uncacheable(self, trace, factory):
        predictor = _gshare()
        predictor.extra = defaultdict(factory, {1: 2})
        with pytest.raises(UncacheableError):
            result_key(predictor, trace, None, 0, "scalar")

    def test_namedtuple_attribute_runs_cached(self, cache_env, trace):
        pair = namedtuple("P", "a b")

        def run():
            predictor = _gshare()
            predictor.extra = pair(1, 2)
            return simulate(predictor, trace, use_cache=True).cache

        assert (run(), run()) == ("miss", "hit")

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

            def digest(self):
                return self._hasher.digest()

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
        (key, payload), = _records()
        assert key == "deadbeef"
        assert "cache" not in payload and "telemetry" not in payload
        assert payload["mispredictions"] == 37
        # One compact line per record, in a log named for the sources.
        assert " " not in log_path().read_text().split(" ", 1)[1]
        assert [path.name for path in cache_env.iterdir()] \
            == [log_path().name]
        assert log_path().name == \
            f"results-{result_cache._source_digest().hex()[:16]}.log"

    def test_missing_entry_is_none(self, cache_env):
        assert load("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, cache_env):
        _append_line('bad {not json\npartial {"branches": 3}\nbare\n')
        assert load("bad") is None
        assert load("partial") is None
        assert load("bare") is None

    def test_threads_storing_one_key_do_not_collide(self, cache_env,
                                                    monkeypatch):
        # Both threads have the log open before either appends: each
        # record must still land whole, on a line of its own.
        cache_env.mkdir(parents=True)
        barrier = threading.Barrier(2, timeout=10)
        open_log = os.open

        def open_together(*args):
            barrier.wait()
            return open_log(*args)

        monkeypatch.setattr(os, "open", open_together)
        errors = []

        def store_once():
            try:
                store("deadbeef", self.RESULT)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=store_once) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert dataclasses.replace(load("deadbeef"), cache="miss") \
            == self.RESULT
        assert [key for key, _ in _records()] == ["deadbeef"] * 2
        assert [path.name for path in cache_env.iterdir()] \
            == [log_path().name]


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
        assert len(_records()) == 1
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

    def test_hit_reports_the_live_names(self, cache_env, trace):
        first = simulate(GsharePredictor(1 << 10, 10, name="before"), trace)
        renamed = simulate(GsharePredictor(1 << 10, 10, name="after"),
                           simple_loop_trace(400, name="other",
                                             taken_pattern=(True, True,
                                                            False)))
        assert (first.cache, renamed.cache) == ("miss", "hit")
        assert (renamed.predictor_name, renamed.trace_name) \
            == ("after", "other")
        assert renamed.mispredictions == first.mispredictions

    def test_hit_matches_fresh_simulation(self, cache_env, trace):
        simulate(_gshare(), trace, engine="batched", warmup_branches=50)
        hit = simulate(_gshare(), trace, engine="batched",
                       warmup_branches=50)
        fresh = simulate(_gshare(), trace, engine="batched",
                         warmup_branches=50, use_cache=False)
        assert hit.cache == "hit"
        assert hit.mispredictions == fresh.mispredictions
        assert hit.branches == fresh.branches

    def test_hit_reports_no_wall_time(self, cache_env, trace):
        first = simulate(_gshare(), trace)
        second = simulate(_gshare(), trace)
        assert first.cache == "miss" and first.wall_seconds > 0.0
        assert (second.cache, second.wall_seconds) == ("hit", 0.0)
        # The stored entry keeps the time of the run that simulated it.
        (_, payload), = _records()
        assert payload["wall_seconds"] == first.wall_seconds

    def test_cached_comparison_reports_no_wall_time(self, cache_env, trace):
        configs = {"small": _gshare,
                   "large": lambda: GsharePredictor(1 << 12, 12)}
        run_comparison(configs, {"loop": trace})
        second = run_comparison(configs, {"loop": trace}).to_dict()
        assert second["cache"] == {name: {"loop": "hit"} for name in configs}
        assert second["wall_seconds"] \
            == {name: {"loop": 0.0} for name in configs}


_APPENDER = """
import sys, threading
from repro.sim.metrics import SimulationResult
from repro.sim.result_cache import store

def append(thread):
    for index in range(200):
        key = f"{sys.argv[1]}-{thread}-{index}"
        store(key, SimulationResult(
            predictor_name=key, trace_name="t", branches=index,
            mispredictions=thread, instructions=4 * index,
            wall_seconds=0.5, engine="batched", cache="miss"))

threads = [threading.Thread(target=append, args=(thread,))
           for thread in range(4)]
print("ready", flush=True)
sys.stdin.readline()
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
"""


class TestResultLog:
    """One append-only log per simulator version: each store is one
    append, a grid reads the log once, and a torn or corrupt record is
    re-simulated, never returned."""

    CONFIGS = {"small": _gshare,
               "large": lambda: GsharePredictor(1 << 12, 12)}

    def test_a_torn_final_line_misses_then_hits(self, cache_env, trace):
        first = simulate(_gshare(), trace)
        data = log_path().read_bytes()
        log_path().write_bytes(data[:len(data) // 2])
        sink = Telemetry()
        again = simulate(_gshare(), trace, telemetry=sink)
        assert again.cache == "miss"
        assert sink.counters["result_cache.cold_misses"] == 1
        assert sink.counters["result_cache.stores"] == 1
        healed = simulate(_gshare(), trace)
        assert healed.cache == "hit"
        assert healed.mispredictions == first.mispredictions
        # The torn piece stays a line of its own; the record after it is
        # whole.
        torn, whole, tail = log_path().read_bytes().split(b"\n")
        assert (torn, tail) == (data[:len(data) // 2], b"")
        assert whole.split(b" ")[0] == data.split(b" ")[0]
        assert json.loads(whole.split(b" ", 1)[1])["mispredictions"] \
            == first.mispredictions

    def test_a_broken_record_re_simulates_then_the_next_grid_hits(
            self, cache_env, trace):
        run_comparison(self.CONFIGS, {"loop": trace})
        key = _records()[0][0]
        _append_line(f'{key} {{"branches": 400, "engi\n')
        sink = Telemetry()
        with use_telemetry(sink):
            table = run_comparison(self.CONFIGS, {"loop": trace})
        assert sorted(result.cache for row in table.cells.values()
                      for result in row.values()) == ["hit", "miss"]
        assert sink.counters["result_cache.corrupt"] == 1
        assert sink.counters["result_cache.hits"] == 1
        assert sink.counters["result_cache.stores"] == 1
        assert sink.counters["engine.batched_runs"] == 1
        lines = log_path().read_text().splitlines()
        assert [line.split(" ", 1)[0] for line in lines[2:]] == [key, key]
        sink = Telemetry()
        with use_telemetry(sink):
            table = run_comparison(self.CONFIGS, {"loop": trace})
        assert sink.counters == {"result_cache.hits": 2}

    def test_processes_and_threads_append_whole_records(self, cache_env):
        environment = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        appenders = [subprocess.Popen(
            [sys.executable, "-c", _APPENDER, name], env=environment,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for name in ("a", "b")]
        for appender in appenders:
            assert appender.stdout.readline() == "ready\n"
        for appender in appenders:  # both start appending together
            appender.stdin.write("go\n")
            appender.stdin.close()
        for appender in appenders:
            assert appender.wait(timeout=60) == 0
            appender.stdout.close()
        records = _records()
        expected = {f"{name}-{thread}-{index}" for name in ("a", "b")
                    for thread in range(4) for index in range(200)}
        assert len(records) == len(expected)
        assert {key for key, _ in records} == expected
        snapshot = result_cache.LogSnapshot()
        for key in expected:
            loaded = load(key, log=snapshot)
            assert (loaded.predictor_name, loaded.instructions) \
                == (key, 4 * int(key.rsplit("-", 1)[1]))

    def test_a_warm_fig9_grid_opens_the_log_once(self, cache_env, tmp_path,
                                                 monkeypatch):
        from repro.experiments import fig9

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "records"))
        log = os.fspath(log_path())
        opened = []

        def counted(kind, real):
            def wrapper(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) \
                        and os.fspath(file) == log:
                    opened.append(kind)
                return real(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr("builtins.open", counted("read", open))
        monkeypatch.setattr(os, "open", counted("append", os.open))
        fig9.run(4000)
        # The first append finds no directory, makes it and opens again.
        assert opened == ["read"] + ["append"] * 49
        opened.clear()
        sink = Telemetry()
        with use_telemetry(sink):
            table = fig9.run(4000)
        assert opened == ["read"]
        assert sink.counters["result_cache.hits"] \
            == sum(map(len, table.cells.values())) == 48


class TestStoreFailure:
    """A failed append loses the record, not the simulated result."""

    def test_a_cache_dir_under_a_regular_file(self, tmp_path, monkeypatch,
                                              trace):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(blocker / "cache"))
        sink = Telemetry()
        with pytest.warns(RuntimeWarning, match="not persisted"):
            result = simulate(_gshare(), trace, use_cache=True,
                              telemetry=sink)
        fresh = simulate(_gshare(), trace, use_cache=False)
        assert result.cache == "miss"
        assert result.mispredictions == fresh.mispredictions
        assert sink.counters["result_cache.cold_misses"] == 1
        assert sink.counters["result_cache.store_failures"] == 1
        assert "result_cache.stores" not in sink.counters

    def test_a_full_disk_warns_once_per_grid(self, cache_env, monkeypatch,
                                             trace):
        def full(descriptor, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        configs = {**TestResultLog.CONFIGS,
                   "medium": lambda: GsharePredictor(1 << 11, 11)}
        sink = Telemetry()
        with monkeypatch.context() as patch, \
                warnings.catch_warnings(record=True) as caught, \
                use_telemetry(sink):
            patch.setattr(os, "write", full)
            warnings.simplefilter("always")
            table = run_comparison(configs, {"loop": trace})
        assert [warning.category for warning in caught] == [RuntimeWarning]
        assert os.strerror(errno.ENOSPC) in str(caught[0].message)
        assert {result.cache for row in table.cells.values()
                for result in row.values()} == {"miss"}
        assert sink.counters["result_cache.store_failures"] == 3
        assert "result_cache.stores" not in sink.counters
        # Nothing was stored, so the next grid misses every cell again.
        again = run_comparison(configs, {"loop": trace})
        assert {result.cache for row in again.cells.values()
                for result in row.values()} == {"miss"}


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
        (key, _), = _records()
        log_path().write_text(f"{key} {{definitely not json\n")
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
        _append_line('partial {"branches": 3}\n')
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
        cache = TraceCache(tmp_path)
        with use_telemetry(sink):
            cache.get_or_generate("t", {"n": 1}, self._generator(calls))
            assert sink.counters == {"trace_cache.cold_misses": 1}
            assert sink.histograms["trace_cache.generate_seconds"][
                "count"] == 1

            cache.get_or_generate("t", {"n": 1}, self._generator(calls))
            assert sink.counters["trace_cache.memory_hits"] == 1

            cache.clear_memory()
            cache.get_or_generate("t", {"n": 1}, self._generator(calls))
            assert sink.counters["trace_cache.disk_hits"] == 1
        assert len(calls) == 1  # generated exactly once throughout

    def test_corrupt_npz_is_regenerated_and_rewritten(self, tmp_path):
        sink = Telemetry()
        calls = []
        cache = TraceCache(tmp_path)
        with use_telemetry(sink):
            first = cache.get_or_generate("t", {"n": 1},
                                          self._generator(calls))
            archive, = tmp_path.glob("*.npz")
            archive.write_bytes(b"\x00garbage, not a zip archive")

            cache.clear_memory()
            regenerated = cache.get_or_generate("t", {"n": 1},
                                                self._generator(calls))
            assert len(calls) == 2
            assert regenerated.conditional_count == first.conditional_count
            assert sink.counters["trace_cache.corrupt_regenerated"] == 1
            assert sink.counters["trace_cache.cold_misses"] == 1
            assert sink.histograms["trace_cache.generate_seconds"][
                "count"] == 2

            # The regeneration rewrote the archive: next lookup is a disk
            # hit.
            cache.clear_memory()
            cache.get_or_generate("t", {"n": 1}, self._generator(calls))
            assert len(calls) == 2
            assert sink.counters["trace_cache.disk_hits"] == 1

    def test_defers_to_active_sink_when_unbound(self, tmp_path):
        sink = Telemetry()
        cache = TraceCache(tmp_path)
        with use_telemetry(sink):
            cache.get_or_generate("t", {"n": 1}, self._generator([]))
        assert sink.counters == {"trace_cache.cold_misses": 1}
        # Outside the scope, the same instance goes quiet again.
        cache.clear_memory()
        cache.get_or_generate("t", {"n": 1}, self._generator([]))
        assert sink.counters == {"trace_cache.cold_misses": 1}
