"""Tests for trace serialisation and caching."""

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.common.rng import DEFAULT_SEED
from repro.obs import Telemetry, use_telemetry
from repro.sim import result_cache
from repro.traces import io
from repro.traces.io import TraceCache, load_trace, save_trace
from repro.traces.model import (TRACE_COLUMNS, TerminatorKind, Trace,
                                TraceBuilder)
from repro.workloads.generator import generate_trace
from repro.workloads.spec95 import SPEC95_BENCHMARKS, profile_for

from test_materialize import discontiguous_traces


def demo_trace(name="io-demo"):
    builder = TraceBuilder(name)
    builder.add(0x1000, 3, TerminatorKind.CONDITIONAL, True, 0x2000)
    builder.add(0x2000, 1, TerminatorKind.JUMP, True, 0x1000)
    builder.add(0x1000, 3, TerminatorKind.CONDITIONAL, False, 0x100C)
    return builder.build()


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        trace = demo_trace()
        path = tmp_path / "demo.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert len(loaded) == len(trace)
        np.testing.assert_array_equal(loaded.starts, trace.starts)
        np.testing.assert_array_equal(loaded.takens, trace.takens)
        np.testing.assert_array_equal(loaded.kinds, trace.kinds)
        assert loaded.branches() == trace.branches()

    def test_save_creates_directories(self, tmp_path):
        save_trace(demo_trace(), tmp_path / "a" / "b" / "demo.npz")
        assert (tmp_path / "a" / "b" / "demo.npz").exists()

    def test_bad_version_rejected(self, tmp_path):
        trace = demo_trace()
        path = tmp_path / "demo.npz"
        np.savez_compressed(path, format_version=np.array([999]),
                            name=np.array(["x"]), starts=trace.starts,
                            num_instructions=trace.num_instructions,
                            kinds=trace.kinds, takens=trace.takens,
                            next_starts=trace.next_starts)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)


class TestCache:
    def test_generates_once(self, tmp_path):
        cache = TraceCache(tmp_path)
        calls = []

        def generate():
            calls.append(1)
            return demo_trace()

        first = cache.get_or_generate("demo", {"n": 3}, generate)
        second = cache.get_or_generate("demo", {"n": 3}, generate)
        assert len(calls) == 1
        assert first is second  # in-memory layer

    def test_disk_persistence_across_instances(self, tmp_path):
        calls = []

        def generate():
            calls.append(1)
            return demo_trace()

        TraceCache(tmp_path).get_or_generate("demo", {"n": 3}, generate)
        reloaded = TraceCache(tmp_path).get_or_generate("demo", {"n": 3},
                                                        generate)
        assert len(calls) == 1
        assert reloaded.conditional_count == 2

    def test_different_parameters_different_entries(self, tmp_path):
        cache = TraceCache(tmp_path)
        calls = []

        def generate():
            calls.append(1)
            return demo_trace()

        cache.get_or_generate("demo", {"n": 3}, generate)
        cache.get_or_generate("demo", {"n": 4}, generate)
        assert len(calls) == 2

    def test_corrupt_entry_regenerated(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_generate("demo", {"n": 3}, demo_trace)
        cache.clear_memory()
        for file in tmp_path.glob("*.npz"):
            file.write_bytes(b"garbage")
        regenerated = cache.get_or_generate("demo", {"n": 3}, demo_trace)
        assert regenerated.conditional_count == 2

    def test_garbage_npz_regenerated_and_overwritten(self, tmp_path):
        # A corrupt archive is not a zip file at all, so np.load raises
        # zipfile.BadZipFile rather than a numpy error; the cache must treat
        # it like any other corrupt entry: regenerate and rewrite the file.
        cache = TraceCache(tmp_path)
        cache.get_or_generate("demo", {"n": 3}, demo_trace)
        cache.clear_memory()
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"not a zip archive")

        calls = []

        def generate():
            calls.append(1)
            return demo_trace()

        regenerated = cache.get_or_generate("demo", {"n": 3}, generate)
        assert calls == [1]
        assert regenerated.conditional_count == 2
        # The on-disk entry was overwritten with a valid archive: a fresh
        # cache instance loads it without regenerating.
        reloaded = TraceCache(tmp_path).get_or_generate("demo", {"n": 3},
                                                        generate)
        assert calls == [1]
        assert reloaded.conditional_count == 2

    def test_clear_memory_keeps_disk(self, tmp_path):
        cache = TraceCache(tmp_path)
        calls = []

        def generate():
            calls.append(1)
            return demo_trace()

        cache.get_or_generate("demo", {"n": 3}, generate)
        cache.clear_memory()
        cache.get_or_generate("demo", {"n": 3}, generate)
        assert len(calls) == 1  # reloaded from disk, not regenerated


class TestGeneratorSalt:
    """A trace cache entry is keyed by the generator's sources too, so an
    edit to the generator never serves a trace the older code wrote."""

    def test_digest_covers_the_generator_sources(self):
        files = result_cache._semantic_files(io.GENERATOR_SOURCES)
        for source in ("workloads/generator.py", "workloads/executor.c",
                       "traces/model.py", "common/rng.py"):
            assert source in files
        assert "traces/fetch.py" not in files

    def test_changed_generator_digest_misses(self, tmp_path, monkeypatch):
        calls = []

        def generate():
            calls.append(1)
            return demo_trace()

        TraceCache(tmp_path).get_or_generate("demo", {"n": 3}, generate)
        monkeypatch.setattr(io, "_generator_digest", lambda: bytes(32))
        TraceCache(tmp_path).get_or_generate("demo", {"n": 3}, generate)
        assert len(calls) == 2
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_unchanged_tree_hits_from_a_second_process(self, tmp_path):
        TraceCache(tmp_path).get_or_generate("demo", {"n": 3}, demo_trace)
        code = ("import sys\n"
                "from repro.traces.io import TraceCache\n"
                "def refuse():\n"
                "    raise AssertionError('regenerated a cached trace')\n"
                "trace = TraceCache(sys.argv[1]).get_or_generate(\n"
                "    'demo', {'n': 3}, refuse)\n"
                "print(trace.conditional_count)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        assert out.strip() == "2"


def round_trip(trace, path):
    save_trace(trace, path)
    return load_trace(path)


def assert_same_columns(loaded, trace):
    assert loaded.name == trace.name
    for column in TRACE_COLUMNS:
        expected = getattr(trace, column)
        got = getattr(loaded, column)
        assert got.dtype == expected.dtype, column
        assert not got.flags.writeable, column
        np.testing.assert_array_equal(got, expected, err_msg=column)


def members(path):
    with zipfile.ZipFile(path) as archive:
        return {name.removesuffix(".npy") for name in archive.namelist()}


def tripwire(*_):
    raise AssertionError("read a trace column")


def corrupt_member(path, member):
    """Flip the last byte of one archive member's data, so its CRC fails."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(f"{member}.npy")
    data = bytearray(path.read_bytes())
    header = info.header_offset
    name_length = int.from_bytes(data[header + 26:header + 28], "little")
    extra_length = int.from_bytes(data[header + 28:header + 30], "little")
    last = header + 30 + name_length + extra_length + info.file_size - 1
    data[last] ^= 0xFF
    path.write_bytes(bytes(data))


def rewrite_archive(path, **replaced):
    """Rewrite an archive with some members replaced, CRCs intact."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays.update(replaced)
    with open(path, "wb") as file:
        np.savez(file, **arrays)


class TestFormat:
    """Version 2: uncompressed, digest stored, ``starts`` narrowed when it
    fits, ``next_starts`` only when it is not implied."""

    @pytest.mark.parametrize("seed", (DEFAULT_SEED, 43))
    def test_stand_ins_round_trip_exactly(self, tmp_path, seed):
        for name in SPEC95_BENCHMARKS:
            trace = generate_trace(profile_for(name).with_seed(seed), 2_000)
            path = tmp_path / f"{name}-{seed}.npz"
            loaded = round_trip(trace, path)
            assert_same_columns(loaded, trace)
            stored = members(path)
            assert "next_starts" not in stored  # every stand-in is contiguous
            with np.load(path) as archive:
                assert archive["starts"].dtype == np.uint32
            with zipfile.ZipFile(path) as archive:
                assert {info.compress_type for info in archive.infolist()
                        } == {zipfile.ZIP_STORED}

    @given(discontiguous_traces())
    @settings(max_examples=40, deadline=None)
    def test_discontiguous_traces_round_trip_exactly(self, trace):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "scattered.npz"
            loaded = round_trip(trace, path)
            assert_same_columns(loaded, trace)
            implied = np.array_equal(trace.next_starts[:-1], trace.starts[1:])
            assert ("next_starts" in members(path)) == (not implied)

    def test_addresses_past_32_bits_keep_uint64(self, tmp_path):
        builder = TraceBuilder("wide")
        builder.add(0x1_0000_1000, 3, TerminatorKind.CONDITIONAL, True,
                    0x2000)
        builder.add(0x2000, 1, TerminatorKind.JUMP, True, 0x1_0000_1000)
        trace = builder.build()
        path = tmp_path / "wide.npz"
        assert_same_columns(round_trip(trace, path), trace)
        with np.load(path) as archive:
            assert archive["starts"].dtype == np.uint64

    def test_empty_trace_round_trips(self, tmp_path):
        trace = TraceBuilder("empty").build()
        loaded = round_trip(trace, tmp_path / "empty.npz")
        assert len(loaded) == 0
        assert_same_columns(loaded, trace)

    def test_stored_digest_is_the_content_digest(self, tmp_path):
        trace = generate_trace(profile_for("gcc"), 2_000)
        path = tmp_path / "gcc.npz"
        save_trace(trace, path)
        with np.load(path) as archive:
            stored = archive["digest"].tobytes()
        loaded = load_trace(path)
        assert loaded.derived("content_digest") == stored
        recomputed = Trace(*(getattr(loaded, attribute) for attribute
                             in ("name", *TRACE_COLUMNS)))
        assert result_cache._content_digest(recomputed) == stored


class TestDeferredColumns:
    def test_load_reads_no_column(self, tmp_path, monkeypatch):
        trace = demo_trace()
        save_trace(trace, tmp_path / "demo.npz")
        monkeypatch.setattr(io, "_read_columns", tripwire)
        loaded = load_trace(tmp_path / "demo.npz")
        assert loaded.name == trace.name
        assert loaded.derived("content_digest") == \
            result_cache._content_digest(trace)
        with pytest.raises(AssertionError, match="column"):
            len(loaded)

    def test_threads_load_the_columns_once(self, tmp_path, monkeypatch):
        save_trace(demo_trace(), tmp_path / "demo.npz")
        loaded = load_trace(tmp_path / "demo.npz")
        reads = []
        read = io._read_columns
        monkeypatch.setattr(io, "_read_columns",
                            lambda archive: reads.append(1) or read(archive))
        count = 8  # more threads than cores, switching as often as allowed
        barrier = threading.Barrier(count, timeout=10)
        lengths = []

        def access():
            barrier.wait()
            lengths.append(len(loaded.takens))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=access) for _ in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert lengths == [3] * count
        assert reads == [1]

    def test_corrupt_column_without_a_generator_raises(self, tmp_path):
        path = tmp_path / "demo.npz"
        save_trace(demo_trace(), path)
        corrupt_member(path, "takens")
        loaded = load_trace(path)
        for _ in range(2):  # a retry fails the same way
            with pytest.raises(ValueError, match="corrupt"):
                loaded.takens

    def test_corrupt_column_found_on_first_access_regenerates(
            self, tmp_path):
        calls = []

        def generate():
            calls.append(1)
            return demo_trace()

        TraceCache(tmp_path).get_or_generate("demo", {"n": 3}, generate)
        (path,) = tmp_path.glob("*.npz")
        corrupt_member(path, "takens")
        sink = Telemetry()
        with use_telemetry(sink):
            loaded = TraceCache(tmp_path).get_or_generate("demo", {"n": 3},
                                                          generate)
            assert calls == [1]  # opening the archive read no column
            assert_same_columns(loaded, demo_trace())
        assert calls == [1, 1]
        assert sink.counters == {"trace_cache.disk_hits": 1,
                                 "trace_cache.corrupt_regenerated": 1}
        # The archive was rewritten: a fresh cache reads it whole.
        reloaded = TraceCache(tmp_path).get_or_generate("demo", {"n": 3},
                                                        generate)
        assert_same_columns(reloaded, demo_trace())
        assert calls == [1, 1]

    def test_columns_that_miss_their_digest_regenerate(self, tmp_path):
        calls = []

        def generate():
            calls.append(1)
            return demo_trace()

        TraceCache(tmp_path).get_or_generate("demo", {"n": 3}, generate)
        (path,) = tmp_path.glob("*.npz")
        rewrite_archive(path, takens=np.zeros(3, dtype=np.bool_))
        loaded = TraceCache(tmp_path).get_or_generate("demo", {"n": 3},
                                                      generate)
        assert_same_columns(loaded, demo_trace())
        assert calls == [1, 1]

    def test_regeneration_that_misses_the_digest_raises(self, tmp_path):
        def other():
            builder = TraceBuilder("io-demo")
            builder.add(0x1000, 3, TerminatorKind.CONDITIONAL, False, 0x100C)
            return builder.build()

        TraceCache(tmp_path).get_or_generate("demo", {"n": 3}, demo_trace)
        (path,) = tmp_path.glob("*.npz")
        corrupt_member(path, "starts")
        loaded = TraceCache(tmp_path).get_or_generate("demo", {"n": 3},
                                                      other)
        digest = loaded.derived("content_digest")
        with pytest.raises(RuntimeError, match="digest"):
            loaded.starts
        assert loaded.derived("content_digest") == digest  # still unloaded
        with pytest.raises(RuntimeError, match="digest"):
            len(loaded)


class TestAtomicWrites:
    def test_failed_write_leaves_nothing_behind(self, tmp_path,
                                                monkeypatch):
        def torn_savez(file, **arrays):
            file.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(io.np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_trace(demo_trace(), tmp_path / "demo.npz")
        assert list(tmp_path.iterdir()) == []

    def test_cache_still_returns_a_trace_it_cannot_store(self, tmp_path,
                                                         monkeypatch):
        def failing_savez(file, **arrays):
            raise OSError("read-only")

        monkeypatch.setattr(io.np, "savez", failing_savez)
        trace = TraceCache(tmp_path).get_or_generate("demo", {"n": 3},
                                                     demo_trace)
        assert trace.conditional_count == 2
        assert list(tmp_path.iterdir()) == []


CACHED_GRID = textwrap.dedent("""
    import json, sys
    from repro.experiments import fig9
    from repro.obs import Telemetry, use_telemetry
    from repro.traces import io

    if sys.argv[1] == "tripwire":
        def tripwire(archive):
            raise AssertionError("a cached grid read a trace column")
        io._read_columns = tripwire
    sink = Telemetry()
    with use_telemetry(sink):
        table = fig9.run(2_000)
    print(json.dumps({"cache": sorted({result.cache
                                       for row in table.cells.values()
                                       for result in row.values()}),
                      "cells": sum(map(len, table.cells.values())),
                      "counters": sink.counters}))
""")


def test_a_cached_grid_reads_no_trace_column(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_TRACE_CACHE=str(tmp_path / "traces"),
               REPRO_RESULT_CACHE="1",
               REPRO_RESULT_CACHE_DIR=str(tmp_path / "results"),
               REPRO_RESULTS_DIR=str(tmp_path / "records"))

    def run(mode):
        out = subprocess.run([sys.executable, "-c", CACHED_GRID, mode],
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        return json.loads(out)

    filled = run("fill")
    assert filled["counters"]["trace_cache.cold_misses"] == 8
    replayed = run("tripwire")
    assert replayed["cache"] == ["hit"]
    assert replayed["counters"]["result_cache.hits"] == replayed["cells"]
    assert replayed["counters"]["trace_cache.disk_hits"] == 8
