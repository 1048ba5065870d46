"""Tests for trace serialisation and caching."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.sim import result_cache
from repro.traces import io
from repro.traces.io import TraceCache, load_trace, save_trace
from repro.traces.model import TerminatorKind, TraceBuilder


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
