"""Trace serialisation and on-disk caching.

Traces are stored as compressed ``.npz`` files (one array per
:class:`~repro.traces.model.Trace` field).  Synthetic workload generation is
deterministic but not free, so :class:`TraceCache` memoises generated traces
on disk keyed by ``(name, version, parameters digest)`` and salted with a
digest of the generator's sources (:data:`GENERATOR_SOURCES`); experiments
and benches share one cache directory and regenerate only on a key miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zipfile
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs import get_telemetry
from repro.traces.model import Trace

__all__ = ["TRACE_COLUMNS", "GENERATOR_SOURCES", "trace_columns",
           "save_trace", "load_trace", "TraceCache", "default_cache_dir"]

_FORMAT_VERSION = 1

TRACE_COLUMNS = ("starts", "num_instructions", "kinds", "takens",
                 "next_starts")
"""The trace's array fields in canonical serialization order (the
``.npz`` writer's archive members)."""


def trace_columns(trace: Trace) -> list[tuple[str, np.ndarray]]:
    """``(name, column)`` pairs in :data:`TRACE_COLUMNS` order."""
    return [(name, getattr(trace, name)) for name in TRACE_COLUMNS]


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write a trace to ``path`` as a compressed ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        format_version=np.array([_FORMAT_VERSION]),
        name=np.array([trace.name]),
        **dict(trace_columns(trace)),
    )


def load_trace(path: str | os.PathLike) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} in {path}")
        return Trace(
            str(data["name"][0]),
            data["starts"],
            data["num_instructions"],
            data["kinds"],
            data["takens"],
            data["next_starts"],
        )


GENERATOR_SOURCES = ("workloads", "traces/model.py", "common/rng.py")
"""Sources (relative to the ``repro`` package) that decide what a generated
trace holds; their digest salts every :class:`TraceCache` file name, so a
generator edit never loads a trace the older generator wrote."""


def _generator_digest() -> bytes:
    """SHA-256 of :data:`GENERATOR_SOURCES`, computed once per process."""
    # Imported here: repro.sim imports repro.traces.
    from repro.sim.result_cache import _source_digest
    return _source_digest(GENERATOR_SOURCES)


def default_cache_dir() -> Path:
    """Resolve the trace cache directory.

    Overridable via the ``REPRO_TRACE_CACHE`` environment variable; defaults
    to ``.trace_cache`` under the current working directory.
    """
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env:
        return Path(env)
    return Path.cwd() / ".trace_cache"


class TraceCache:
    """Disk-backed memoisation of trace generation.

    >>> import tempfile
    >>> cache = TraceCache(directory=tempfile.mkdtemp())
    >>> calls = []
    >>> def generate():
    ...     from repro.traces.model import TraceBuilder, TerminatorKind
    ...     calls.append(1)
    ...     builder = TraceBuilder("demo")
    ...     builder.add(0, 1, TerminatorKind.JUMP, True, 0)
    ...     return builder.build()
    >>> t1 = cache.get_or_generate("demo", {"n": 1}, generate)
    >>> t2 = cache.get_or_generate("demo", {"n": 1}, generate)
    >>> len(calls)
    1
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self._memory: dict[str, Trace] = {}

    def _key(self, name: str, parameters: dict) -> str:
        canonical = json.dumps(parameters, sort_keys=True, default=str)
        digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        return f"{name}-v{_FORMAT_VERSION}-{digest}"

    def get_or_generate(self, name: str, parameters: dict,
                        generate: Callable[[], Trace]) -> Trace:
        """Return the cached trace for ``(name, parameters)``, generating and
        persisting it on first use.  An in-memory layer avoids re-reading the
        archive within a process.

        The sink active at the lookup records which of four outcomes it was:
        ``trace_cache.memory_hits``, ``trace_cache.disk_hits``,
        ``trace_cache.cold_misses`` (no archive — generated and stored) and
        ``trace_cache.corrupt_regenerated`` (archive present but unreadable
        — dropped, regenerated, rewritten); generation wall time lands in
        the ``trace_cache.generate_seconds`` histogram.
        """
        sink = get_telemetry()
        key = self._key(name, parameters)
        trace = self._memory.get(key)
        if trace is not None:
            if sink.enabled:
                sink.count("trace_cache.memory_hits")
            return trace
        path = self.directory / f"{key}-{_generator_digest().hex()[:16]}.npz"
        corrupt = False
        if path.exists():
            try:
                trace = load_trace(path)
                if sink.enabled:
                    sink.count("trace_cache.disk_hits")
            except (ValueError, OSError, KeyError, zipfile.BadZipFile):
                # Corrupt/stale cache entry: drop it and regenerate.  A
                # truncated or garbage archive surfaces as BadZipFile from
                # np.load's zipfile layer, not as one of numpy's own errors.
                trace = None
                corrupt = True
                try:
                    path.unlink()
                except OSError:
                    pass
        if trace is None:
            if sink.enabled:
                sink.count("trace_cache.corrupt_regenerated" if corrupt
                           else "trace_cache.cold_misses")
            started = time.perf_counter()
            trace = generate()
            if sink.enabled:
                sink.observe("trace_cache.generate_seconds",
                             time.perf_counter() - started)
            try:
                save_trace(trace, path)
            except OSError:
                pass  # Read-only filesystem: still return the trace.
        self._memory[key] = trace
        return trace

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries are kept)."""
        self._memory.clear()
