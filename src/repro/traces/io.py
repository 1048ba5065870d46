"""Trace serialisation and on-disk caching.

Traces are stored as uncompressed ``.npz`` archives (format version 2):
the trace's name, its content digest (:func:`~repro.traces.model.
content_digest`, the value the result cache keys it by), ``starts``
(``uint32`` when every address fits), ``num_instructions``, ``kinds``,
``takens`` and the final block's target.  ``next_starts`` is stored only
when it is not ``starts[1:]`` followed by that target, as it is for every
generated trace.  An archive is written to a temporary file and renamed
into place, so a reader never sees a torn one.

:func:`load_trace` reads only the format version, the name and the digest,
and returns a trace whose columns load on first use (:meth:`~repro.traces.
model.Trace.deferred`); keying a loaded trace reads no column.  The first
column access reads every column from the archive it opened, rebuilds
``next_starts`` when it was left out, and checks the columns against the
stored digest.

Synthetic workload generation is deterministic but not free, so
:class:`TraceCache` memoises generated traces on disk keyed by
``(name, version, parameters digest)`` and salted with a digest of the
generator's sources (:data:`GENERATOR_SOURCES`); experiments and benches
share one cache directory and regenerate only on a key miss.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
import zipfile
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs import get_telemetry
from repro.traces.model import TRACE_COLUMNS, Trace, content_digest

__all__ = ["TRACE_COLUMNS", "GENERATOR_SOURCES", "save_trace", "load_trace",
           "TraceCache", "default_cache_dir"]

_FORMAT_VERSION = 2
"""The archive format :func:`save_trace` writes and :func:`load_trace`
accepts.  It is checked inside the archive, not named in its file name:
the cache drops an archive of another version and regenerates it."""

_KEY_SCHEME = 1
"""The version in every :class:`TraceCache` archive name (``gcc-v1-...``):
that of the ``(name, parameters)`` key, which the archive format leaves
alone."""

_ARCHIVE_ERRORS = (ValueError, OSError, KeyError, zipfile.BadZipFile)
"""What reading a corrupt archive raises.  A truncated or garbage archive
surfaces as ``BadZipFile`` from ``np.load``'s zipfile layer (a failed CRC
too), not as one of numpy's own errors."""

_MEMBERS = frozenset({"format_version", "name", "digest", "starts",
                      "num_instructions", "kinds", "takens", "final_target"})


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write a trace to ``path`` as an uncompressed ``.npz`` archive.

    The archive is written to a temporary file in the same directory and
    renamed into place: ``path`` holds a whole archive or none, and a
    failed write leaves no temporary file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    starts, next_starts = trace.starts, trace.next_starts
    members = {
        "format_version": np.array([_FORMAT_VERSION]),
        "name": np.array([trace.name]),
        "digest": np.frombuffer(
            trace.derived("content_digest", content_digest), np.uint8),
        "starts": (starts.astype(np.uint32)
                   if not len(starts) or starts.max() <= 0xFFFF_FFFF
                   else starts),
        "num_instructions": trace.num_instructions,
        "kinds": trace.kinds,
        "takens": trace.takens,
        "final_target": next_starts[-1:],
    }
    if not np.array_equal(next_starts[:-1], starts[1:]):
        members["next_starts"] = next_starts
    temporary = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temporary, "wb") as file:
            np.savez(file, **members)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_trace(path: str | os.PathLike,
               regenerate: Callable[[], Trace] | None = None) -> Trace:
    """Open a trace previously written by :func:`save_trace`.

    Reads the format version, the name and the content digest now, and
    returns a trace that holds the digest and reads its columns on first
    use, from the archive opened here (the path is never re-opened, so an
    archive renamed over it in between is never mixed in).  When a column
    then fails to read or disagrees with the digest, the columns come from
    ``regenerate()`` instead, which must reproduce the digest; without
    ``regenerate`` that access raises ``ValueError``.
    """
    archive = np.load(path, allow_pickle=False)
    try:
        version = int(archive["format_version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} in {path}")
        missing = _MEMBERS.difference(archive.files)
        if missing:
            raise ValueError(f"trace archive {path} lacks {sorted(missing)}")
        name = str(archive["name"][0])
        digest = archive["digest"].tobytes()
        if len(digest) != hashlib.sha256().digest_size:
            raise ValueError(f"trace archive {path} has a malformed digest")
    except BaseException:
        archive.close()
        raise
    return Trace.deferred(
        name, functools.partial(_load_columns, archive, path, digest,
                                regenerate),
        {"content_digest": digest})


def _read_columns(archive) -> Trace:
    """The trace an open version-2 archive holds, every column read."""
    starts = archive["starts"].astype(np.uint64, copy=False)
    if "next_starts" in archive.files:
        next_starts = archive["next_starts"]
    else:
        next_starts = np.empty_like(starts)
        next_starts[:-1] = starts[1:]
        next_starts[-1:] = archive["final_target"]
    return Trace(str(archive["name"][0]), starts, archive["num_instructions"],
                 archive["kinds"], archive["takens"], next_starts)


def _load_columns(archive, path, digest: bytes,
                  regenerate: Callable[[], Trace] | None) -> Trace:
    """A deferred trace's columns: read from ``archive`` and checked
    against ``digest``, or else regenerated and checked again.

    The archive is closed once the columns are settled; a load that raises
    keeps it open, so a retry fails the same way.
    """
    try:
        trace = _read_columns(archive)
        if content_digest(trace) == digest:
            archive.close()
            return trace
        problem = "its columns do not match its digest"
    except _ARCHIVE_ERRORS as error:
        problem = f"a column failed to read ({error})"
    if regenerate is None:
        raise ValueError(f"trace archive {path} is corrupt: {problem}")
    trace = regenerate()
    if content_digest(trace) != digest:
        raise RuntimeError(
            f"trace archive {path} was corrupt ({problem}), and the "
            "regenerated trace does not match the digest the archive "
            "stored, which may already key cached results")
    archive.close()
    return trace


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
        return f"{name}-v{_KEY_SCHEME}-{digest}"

    def get_or_generate(self, name: str, parameters: dict,
                        generate: Callable[[], Trace]) -> Trace:
        """Return the cached trace for ``(name, parameters)``, generating and
        persisting it on first use.  An in-memory layer avoids re-reading the
        archive within a process.

        A trace loaded from disk reads its columns on first use
        (:func:`load_trace`); a column that then fails to read, or disagrees
        with the archive's digest, is regenerated by ``generate`` and the
        archive rewritten.

        The sink active at the lookup records which of four outcomes it was:
        ``trace_cache.memory_hits``, ``trace_cache.disk_hits``,
        ``trace_cache.cold_misses`` (no archive — generated and stored) and
        ``trace_cache.corrupt_regenerated`` (archive present but unreadable
        — dropped, regenerated, rewritten; the sink active at the first
        column access counts one found then); generation wall time lands in
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
                trace = load_trace(path, functools.partial(
                    _regenerate, generate, path))
                if sink.enabled:
                    sink.count("trace_cache.disk_hits")
            except _ARCHIVE_ERRORS:
                # Corrupt/stale cache entry: drop it and regenerate.
                corrupt = True
                try:
                    path.unlink()
                except OSError:
                    pass
        if trace is None:
            if sink.enabled:
                sink.count("trace_cache.corrupt_regenerated" if corrupt
                           else "trace_cache.cold_misses")
            trace = _generate(generate, path)
        self._memory[key] = trace
        return trace

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries are kept)."""
        self._memory.clear()


def _generate(generate: Callable[[], Trace], path: Path) -> Trace:
    """``generate()``, timed, and stored at ``path`` when it can be."""
    sink = get_telemetry()
    started = time.perf_counter()
    trace = generate()
    if sink.enabled:
        sink.observe("trace_cache.generate_seconds",
                     time.perf_counter() - started)
    try:
        save_trace(trace, path)
    except OSError:
        pass  # Read-only filesystem: still return the trace.
    return trace


def _regenerate(generate: Callable[[], Trace], path: Path) -> Trace:
    """A loaded archive's replacement, once its columns proved corrupt."""
    sink = get_telemetry()
    if sink.enabled:
        sink.count("trace_cache.corrupt_regenerated")
    return _generate(generate, path)
