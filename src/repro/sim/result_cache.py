"""Persistent on-disk simulation-result cache.

A simulation's counts are a pure function of (simulator code, predictor
configuration, trace content, provider configuration, warmup, engine):
re-running a figure after unrelated edits repeats work whose inputs did not
change.  This module fingerprints those six inputs into a content-addressed
key and stores each :class:`~repro.sim.metrics.SimulationResult` as a small
JSON file, so repeated experiment invocations skip simulation entirely.

Key scheme
----------
``result_key`` feeds one SHA-256 with:

* the **simulator code** — a digest of the semantics-bearing sources
  (``predictors/``, ``common/``, ``history/``, ``indexing/``, ``ev8/`` and
  ``sim/engine.py``), so editing a kernel or the update policy re-keys
  every result instead of replaying counts the old code produced;
* the **predictor** — structural fingerprint of the live object: type
  name plus every attribute, recursively (table sizes, history lengths,
  update policy, index-scheme parameters, and the counter tables, so
  ``init_taken`` variants key differently);
* the **trace content** — the four trace columns hashed once and memoized
  per :class:`~repro.traces.model.Trace` object (the trace *name* is
  deliberately excluded: identical content keys identically);
* the **provider** — same structural fingerprint (``None`` keys as its own
  distinct value);
* ``warmup_branches`` and the resolved **engine name** (engines are
  count-equivalent by contract, but keying them separately keeps the cache
  honest if that contract is ever violated and keeps ``wall_seconds``
  provenance attributable).

Buffers (``bytes``/``bytearray``, numpy arrays and scalars, ``array.array``,
``memoryview``) key by element type plus content; a uniform buffer (every
table of a freshly built predictor) keys by its length and fill byte, so a
cache hit costs a few bytes per table rather than the table's size.
Objects containing unhashable leaves (open files, callables, objects
exposing neither ``__dict__`` nor ``__slots__``, ...) raise
:class:`UncacheableError`; the driver then simply runs uncached.

The cache activates when ``REPRO_RESULT_CACHE`` is truthy (the experiment
runner enables it by default); files live under ``REPRO_RESULT_CACHE_DIR``
(default ``.result_cache/``).  Corrupt or unreadable entries are treated as
misses and rewritten.  Each result's ``cache`` field records provenance:
``"off"``, ``"miss"`` (simulated, then stored) or ``"hit"``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
import types
from array import array
from collections import deque
from pathlib import Path
from weakref import WeakKeyDictionary

import numpy as np

from repro.obs import NullTelemetry, get_telemetry
from repro.sim.metrics import SimulationResult
from repro.traces.model import Trace

__all__ = ["CACHE_ENV_VAR", "CACHE_DIR_ENV_VAR", "UncacheableError",
           "cache_enabled", "cache_dir", "result_key", "load", "store"]

CACHE_ENV_VAR = "REPRO_RESULT_CACHE"
CACHE_DIR_ENV_VAR = "REPRO_RESULT_CACHE_DIR"
_DEFAULT_DIR = ".result_cache"
_TRUTHY = ("1", "true", "yes", "on")


class UncacheableError(TypeError):
    """An input's fingerprint cannot be computed deterministically."""


def cache_enabled() -> bool:
    """Whether the environment opts into result caching."""
    return os.environ.get(CACHE_ENV_VAR, "").strip().lower() in _TRUTHY


def cache_dir() -> Path:
    """The cache directory (not created until a result is stored)."""
    env = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    return Path(env) if env else Path.cwd() / _DEFAULT_DIR


# -- fingerprinting ----------------------------------------------------------

_TRACE_HASHES: WeakKeyDictionary = WeakKeyDictionary()

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent
_SEMANTIC_SOURCES = ("predictors", "common", "history", "indexing", "ev8",
                     "kernels", "sim/engine.py", "traces/fetch.py")
"""Sources (relative to the ``repro`` package) that decide what a
simulation computes: the Python modules and the C replay kernels in each
directory, and the named files.  Their digest salts every result key."""


def _semantic_files() -> list[str]:
    """Package-relative paths of every semantics-bearing source, sorted."""
    files = []
    for entry in _SEMANTIC_SOURCES:
        path = _PACKAGE_ROOT / entry
        if path.is_dir():
            files.extend(found for pattern in ("*.py", "*.c")
                         for found in path.rglob(pattern))
        elif path.is_file():
            files.append(path)
    return sorted(path.relative_to(_PACKAGE_ROOT).as_posix()
                  for path in files)


@functools.cache
def _source_digest() -> bytes:
    """SHA-256 over the semantics-bearing sources, computed once per process.

    Each file contributes its package-relative path and its bytes, in sorted
    path order, so editing, adding, renaming or deleting any of them
    re-keys every result: a cache can never answer with a count that older
    simulator code produced.
    """
    hasher = hashlib.sha256()
    for relative in _semantic_files():
        data = (_PACKAGE_ROOT / relative).read_bytes()
        hasher.update(relative.encode() + b"\x00" + str(len(data)).encode()
                      + b":")
        hasher.update(data)
    return hasher.digest()


_TELEMETRY_ATTRS = frozenset({"_telemetry", "_tele_names"})
"""Attribute names carrying telemetry wiring.  Excluded from structural
fingerprints: attaching (or detaching) an observability sink never changes
what a simulation computes, so it may not change a cache key."""


def _trace_content_digest(trace: Trace) -> bytes:
    """Content hash of the four trace columns, memoized per trace object."""
    digest = _TRACE_HASHES.get(trace)
    if digest is None:
        hasher = hashlib.sha256()
        for column in (trace.starts, trace.num_instructions, trace.kinds,
                       trace.takens):
            hasher.update(str(column.dtype).encode())
            hasher.update(np.ascontiguousarray(column).tobytes())
        digest = hasher.digest()
        _TRACE_HASHES[trace] = digest
    return digest


def _update_buffer(hasher, header: bytes, data: bytes | bytearray) -> None:
    """Feed one raw buffer: its type ``header`` (tag, element type, shape),
    then its bytes.

    A uniform buffer -- every counter table of a freshly built predictor --
    is fed in run-length form instead: the ``U`` tag, the header, the byte
    length and the single fill byte.  The leading tag keeps the two forms
    apart, so the encoding stays injective.
    """
    if data == data[:1] * len(data):
        hasher.update(b"\x00U" + header + str(len(data)).encode() + b":"
                      + data[:1])
    else:
        hasher.update(header)
        hasher.update(data)


def _update(hasher, value, memo: dict[int, int]) -> None:
    """Feed one value into the hash, recursively and type-tagged.

    ``memo`` maps ``id`` of already-visited composite objects to their
    visit ordinal, so shared substructure and cycles hash deterministically
    (the ordinal depends only on traversal order, never on addresses).
    """
    if value is None:
        hasher.update(b"\x00N")
    elif isinstance(value, bool):
        hasher.update(b"\x00b1" if value else b"\x00b0")
    elif isinstance(value, int):
        hasher.update(b"\x00i" + str(value).encode())
    elif isinstance(value, float):
        hasher.update(b"\x00f" + repr(value).encode())
    elif isinstance(value, str):
        encoded = value.encode()
        hasher.update(b"\x00s" + str(len(encoded)).encode() + b":" + encoded)
    elif isinstance(value, (bytes, bytearray)):
        _update_buffer(hasher, b"\x00y" + str(len(value)).encode() + b":",
                       value)
    elif isinstance(value, (np.ndarray, np.generic)):
        value = np.asarray(value)
        _update_buffer(hasher, b"\x00a" + str(value.dtype).encode()
                       + repr(value.shape).encode(),
                       np.ascontiguousarray(value).tobytes())
    elif isinstance(value, array):
        encoded = value.tobytes()
        _update_buffer(hasher, b"\x00A" + value.typecode.encode()
                       + str(len(encoded)).encode() + b":", encoded)
    elif isinstance(value, memoryview):
        _update_buffer(hasher, b"\x00V" + value.format.encode()
                       + repr(value.shape).encode() + b":", value.tobytes())
    elif isinstance(value, (list, tuple, deque)):
        tag = {list: b"\x00L", tuple: b"\x00T", deque: b"\x00D"}[type(value)]
        hasher.update(tag + str(len(value)).encode())
        for item in value:
            _update(hasher, item, memo)
    elif isinstance(value, dict):
        try:
            items = sorted(value.items())
        except TypeError as error:
            raise UncacheableError(
                f"dict with unsortable keys: {error}") from None
        hasher.update(b"\x00M" + str(len(items)).encode())
        for key, item in items:
            _update(hasher, key, memo)
            _update(hasher, item, memo)
    elif isinstance(value, NullTelemetry):
        # Observability sinks (recording or null) are bookkeeping, not a
        # simulation input: fingerprint them all as one fixed tag.
        hasher.update(b"\x00G")
    elif isinstance(value, (types.ModuleType, types.FunctionType,
                            types.BuiltinFunctionType, types.MethodType,
                            types.LambdaType, type)):
        raise UncacheableError(f"cannot fingerprint {value!r}")
    else:
        ordinal = memo.get(id(value))
        if ordinal is not None:
            hasher.update(b"\x00R" + str(ordinal).encode())
            return
        memo[id(value)] = len(memo)
        cls = type(value)
        if not hasattr(value, "__dict__") and not any(
                "__slots__" in vars(klass) for klass in cls.__mro__):
            # No attributes to walk (a set, a C-level buffer, ...): its
            # class name alone would key different contents identically.
            raise UncacheableError(
                f"cannot fingerprint {cls.__qualname__} by content")
        hasher.update(b"\x00O" + cls.__module__.encode() + b"."
                      + cls.__qualname__.encode())
        attrs: dict[str, object] = {}
        for klass in cls.__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot not in attrs and hasattr(value, slot):
                    attrs[slot] = getattr(value, slot)
        attrs.update(getattr(value, "__dict__", {}))
        for name in sorted(attrs):
            if name in _TELEMETRY_ATTRS:
                continue
            _update(hasher, name, memo)
            _update(hasher, attrs[name], memo)


def result_key(predictor, trace: Trace, provider, warmup_branches: int,
               engine_name: str) -> str:
    """The content-addressed cache key for one simulation's inputs.

    Raises :class:`UncacheableError` when any input resists deterministic
    fingerprinting; callers should then skip the cache for that run.
    """
    hasher = hashlib.sha256()
    memo: dict[int, int] = {}
    hasher.update(b"repro-result\x00" + _source_digest())
    _update(hasher, predictor, memo)
    hasher.update(b"\x00trace")
    hasher.update(_trace_content_digest(trace))
    _update(hasher, provider, memo)
    _update(hasher, int(warmup_branches), memo)
    _update(hasher, engine_name, memo)
    return hasher.hexdigest()


# -- storage -----------------------------------------------------------------


def load(key: str,
         telemetry: NullTelemetry | None = None) -> SimulationResult | None:
    """The cached result for ``key`` (with ``cache="hit"``), or ``None``.

    Unreadable or structurally invalid entries count as misses.  Telemetry
    distinguishes the three outcomes: ``result_cache.hits`` (entry present
    and valid, with the load latency in ``result_cache.hit_seconds``),
    ``result_cache.cold_misses`` (no entry) and ``result_cache.corrupt``
    (entry present but unreadable — the driver will re-simulate and
    overwrite it).
    """
    sink = get_telemetry(telemetry)
    path = cache_dir() / f"{key}.json"
    started = time.perf_counter()
    try:
        text = path.read_text()
    except OSError:
        if sink.enabled:
            sink.count("result_cache.cold_misses")
        return None
    try:
        payload = json.loads(text)
        result = SimulationResult(
            predictor_name=payload["predictor_name"],
            trace_name=payload["trace_name"],
            branches=int(payload["branches"]),
            mispredictions=int(payload["mispredictions"]),
            instructions=int(payload["instructions"]),
            wall_seconds=float(payload["wall_seconds"]),
            engine=payload["engine"],
            cache="hit",
        )
    except (ValueError, KeyError, TypeError):
        if sink.enabled:
            sink.count("result_cache.corrupt")
        return None
    if sink.enabled:
        sink.count("result_cache.hits")
        sink.observe("result_cache.hit_seconds",
                     time.perf_counter() - started)
    return result


def store(key: str, result: SimulationResult,
          telemetry: NullTelemetry | None = None) -> None:
    """Persist one result atomically (write-to-temp, then rename)."""
    sink = get_telemetry(telemetry)
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    payload = dataclasses.asdict(result)
    payload.pop("cache", None)  # provenance is per-invocation, not stored
    payload.pop("telemetry", None)  # snapshots describe the producing run
    path = directory / f"{key}.json"
    temporary = directory / f".{key}.{os.getpid()}.tmp"
    temporary.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(temporary, path)
    if sink.enabled:
        sink.count("result_cache.stores")
