"""Persistent on-disk simulation-result cache.

A simulation's counts are a pure function of (simulator code, predictor
configuration, trace content, provider configuration, warmup, engine):
re-running a figure after unrelated edits repeats work whose inputs did not
change.  This module fingerprints those six inputs into a content-addressed
key and stores each :class:`~repro.sim.metrics.SimulationResult` as a small
JSON file, so repeated experiment invocations skip simulation entirely.

Key scheme
----------
``result_key`` feeds one SHA-256 with four 32-byte digests, then the
warmup and the engine name:

* the **simulator code** — a digest of the semantics-bearing sources
  (``predictors/``, ``common/``, ``history/``, ``indexing/``, ``ev8/``,
  ``kernels/`` with its C source, ``sim/engine.py`` and
  ``traces/fetch.py``), so editing a kernel or the update policy re-keys
  every result instead of replaying counts the old code produced.
  ``kernels/replay.c`` holds the trace-side materialization walks as well
  as the replay kernels, so an edit to either re-keys every cached result
  once: the first run after it re-simulates;
* the **predictor** — :func:`predictor_fingerprint`, a SHA-256 of the
  structural walk of the live object: type name plus every attribute,
  recursively (table sizes, history lengths, update policy, index-scheme
  parameters, and the counter tables, so ``init_taken`` variants key
  differently), except its own display ``name``.  No predictor reads its
  ``name`` while predicting or training, so a configuration a figure
  reuses under a new label is the same simulation and hits; a hit reports
  the live predictor's name.  The ``name`` of an object the predictor
  holds (a cascade's components) still keys;
* the **trace content** — :func:`~repro.traces.model.content_digest`,
  the four trace columns hashed once and memoised on the
  :class:`~repro.traces.model.Trace` (whose columns are read-only, so the
  digest cannot go stale; the trace *name* is deliberately excluded:
  identical content keys identically).  A trace the trace cache loads
  carries the digest its archive stored, so keying it reads no column;
* the **provider** — :func:`fingerprint`, the same walk (``None`` keys
  as its own distinct value);
* ``warmup_branches`` and the resolved **engine name** (engines are
  count-equivalent by contract, but keying them separately keeps the cache
  honest if that contract is ever violated and keeps each stored
  ``wall_seconds`` attributable to the engine that spent it).

``result_key`` takes the live predictor and provider, or either as its
precomputed :class:`Fingerprint`: the two give the same key.  The cell
runner (:func:`repro.sim.sweep.run_cells`) fingerprints each distinct
predictor and provider factory once per call, on one object it builds,
and keys every cell of that factory from the stored fingerprints, so a
grid of C configurations over T traces walks C predictors, not C x T.
That memo lives only for the call, and it relies on the factory contract
:class:`repro.sim.sweep.Cell` states: a factory returns an equal fresh
object on every call.

Buffers (``bytes``/``bytearray``, numpy arrays and scalars, ``array.array``,
``memoryview``) key by element type plus content; a uniform buffer (every
table of a freshly built predictor) keys by its length and fill byte, so a
cache hit costs a few bytes per table rather than the table's size.
Objects containing unhashable leaves (open files, callables, objects
exposing neither ``__dict__`` nor ``__slots__``, ...) raise
:class:`UncacheableError`; the driver then simply runs uncached.

The cache activates when ``REPRO_RESULT_CACHE`` is truthy (the experiment
runner always simulates through one: this persistent cache by default, a
private temporary directory under ``--no-cache``); files live under
``REPRO_RESULT_CACHE_DIR``
(default ``.result_cache/``).  Corrupt or unreadable entries are treated as
misses and rewritten.  Each result's ``cache`` field records provenance:
``"off"``, ``"miss"`` (simulated, then stored) or ``"hit"``.  A stored
entry keeps the ``wall_seconds`` of the run that simulated it, and
:func:`load` returns that value; :func:`repro.sim.driver.simulate` reports
a hit with ``wall_seconds`` 0.0, since that call simulated nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import threading
import time
import types
from array import array
from collections import defaultdict, deque
from pathlib import Path

import numpy as np

from repro.obs import NullTelemetry, get_telemetry
from repro.sim.metrics import SimulationResult
from repro.traces.model import Trace, content_digest

__all__ = ["CACHE_ENV_VAR", "CACHE_DIR_ENV_VAR", "UncacheableError",
           "Fingerprint", "cache_enabled", "cache_dir", "fingerprint",
           "predictor_fingerprint", "result_key", "load", "store"]

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

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent
_SEMANTIC_SOURCES = ("predictors", "common", "history", "indexing", "ev8",
                     "kernels", "sim/engine.py", "traces/fetch.py")
"""Sources (relative to the ``repro`` package) that decide what a
simulation computes: the Python modules and the C replay kernels in each
directory, and the named files.  Their digest salts every result key."""


def _semantic_files(entries: tuple[str, ...] = _SEMANTIC_SOURCES
                    ) -> list[str]:
    """Package-relative paths of every source ``entries`` names (the
    ``.py`` and ``.c`` files under a directory, or a file), sorted."""
    files = []
    for entry in entries:
        path = _PACKAGE_ROOT / entry
        if path.is_dir():
            files.extend(found for pattern in ("*.py", "*.c")
                         for found in path.rglob(pattern))
        elif path.is_file():
            files.append(path)
    return sorted(path.relative_to(_PACKAGE_ROOT).as_posix()
                  for path in files)


@functools.cache
def _source_digest(entries: tuple[str, ...] = _SEMANTIC_SOURCES) -> bytes:
    """SHA-256 over the sources ``entries`` names (by default the
    semantics-bearing ones), computed once per process.

    Each file contributes its package-relative path and its bytes, in sorted
    path order, so editing, adding, renaming or deleting any of them
    re-keys every result: a cache can never answer with a count that older
    simulator code produced.  :class:`repro.traces.io.TraceCache` salts its
    keys the same way with the trace generator's sources.
    """
    hasher = hashlib.sha256()
    for relative in _semantic_files(entries):
        data = (_PACKAGE_ROOT / relative).read_bytes()
        hasher.update(relative.encode() + b"\x00" + str(len(data)).encode()
                      + b":")
        hasher.update(data)
    return hasher.digest()


_TELEMETRY_ATTRS = frozenset({"_telemetry", "_tele_names"})
"""Attribute names carrying telemetry wiring.  Excluded from structural
fingerprints: attaching (or detaching) an observability sink never changes
what a simulation computes, so it may not change a cache key."""


_content_digest = content_digest
"""The trace digest :func:`result_key` reads from the trace's memo, where
an archive-loaded trace already holds it."""


_UNIFORM_CHUNK = 1 << 16


def _update_buffer(hasher, header: bytes, data: bytes | bytearray) -> None:
    """Feed one raw buffer: its type ``header`` (tag, element type, shape),
    then its bytes.

    A uniform buffer -- every counter table of a freshly built predictor --
    is fed in run-length form instead: the ``U`` tag, the header, the byte
    length and the single fill byte.  The leading tag keeps the two forms
    apart, so the encoding stays injective.  A buffer longer than
    ``_UNIFORM_CHUNK`` is tested against one chunk of its fill byte,
    chunk by chunk, so the test never copies a large table.
    """
    size = len(data)
    if size <= _UNIFORM_CHUNK:
        uniform = data == data[:1] * size
    else:
        pattern = data[:1] * _UNIFORM_CHUNK
        uniform = data.endswith(pattern) and all(
            data.startswith(pattern, start)
            for start in range(0, size - _UNIFORM_CHUNK, _UNIFORM_CHUNK))
    if uniform:
        hasher.update(b"\x00U" + header + str(size).encode() + b":"
                      + data[:1])
    else:
        hasher.update(header)
        hasher.update(data)


_SEQUENCE_TAGS = {list: b"\x00L", tuple: b"\x00T", deque: b"\x00D"}
_CONTAINER_TYPES = frozenset({*_SEQUENCE_TAGS, dict})


def _update(hasher, value, memo: dict[int, int],
            skipped: frozenset[str] = _TELEMETRY_ATTRS) -> None:
    """Feed one value into the hash, recursively and type-tagged.

    ``memo`` maps ``id`` of already-visited composite objects to their
    visit ordinal, so shared substructure and cycles hash deterministically
    (the ordinal depends only on traversal order, never on addresses).
    ``skipped`` names the attributes left out of this object (never of
    the objects it holds).
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
    elif (isinstance(value, (list, tuple, deque, dict))
          and type(value) not in _CONTAINER_TYPES):
        # A subclass (a namedtuple, an OrderedDict, ...): its qualified
        # class name keys it apart from equal items of another type, and
        # its instance attributes, if any, follow the items.  A defaultdict's
        # default_factory counts as one (a callable, so it is refused).
        cls = type(value)
        hasher.update(b"\x00Q" + cls.__module__.encode() + b"."
                      + cls.__qualname__.encode() + b"\x00")
        _update(hasher, dict(value) if isinstance(value, dict)
                else list(value), memo)
        attrs = getattr(value, "__dict__", {})
        if isinstance(value, defaultdict):
            attrs = {**attrs, "default_factory": value.default_factory}
        _update(hasher, attrs, memo)
    elif isinstance(value, (list, tuple, deque)):
        tag = _SEQUENCE_TAGS[type(value)]
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
            if name in skipped:
                continue
            _update(hasher, name, memo)
            _update(hasher, attrs[name], memo)


class Fingerprint(bytes):
    """The digest :func:`fingerprint` computed for one object.

    :func:`result_key` takes one in place of the live predictor or
    provider, so a grid walks each factory's object once and keys every
    cell of it from the stored digest."""


def fingerprint(value, skipped: frozenset[str] = _TELEMETRY_ATTRS
                ) -> Fingerprint:
    """SHA-256 of ``value``'s structural walk, leaving out the attributes
    ``skipped`` names (of ``value`` only, never of the objects it holds).

    Raises :class:`UncacheableError` when the walk meets a value it cannot
    fingerprint deterministically.
    """
    hasher = hashlib.sha256()
    _update(hasher, value, {}, skipped)
    return Fingerprint(hasher.digest())


def predictor_fingerprint(predictor) -> Fingerprint:
    """The :func:`fingerprint` of ``predictor`` without its display
    ``name``, which no predictor reads while it simulates."""
    return fingerprint(predictor, _TELEMETRY_ATTRS | {"name"})


def result_key(predictor, trace: Trace, provider, warmup_branches: int,
               engine_name: str) -> str:
    """The content-addressed cache key for one simulation's inputs.

    ``predictor`` and ``provider`` are the live objects about to be
    simulated, or each its :class:`Fingerprint` (of the predictor, from
    :func:`predictor_fingerprint`).  Raises :class:`UncacheableError`
    when a live input resists deterministic fingerprinting; callers
    should then skip the cache for that run.
    """
    if not isinstance(predictor, Fingerprint):
        predictor = predictor_fingerprint(predictor)
    if not isinstance(provider, Fingerprint):
        provider = fingerprint(provider)
    hasher = hashlib.sha256()
    hasher.update(b"repro-result\x00" + _source_digest())
    hasher.update(b"\x00predictor" + predictor)
    hasher.update(b"\x00trace"
                  + trace.derived("content_digest", _content_digest))
    hasher.update(b"\x00provider" + provider)
    hasher.update(b"\x00warmup" + str(int(warmup_branches)).encode())
    hasher.update(b"\x00engine" + engine_name.encode())
    return hasher.hexdigest()


# -- storage -----------------------------------------------------------------


def load(key: str,
         telemetry: NullTelemetry | None = None) -> SimulationResult | None:
    """The cached result for ``key`` (with ``cache="hit"`` and the stored
    run's ``wall_seconds``), or ``None``.

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
    temporary = (directory
                 / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp")
    temporary.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(temporary, path)
    if sink.enabled:
        sink.count("result_cache.stores")
