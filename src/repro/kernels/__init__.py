"""The compiled tier: C sources built on first use and loaded with
:mod:`ctypes`.

Two libraries are built this way.  ``replay.c`` holds the replay kernels:
every batched predictor replays through one C predict-then-train kernel,
called by :meth:`repro.predictors.base.BatchCapable.batch_access` with the
lookup descriptor of its GF(2) byte tables
(:class:`repro.indexing.gf2.Lookups`).  The kernel gathers the indices of
one L1-resident block of rows at a time (``gather_block``, which
``gf2_gather`` also runs on its own for
:class:`~repro.indexing.gf2.ByteTables`), replays the block on the
predictor's own table buffers in place and writes one prediction byte per
position: the single-table predictors (bimodal, gshare, GAs) through
``counter_replay``, and the update-coupled ones (2Bc-gskew and the EV8
built on it, e-gskew, bi-mode and YAGS) through a kernel each.  Given a
``uint64`` slot array (a null pointer when telemetry is off), the kernel
also counts the scalar walk's telemetry events into it:
:data:`BANK_SLOTS` per bank, then the predictor's own.  ``replay.c``
also holds the trace-side walks: ``fetch_geometry`` builds
:func:`repro.traces.fetch.block_geometry`, and ``ghist_history``,
``lghist_history`` and ``block_columns`` build the columns of every
:meth:`~repro.history.providers.HistoryProvider.materialize` batch.
``workloads/executor.c`` is the program executor behind
:meth:`repro.workloads.cfg.Program.run`, loaded through :func:`library`.

The first use of a source in a process (for ``replay.c``: :func:`available`,
:func:`require` or :func:`library_path`) builds it with the system
``gcc -O2 -shared -fPIC`` unless a build already sits in the cache
directory: ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), or a
``repro-<uid>`` directory under :func:`tempfile.gettempdir` when that is not
writable.  The file name is the source's stem and a SHA-256 of the C source
and of ``gcc --version``, so an edited source or another compiler builds
afresh.  A build is written under a temporary name and moved into place
with :func:`os.replace`, so processes racing to build never load a partial
library.  Deleting the cache directory forces every library to rebuild.

Without a compiler, or when the build or the load fails, a library is
unavailable.  For ``replay.c`` :func:`available` is then False: every
batched predictor reports ``batch_supported() == False`` and the batched
engine falls back to the scalar walk (or raises, when strict);
``materialize`` returns ``None``, and ``block_geometry`` walks the
:class:`~repro.traces.fetch.FetchBlock` objects.  Without the executor,
:meth:`~repro.workloads.cfg.Program.run` interprets the program in Python.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["SOURCE", "BANK_SLOTS", "library", "library_path", "available",
           "require", "address", "stream", "banks", "yags_caches"]

SOURCE = Path(__file__).with_name("replay.c")
"""The C source of every replay kernel."""

BANK_SLOTS = 4
"""The telemetry slots a kernel counts per bank (``BANK_SLOTS`` in
``replay.c``), in :class:`~repro.common.counters.SplitCounterArray`'s
counter order: reads, prediction writes, hysteresis writes, sharing
conflicts."""

_BUILD_TIMEOUT_S = 120


_POINTER, _INT64 = ctypes.c_void_p, ctypes.c_int64
_SIGNATURES = (
    ("gf2_gather", (_INT64, *[_POINTER] * 2)),
    ("counter_replay", (_INT64, *[_POINTER] * 5)),
    ("twobcgskew_replay", (_INT64, *[_POINTER] * 3, ctypes.c_int,
                           *[_POINTER] * 2)),
    ("egskew_replay", (_INT64, *[_POINTER] * 3, ctypes.c_int,
                       *[_POINTER] * 2)),
    ("bimode_replay", (_INT64, *[_POINTER] * 5)),
    ("yags_replay", (_INT64, *[_POINTER] * 6)),
    ("fetch_geometry", (_INT64, *[_POINTER] * 4, ctypes.c_int,
                        *[_POINTER] * 5)),
    ("ghist_history", (_INT64, _POINTER, ctypes.c_int, _POINTER)),
    ("lghist_history", (_INT64, *[_POINTER] * 3, ctypes.c_int, _INT64,
                        ctypes.c_int, _POINTER)),
    ("block_columns", (_INT64, _POINTER, _POINTER, _INT64,
                       *[_POINTER] * 3)),
)
"""Argument types per kernel.  Every pointer, lookup and table descriptors
included, passes as a plain address: building ``ctypes.Structure`` types
at import time measurably changes how much memory the process keeps
resident."""


def _find_compiler() -> str | None:
    """The C compiler to build with, or ``None`` when there is none."""
    return shutil.which("gcc")


def _cache_dir() -> Path | None:
    """The first writable build cache directory (created if missing)."""
    candidates = []
    try:
        base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        candidates.append(Path(base) / "repro")
    except RuntimeError:  # no home directory to resolve
        pass
    candidates.append(Path(tempfile.gettempdir()) / f"repro-{os.getuid()}")
    for directory in candidates:
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(directory, os.W_OK | os.X_OK):
            return directory
    return None


def _build(compiler: str, source: Path, target: Path) -> bool:
    """Compile ``source`` into ``target`` atomically; on failure leave
    nothing behind."""
    partial = target.with_name(
        f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        subprocess.run([compiler, "-O2", "-shared", "-fPIC", "-o",
                        str(partial), str(source)],
                       check=True, capture_output=True,
                       timeout=_BUILD_TIMEOUT_S)
        os.replace(partial, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        partial.unlink(missing_ok=True)


@functools.cache
def _load(source: Path = SOURCE, signatures: tuple = _SIGNATURES
          ) -> tuple[ctypes.CDLL, Path] | None:
    """``source`` built (unless cached) and loaded, with each
    ``(name, argtypes)`` of ``signatures`` declared; ``None`` when that
    fails."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        version = subprocess.run([compiler, "--version"], check=True,
                                 capture_output=True,
                                 timeout=_BUILD_TIMEOUT_S).stdout
        text = source.read_bytes()
    except (OSError, subprocess.SubprocessError):
        return None
    directory = _cache_dir()
    if directory is None:
        return None
    key = hashlib.sha256(text + b"\x00" + version).hexdigest()[:32]
    target = directory / f"{source.stem}-{key}.so"
    if not target.exists() and not _build(compiler, source, target):
        return None
    try:
        lib = ctypes.CDLL(str(target))
        for name, argtypes in signatures:
            function = getattr(lib, name)
            function.argtypes = argtypes
            function.restype = None
    except (OSError, AttributeError):
        return None
    return lib, target


def library(source: Path, signatures: tuple) -> ctypes.CDLL | None:
    """The library built from the C file ``source`` (on first use in the
    process, unless cached) with each ``(name, argtypes)`` of
    ``signatures`` declared, or ``None`` when it cannot be built or
    loaded."""
    loaded = _load(source, signatures)
    return loaded[0] if loaded else None


def library_path() -> Path | None:
    """Where the loaded kernel library lives (building it on first use), or
    ``None`` when the compiled tier is unavailable."""
    loaded = _load()
    return loaded[1] if loaded else None


def available() -> bool:
    """Whether the compiled replay tier loaded."""
    return _load() is not None


def require() -> ctypes.CDLL:
    """The loaded kernel library, building it on first use; raises when the
    compiled tier is unavailable."""
    loaded = _load()
    if loaded is None:
        raise RuntimeError(
            "the compiled replay tier is unavailable (no gcc, or its build "
            "failed); batch_supported() is False, so run scalar")
    return loaded[0]


def address(buffer) -> int:
    """The address of a writable or read-only contiguous buffer's first
    byte (a ``bytearray``, ``array.array`` or numpy array)."""
    return np.frombuffer(buffer, dtype=np.uint8).ctypes.data


def stream(values: np.ndarray, dtype=np.uint64) -> np.ndarray:
    """``values`` as a C-contiguous array of ``dtype`` (no copy when it
    already is one)."""
    return np.ascontiguousarray(values, dtype=dtype)


def banks(*arrays) -> np.ndarray:
    """The kernels' ``bank_t`` descriptors of some
    :class:`~repro.common.counters.SplitCounterArray` objects: four words
    each (the prediction and hysteresis buffer addresses and sizes)."""
    return np.array([word for counters in arrays
                     for word in (address(counters._prediction),
                                  address(counters._hysteresis),
                                  counters.size, counters.hysteresis_size)],
                    dtype=np.uint64)


def yags_caches(*caches) -> np.ndarray:
    """The tag sides of some YAGS direction caches, as ``yags_replay``
    takes them (their counters go with the banks): the tag and valid buffer
    addresses and the tag width in bytes."""
    return np.array([word for cache in caches
                     for word in (address(cache._tags),
                                  address(cache._valid),
                                  getattr(cache._tags, "itemsize", 1))],
                    dtype=np.uint64)
