"""Span tracing around the program's per-cell and per-trace entry points.

:func:`install` replaces each entry point of the per-layer table with a
timing wrapper; :func:`uninstall` puts the originals back, so untraced
passes run the program exactly as shipped.  Spans live in memory as
``(id, name, start, end, parent, pid, outcome)`` tuples until the run
writes them out.  Only per-cell or per-trace calls are wrapped, never
per-branch methods, so the wrappers add a few hundred calls per pass.

Sweep units run in pool workers.  While tracing, ``SweepScheduler.run``
hands the pool a wrapped unit function that returns the unit's spans next
to its result, so worker-side layers are timed too, parented to the
scheduler span that dispatched them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
import weakref
from collections import defaultdict

SPANS: list[tuple] = []
_STACK: list[str] = []
_IDS = itertools.count()
_PATCHES: list[tuple] = []
_SEEN_BATCHES: dict[int, weakref.ref] = {}


def _materialize_hit(args, batch) -> bool | None:
    """A materialize call is a hit when it returns a batch this process
    already handed out (the per-trace cache served it)."""
    if batch is None:
        return None
    known = _SEEN_BATCHES.get(id(batch))
    if known is not None and known() is batch:
        return True
    _SEEN_BATCHES[id(batch)] = weakref.ref(batch)
    return False


def _fell_back(args, result) -> bool:
    return result.engine != "batched"


def _cache_hit(args, result) -> bool:
    return result is not None


def _begin() -> tuple[str, str | None, float]:
    sid = f"{os.getpid()}-{next(_IDS)}"
    parent = _STACK[-1] if _STACK else None
    _STACK.append(sid)
    return sid, parent, time.perf_counter()


def _end(sid, parent, start, name, outcome=None) -> None:
    end = time.perf_counter()
    _STACK.pop()
    SPANS.append((sid, name, start, end, parent, os.getpid(), outcome))


def _timed(fn, name: str, outcome=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, start = _begin()
        result = verdict = None
        try:
            result = fn(*args, **kwargs)
            if outcome is not None:
                verdict = outcome(args, result)
            return result
        finally:
            _end(sid, parent, start, name, verdict)
    return wrapper


def _traced_unit(fn, parent: str, payload):
    """Worker side of a traced sweep: run one unit under ``parent`` and
    return its result together with the spans it recorded."""
    mark = len(SPANS)
    _STACK[:] = [parent]
    try:
        result = fn(payload)
    finally:
        _STACK.clear()
    spans = SPANS[mark:]
    del SPANS[mark:]
    return result, spans


def _timed_scheduler_run(fn):
    @functools.wraps(fn)
    def run(self, unit, payloads):
        sid, parent, start = _begin()
        try:
            outcomes = fn(self, functools.partial(_traced_unit, unit, sid),
                          payloads)
        finally:
            _end(sid, parent, start, "sim.scheduler.run")
        results = []
        for result, spans in outcomes:
            SPANS.extend(spans)
            results.append(result)
        return results
    return run


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _targets():
    """``(owner, attribute, wrapped replacement factory)`` per entry point."""
    from repro.ev8 import predictor as _ev8_predictor  # noqa: F401
    from repro.ev8.indexfuncs import EV8IndexScheme
    from repro.history.providers import (BlockLghistProvider,
                                         BranchGhistProvider)
    from repro.predictors.base import BatchCapable
    from repro.predictors.twobcgskew import SkewedIndexScheme
    from repro.sim import driver, result_cache
    from repro.sim.engine import BatchedEngine, ScalarEngine
    from repro.sim.planes import PlaneStore
    from repro.sim.scheduler import SweepScheduler
    from repro.traces import fetch
    from repro.traces.io import TraceCache
    from repro.workloads import generator

    def span(name, outcome=None):
        return lambda fn: _timed(fn, name, outcome)

    yield generator, "generate_trace", span("workloads.generate")
    yield fetch, "fetch_blocks_for", span("traces.fetch_blocks")
    yield TraceCache, "get_or_generate", span("traces.cache_load")
    for cls in (BranchGhistProvider, BlockLghistProvider):
        yield cls, "materialize", span("history.materialize",
                                       _materialize_hit)
    yield EV8IndexScheme, "compute_batch", span("ev8.index")
    yield SkewedIndexScheme, "compute_batch", span("indexing.index")
    for cls in _subclasses(BatchCapable):
        if "batch_access" in vars(cls):
            yield cls, "batch_access", span("predictors.replay")
    yield ScalarEngine, "run", span("sim.scalar_run")
    yield BatchedEngine, "run", span("sim.batched_run", _fell_back)
    yield result_cache, "result_key", span("sim.result_cache.key")
    yield result_cache, "load", span("sim.result_cache.load", _cache_hit)
    yield result_cache, "store", span("sim.result_cache.store")
    yield PlaneStore, "publish_trace", span("sim.planes.publish")
    yield PlaneStore, "publish_batch", span("sim.planes.publish")
    yield SweepScheduler, "run", _timed_scheduler_run
    yield driver, "simulate", span("sim.simulate")


def install() -> None:
    """Wrap every entry point.  A module-level function is replaced in
    every loaded ``repro`` module that imported it by name, so callers
    holding their own binding are timed too."""
    if _PATCHES:
        return
    for owner, attribute, make in list(_targets()):
        original = vars(owner)[attribute]
        replacement = make(original)
        if isinstance(owner, type):
            _PATCHES.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    _PATCHES.append((module, key, original))
                    setattr(module, key, replacement)


def uninstall() -> None:
    while _PATCHES:
        owner, attribute, original = _PATCHES.pop()
        setattr(owner, attribute, original)


def take() -> list[tuple]:
    """Remove and return every recorded span."""
    spans = list(SPANS)
    SPANS.clear()
    return spans


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the part of each span's interval
    its child spans cover (children may overlap when they ran in
    different pool workers)."""
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    totals: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _, _, _ in spans:
        covered, cursor = 0.0, start
        for child in sorted(children.get(sid, ()), key=lambda s: s[2]):
            lo, hi = max(child[2], cursor), min(child[3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return totals


def fraction(spans, name: str) -> float:
    """Share of ``name`` spans whose outcome was true (0 when none ran)."""
    outcomes = [span[6] for span in spans
                if span[1] == name and span[6] is not None]
    return sum(outcomes) / len(outcomes) if outcomes else 0.0


def top_level_seconds(spans, names) -> float:
    """Summed duration of root spans (no parent) with one of ``names``."""
    return sum(span[3] - span[2] for span in spans
               if span[4] is None and span[1] in names)


def write(spans, path, run_id: str, phase: str) -> None:
    with open(path, "a") as handle:
        for sid, name, start, end, parent, pid, outcome in spans:
            handle.write(json.dumps({
                "run": run_id, "phase": phase, "id": sid, "name": name,
                "start": start, "end": end, "parent": parent, "pid": pid,
                "outcome": outcome}) + "\n")
