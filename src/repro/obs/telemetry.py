"""Structured telemetry: counters, histograms, and wall-clock spans.

The paper's design arguments are all *located*: partial update exists to cut
hysteresis-array write traffic (Section 4.2), Meta arbitration decides
BIM-vs-eskew per branch (Section 4.1), bank interleaving exists to bound
per-bank port pressure (Section 6).  None of that is visible in an aggregate
misprediction count, so this module provides the observability layer the
simulation stack records into:

* :class:`NullTelemetry` — the default sink.  Every hook is a no-op and the
  hot paths gate on its ``enabled`` flag, so the disabled cost is one
  attribute test per instrumented block (vectorized code paths pay it once
  per *chunk*, not per branch).
* :class:`Telemetry` — the recording sink: monotonic **counters** (event
  and traffic counts), **histograms** (latency/size observations reduced to
  count/total/min/max), and **spans** (nested wall-clock regions keyed by
  their slash-joined path, e.g. ``batched_run/materialize``).

Sinks serialize to JSON and CSV (:meth:`Telemetry.to_json` /
:meth:`Telemetry.to_csv`), merge deterministically
(:meth:`Telemetry.merge_snapshot` — the mechanism ``run_cells`` uses to
fold the sinks of cells run on threads back together, in cell order), and
render a human summary (:func:`render_summary`, the table ``runall``
appends to its report).

A recording sink's mutators take its lock, so threads may count into one
sink (a threaded sweep's cells count ``provider.materialize_computed``
into the process-global sink).  Spans nest by one stack per sink, so
each thread that opens spans records them into its own sink.

A process-global *active* sink (default: the null sink) lets deep layers —
the trace cache, the result cache, experiment modules — record without
threading a parameter through every signature: :func:`set_telemetry` /
:func:`use_telemetry` install one, :func:`get_telemetry` resolves one.

Schema stability: counter/histogram/span *names* recorded by the repro
stack are a documented interface (see DESIGN.md "Telemetry schema") —
renaming one is a breaking change to downstream consumers of the JSON/CSV
artifacts.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

__all__ = ["NullTelemetry", "Telemetry", "NULL_TELEMETRY", "get_telemetry",
           "set_telemetry", "use_telemetry", "render_summary"]


class NullTelemetry:
    """The disabled sink: every hook is a no-op.

    This is the base class of :class:`Telemetry` so instrumented code holds
    a single reference type; hot paths guard instrumentation blocks with
    ``if sink.enabled:`` and skip even the argument computation when
    disabled.
    """

    __slots__ = ()

    #: Instrumented code gates on this: False means "record nothing".
    enabled = False

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the monotonic counter ``name``."""

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a region of work; spans nest (the recorded key is the
        slash-joined path of open span names)."""
        yield

    def snapshot(self) -> dict:
        """A plain-dict copy of everything recorded so far."""
        return {"counters": {}, "histograms": {}, "spans": {}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(enabled={self.enabled})"


NULL_TELEMETRY = NullTelemetry()
"""The shared disabled sink every instrumented object defaults to."""


class Telemetry(NullTelemetry):
    """The recording sink.

    Counters are plain integer accumulators.  Histograms reduce a stream of
    observations to ``count/total/min/max`` (enough for latency accounting
    without unbounded memory).  Spans are wall-clock timed regions keyed by
    their nesting path: opening ``span("a")`` inside ``span("b")`` records
    under ``"b/a"``, and a parent's time always covers its children's.
    """

    __slots__ = ("counters", "histograms", "spans", "_stack", "_lock")

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, dict[str, float]] = {}
        self.spans: dict[str, dict[str, float]] = {}
        self._stack: list[str] = []
        self._lock = threading.RLock()

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        with self._lock:
            stats = self.histograms.get(name)
            if stats is None:
                self.histograms[name] = {"count": 1, "total": value,
                                         "min": value, "max": value}
            else:
                stats["count"] += 1
                stats["total"] += value
                if value < stats["min"]:
                    stats["min"] = value
                if value > stats["max"]:
                    stats["max"] = value

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if "/" in name:
            raise ValueError(f"span names must not contain '/': {name!r}")
        with self._lock:
            self._stack.append(name)
            path = "/".join(self._stack)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                popped = self._stack.pop()
                assert popped == name  # one thread's spans nest LIFO
                record = self.spans.get(path)
                if record is None:
                    self.spans[path] = {"count": 1, "seconds": elapsed}
                else:
                    record["count"] += 1
                    record["seconds"] += elapsed

    @property
    def span_depth(self) -> int:
        """Number of currently open spans (0 when quiescent)."""
        return len(self._stack)

    # -- folding -------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self.counters),
                "histograms": {name: dict(stats)
                               for name, stats in self.histograms.items()},
                "spans": {path: dict(record)
                          for path, record in self.spans.items()},
            }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold another sink's :meth:`snapshot` into this one.

        Counters and span/histogram counts add; histogram min/max widen.
        Merging is associative and, for counters, commutative — merging
        per-cell snapshots in any fixed order yields the same counters a
        serial run records.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.count(name, value)
            for name, stats in snapshot.get("histograms", {}).items():
                mine = self.histograms.get(name)
                if mine is None:
                    self.histograms[name] = dict(stats)
                else:
                    mine["count"] += stats["count"]
                    mine["total"] += stats["total"]
                    mine["min"] = min(mine["min"], stats["min"])
                    mine["max"] = max(mine["max"], stats["max"])
            for path, record in snapshot.get("spans", {}).items():
                mine = self.spans.get(path)
                if mine is None:
                    self.spans[path] = dict(record)
                else:
                    mine["count"] += record["count"]
                    mine["seconds"] += record["seconds"]

    # -- serialization -------------------------------------------------------

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize the snapshot as JSON; optionally also write ``path``."""
        text = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def to_csv(self, path: str | Path | None = None) -> str:
        """Serialize as flat CSV rows ``kind,name,field,value`` (one row per
        scalar, stable sort order); optionally also write ``path``."""
        rows = ["kind,name,field,value"]
        snapshot = self.snapshot()
        for name in sorted(snapshot["counters"]):
            rows.append(f"counter,{name},value,{snapshot['counters'][name]}")
        for name in sorted(snapshot["histograms"]):
            stats = snapshot["histograms"][name]
            for field in ("count", "total", "min", "max"):
                rows.append(f"histogram,{name},{field},{stats[field]!r}")
        for path_name in sorted(snapshot["spans"]):
            record = snapshot["spans"][path_name]
            rows.append(f"span,{path_name},count,{int(record['count'])}")
            rows.append(f"span,{path_name},seconds,{record['seconds']!r}")
        text = "\n".join(rows) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    def write(self, path: str | Path) -> None:
        """Write to ``path``, choosing the format from the extension
        (``.csv`` -> CSV, anything else -> JSON)."""
        if str(path).endswith(".csv"):
            self.to_csv(path)
        else:
            self.to_json(path)


# -- the process-global active sink ------------------------------------------

_ACTIVE: NullTelemetry = NULL_TELEMETRY


def get_telemetry(sink: NullTelemetry | None = None) -> NullTelemetry:
    """Resolve a telemetry argument: an explicit sink passes through,
    ``None`` resolves the process-global active sink (default: null)."""
    return sink if sink is not None else _ACTIVE


def set_telemetry(sink: NullTelemetry | None) -> NullTelemetry:
    """Install ``sink`` as the process-global active sink (``None`` restores
    the null sink).  Returns the previously active sink."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sink if sink is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(sink: NullTelemetry | None) -> Iterator[NullTelemetry]:
    """Scoped :func:`set_telemetry`: install for the block, then restore."""
    previous = set_telemetry(sink)
    try:
        yield get_telemetry()
    finally:
        set_telemetry(previous)


# -- human-readable summary --------------------------------------------------

def _bank_rows(counters: Mapping[str, int]) -> dict[str, dict[str, int]]:
    """Group ``bank.<label>.<metric>`` counters into per-bank rows."""
    banks: dict[str, dict[str, int]] = {}
    for name, value in counters.items():
        if not name.startswith("bank."):
            continue
        _, label, metric = name.split(".", 2)
        banks.setdefault(label, {})[metric] = value
    return banks


_INDEX_LEGEND = ("(replay/index times lookup-descriptor set-up; the "
                 "byte-table gather runs inside the replay kernel)")


def render_summary(snapshot: Mapping) -> str:
    """Render a snapshot as the fixed-width summary table ``runall`` embeds.

    Sections: per-bank traffic (reads / prediction writes / hysteresis
    writes / sharing conflicts), then every non-bank counter, then
    histograms and spans.  Empty sections are omitted.  When an ``index``
    span is present, one legend line says what it times.
    """
    counters = snapshot.get("counters", {})
    lines: list[str] = []

    banks = _bank_rows(counters)
    if banks:
        metrics = ("reads", "prediction_writes", "hysteresis_writes",
                   "sharing_conflicts")
        header = f"{'bank':<10}" + "".join(f"{m:>20}" for m in metrics)
        lines.append("Per-bank counter traffic")
        lines.append(header)
        lines.append("-" * len(header))
        for label in sorted(banks):
            row = banks[label]
            lines.append(f"{label:<10}" + "".join(
                f"{row.get(m, 0):>20,}" for m in metrics))
        lines.append("")

    other = {name: value for name, value in counters.items()
             if not name.startswith("bank.")}
    if other:
        width = max(len(name) for name in other)
        lines.append("Counters")
        for name in sorted(other):
            lines.append(f"{name:<{width}}  {other[name]:>15,}")
        lines.append("")

    histograms = snapshot.get("histograms", {})
    if histograms:
        width = max(len(name) for name in histograms)
        lines.append("Histograms  (count / mean / min / max)")
        for name in sorted(histograms):
            stats = histograms[name]
            mean = stats["total"] / stats["count"] if stats["count"] else 0.0
            lines.append(f"{name:<{width}}  {int(stats['count']):>8} "
                         f"{mean:>12.6f} {stats['min']:>12.6f} "
                         f"{stats['max']:>12.6f}")
        lines.append("")

    spans = snapshot.get("spans", {})
    if spans:
        width = max(len(path) for path in spans)
        lines.append("Spans  (count / total seconds)")
        if any(path.rsplit("/", 1)[-1] == "index" for path in spans):
            lines.append(_INDEX_LEGEND)
        for path in sorted(spans):
            record = spans[path]
            lines.append(f"{path:<{width}}  {int(record['count']):>8} "
                         f"{record['seconds']:>12.4f}")
        lines.append("")

    if not lines:
        return "(no telemetry recorded)"
    return "\n".join(lines).rstrip()
