"""Dynamic trace representation.

The unit of the trace is the *basic-block execution*: a run of consecutive
instructions ending with (at most) one control-flow instruction.  This is the
natural output granularity of the synthetic program executor and carries
exactly the information the EV8 front end consumes:

* instruction addresses (for fetch-block construction and index functions),
* conditional branch outcomes,
* instruction counts (for the misp/KI metric).

Instructions are 4 bytes, as on Alpha, so PC bits (4, 3, 2) identify an
instruction's slot within an aligned 8-instruction (32-byte) fetch block —
the bits the EV8 "unshuffle" stage permutes (Section 7.1).

A :class:`Trace` stores the block stream as parallel read-only numpy arrays
and holds the one memo of everything derived from them
(:meth:`Trace.derived`): fetch blocks, their columnar geometry, statistics,
materialized information vectors and the content digest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = [
    "INSTRUCTION_BYTES",
    "MAX_BLOCK_INSTRUCTIONS",
    "TerminatorKind",
    "BlockExecution",
    "Trace",
    "TraceBuilder",
]

INSTRUCTION_BYTES = 4
"""Alpha instructions are fixed 4-byte words."""

MAX_BLOCK_INSTRUCTIONS = 0xFFFF
"""The most instructions one block execution holds: a trace stores its
counts as ``uint16``."""


class TerminatorKind(IntEnum):
    """How a basic block ends."""

    FALLTHROUGH = 0
    """No control-flow instruction: execution continues at the next address
    (the block was split for layout reasons, e.g. function boundaries)."""

    CONDITIONAL = 1
    """Conditional branch: last instruction of the block."""

    JUMP = 2
    """Unconditional direct jump: always taken."""

    CALL = 3
    """Function call: always taken; pushes its fall-through address on the
    hardware return-address stack (Alpha JSR carries this hint)."""

    RETURN = 4
    """Function return: always taken; target predicted by popping the
    return-address stack (Alpha RET hint)."""


_KINDS = frozenset(int(kind) for kind in TerminatorKind)


def count_error(count: int) -> ValueError:
    """The error for a block instruction count outside
    1..:data:`MAX_BLOCK_INSTRUCTIONS`."""
    if count < 1:
        return ValueError(
            f"a block execution needs at least 1 instruction, got {count}")
    return ValueError(f"a block execution holds at most "
                      f"{MAX_BLOCK_INSTRUCTIONS} instructions, got {count}")


def _kind_error(kind: int) -> ValueError:
    return ValueError(f"block kind {kind} is not a TerminatorKind")


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (its own flags stay as they were)."""
    view = array.view()
    view.setflags(write=False)
    return view


def _checked(values, dtype, low: int, high: int, error) -> np.ndarray:
    """``values`` as an array of ``dtype``, once every value is known to lie
    in ``low..high`` (so the conversion cannot wrap)."""
    array = np.asarray(values)
    if array.size and (array.min() < low or array.max() > high):
        raise error(array[(array < low) | (array > high)][0].item())
    return array.astype(dtype, copy=False)


@dataclass(frozen=True)
class BlockExecution:
    """One dynamic execution of a basic block.

    Attributes
    ----------
    start:
        Address of the first instruction.
    num_instructions:
        Number of instructions, including the terminator. Always >= 1.
    kind:
        Terminator kind.
    taken:
        Outcome of the terminator. Meaningful for ``CONDITIONAL`` blocks;
        ``True`` for ``JUMP``/``CALL``/``RETURN``; ``False`` for
        ``FALLTHROUGH``.
    next_start:
        Address of the next block's first instruction (branch target when
        taken, fall-through otherwise).
    """

    start: int
    num_instructions: int
    kind: TerminatorKind
    taken: bool
    next_start: int

    @property
    def terminator_pc(self) -> int:
        """Address of the last (terminator) instruction."""
        return self.start + (self.num_instructions - 1) * INSTRUCTION_BYTES

    @property
    def end(self) -> int:
        """Address one instruction past the block."""
        return self.start + self.num_instructions * INSTRUCTION_BYTES


class Trace:
    """An immutable dynamic trace of basic-block executions.

    Parameters are parallel arrays, one element per block execution; see
    :class:`BlockExecution` for field meanings.  ``name`` identifies the
    workload (used in reports and as a disk-cache key component).

    The columns are read-only views of the arrays passed in, and no
    attribute can be rebound, so a write raises instead of leaving
    :meth:`derived` values stale.  A trace pickles as its name and columns
    alone: it arrives read-only, with nothing derived yet.
    """

    __slots__ = ("name", "starts", "num_instructions", "kinds", "takens",
                 "next_starts", "_derived", "_derive_lock")

    def __init__(self, name: str, starts: np.ndarray, num_instructions: np.ndarray,
                 kinds: np.ndarray, takens: np.ndarray,
                 next_starts: np.ndarray) -> None:
        lengths = {len(starts), len(num_instructions), len(kinds), len(takens),
                   len(next_starts)}
        if len(lengths) != 1:
            raise ValueError(f"trace arrays have mismatched lengths: {lengths}")
        self.name = name
        self.starts = _read_only(np.asarray(starts, dtype=np.uint64))
        self.num_instructions = _read_only(_checked(
            num_instructions, np.uint16, 1, MAX_BLOCK_INSTRUCTIONS,
            count_error))
        self.kinds = _read_only(_checked(kinds, np.uint8, min(_KINDS),
                                         max(_KINDS), _kind_error))
        self.takens = _read_only(np.asarray(takens, dtype=np.bool_))
        self.next_starts = _read_only(np.asarray(next_starts,
                                                 dtype=np.uint64))
        self._derived: dict = {}
        self._derive_lock = threading.RLock()

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):  # set once, in __init__
            raise AttributeError(f"Trace.{name} cannot be rebound: build a "
                                 "new Trace instead")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return (Trace, (self.name, self.starts, self.num_instructions,
                        self.kinds, self.takens, self.next_starts))

    def derived(self, key, compute=None):
        """The value derived from this trace under ``key``, computed by
        ``compute(trace)`` on first request (``None`` when absent and no
        ``compute`` is given).

        The trace's only memo: every pure function of a trace that is worth
        keeping stores its value here under its own key.  Stored values are
        shared, so every numpy array a value is, or holds as a tuple item or
        an attribute, is marked read-only.

        Threads that share the trace compute each key once: a miss takes
        the trace's lock, which is re-entrant because ``compute`` may
        request other keys (``materialize`` asks for ``block_geometry``).
        A hit takes no lock.
        """
        value = self._derived.get(key)
        if value is not None or compute is None:
            return value
        with self._derive_lock:
            value = self._derived.get(key)
            if value is None:
                value = compute(self)
                for item in (value,
                             *(value if isinstance(value, tuple) else ()),
                             *getattr(value, "__dict__", {}).values()):
                    if isinstance(item, np.ndarray):
                        item.setflags(write=False)
                self._derived[key] = value
        return value

    # -- sizes ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of basic-block executions."""
        return len(self.starts)

    @property
    def instruction_count(self) -> int:
        """Total dynamic instruction count (denominator of misp/KI)."""
        return int(self.num_instructions.sum(dtype=np.int64))

    @property
    def conditional_count(self) -> int:
        """Number of dynamic conditional branches."""
        return int((self.kinds == TerminatorKind.CONDITIONAL).sum())

    # -- views ---------------------------------------------------------------

    def branches(self) -> tuple[list[int], list[bool]]:
        """Return ``(pcs, outcomes)`` for all dynamic conditional branches,
        as plain Python lists (fast to iterate in the simulation loop)."""
        from repro.traces.fetch import block_geometry  # fetch builds on us
        pcs, takens, _, _ = block_geometry(self)
        return pcs.tolist(), takens.tolist()

    def blocks(self):
        """Iterate :class:`BlockExecution` objects (slow path, for tests and
        fetch-block construction)."""
        kind_values = [TerminatorKind(k) for k in (0, 1, 2, 3, 4)]
        for start, n, kind, taken, nxt in zip(
                self.starts, self.num_instructions, self.kinds, self.takens,
                self.next_starts):
            yield BlockExecution(int(start), int(n), kind_values[kind],
                                 bool(taken), int(nxt))

    def static_conditional_pcs(self) -> set[int]:
        """The set of static conditional branch PCs exercised by the trace."""
        pcs, _ = self.branches()
        return set(pcs)

    def taken_rate(self) -> float:
        """Fraction of dynamic conditional branches that are taken."""
        cond = self.kinds == TerminatorKind.CONDITIONAL
        total = int(cond.sum())
        if total == 0:
            return 0.0
        return float(self.takens[cond].sum()) / total

    def slice(self, num_blocks: int, name: str | None = None) -> "Trace":
        """Return a prefix of the trace with at most ``num_blocks`` blocks."""
        n = min(num_blocks, len(self))
        return Trace(name or self.name, self.starts[:n],
                     self.num_instructions[:n], self.kinds[:n],
                     self.takens[:n], self.next_starts[:n])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace({self.name!r}, blocks={len(self)}, "
                f"instructions={self.instruction_count}, "
                f"cond_branches={self.conditional_count})")


@dataclass
class TraceBuilder:
    """Incrementally accumulate block executions, then freeze into a
    :class:`Trace`.

    >>> builder = TraceBuilder("demo")
    >>> builder.add(0x1000, 3, TerminatorKind.CONDITIONAL, True, 0x2000)
    >>> builder.add(0x2000, 1, TerminatorKind.JUMP, True, 0x1000)
    >>> trace = builder.build()
    >>> trace.conditional_count, trace.instruction_count
    (1, 4)
    """

    name: str
    starts: list[int] = field(default_factory=list)
    num_instructions: list[int] = field(default_factory=list)
    kinds: list[int] = field(default_factory=list)
    takens: list[bool] = field(default_factory=list)
    next_starts: list[int] = field(default_factory=list)

    def add(self, start: int, num_instructions: int, kind: TerminatorKind,
            taken: bool, next_start: int) -> None:
        """Append one block execution."""
        if not 1 <= num_instructions <= MAX_BLOCK_INSTRUCTIONS:
            raise count_error(num_instructions)
        if kind not in _KINDS:
            raise _kind_error(kind)
        if start % INSTRUCTION_BYTES:
            raise ValueError(f"block start {start:#x} is not instruction-aligned")
        self.starts.append(start)
        self.num_instructions.append(num_instructions)
        self.kinds.append(int(kind))
        self.takens.append(taken)
        self.next_starts.append(next_start)

    def __len__(self) -> int:
        return len(self.starts)

    def build(self) -> Trace:
        """Freeze into an immutable :class:`Trace`.

        Re-applies :meth:`add`'s checks over whole columns (the counts and
        kinds in :class:`Trace` itself), for writers (the Python program
        executor) that append to them directly."""
        starts = np.array(self.starts, dtype=np.uint64)
        misaligned = np.flatnonzero(starts % INSTRUCTION_BYTES)
        if len(misaligned):
            raise ValueError(f"block start {int(starts[misaligned[0]]):#x} "
                             "is not instruction-aligned")
        return Trace(
            self.name,
            starts,
            np.array(self.num_instructions, dtype=np.int64),
            np.array(self.kinds, dtype=np.int64),
            np.array(self.takens, dtype=np.bool_),
            np.array(self.next_starts, dtype=np.uint64),
        )
