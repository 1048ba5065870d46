"""EV8 fetch-block construction.

Section 2 of the paper defines the fetch block: *"An instruction fetch block
consists of all consecutive valid instructions fetched from the I-cache: an
instruction fetch block ends either at the end of an aligned 8-instruction
block or on a taken control flow instruction. Not taken conditional branches
do not end a fetch block, thus up to 16 conditional branches may be fetched
and predicted in every cycle"* (two blocks per cycle, up to 8 conditional
branches each).

This module turns a :class:`~repro.traces.model.Trace` (a stream of
basic-block executions) into the stream of fetch blocks the EV8 front end
would see.  The fetch-block stream is what drives:

* lghist construction (one history bit per fetch block, Section 5.1),
* the three-fetch-blocks-old history delay (Section 5.1),
* path information from the previous fetch blocks (Section 5.2),
* bank-number computation (Section 6.2),
* per-slot unshuffle indexing (PC bits 4..2, Section 7.1).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.traces.model import (
    INSTRUCTION_BYTES,
    TerminatorKind,
    Trace,
)

__all__ = ["FETCH_BLOCK_INSTRUCTIONS", "FETCH_BLOCK_BYTES", "FetchBlock",
           "build_fetch_blocks", "fetch_blocks_for", "block_geometry"]

FETCH_BLOCK_INSTRUCTIONS = 8
"""Maximum instructions per fetch block."""

FETCH_BLOCK_BYTES = FETCH_BLOCK_INSTRUCTIONS * INSTRUCTION_BYTES
"""Fetch blocks never cross an aligned 32-byte boundary."""


class FetchBlock:
    """One dynamic fetch block.

    Attributes
    ----------
    start:
        Address of the first instruction.  This is the "fetch block address"
        ``A`` used by the index functions (Section 7).
    num_instructions:
        Number of instructions in the block (1..8).
    branch_pcs / branch_outcomes:
        Parallel lists describing the conditional branches inside the block,
        in fetch order.  Up to 8 entries; possibly empty.
    ended_taken:
        ``True`` if the block ended on a taken control-flow instruction
        (conditional or unconditional); ``False`` if it ended at an aligned
        8-instruction boundary or at end of trace.
    """

    __slots__ = ("start", "num_instructions", "branch_pcs", "branch_outcomes",
                 "ended_taken")

    def __init__(self, start: int, num_instructions: int,
                 branch_pcs: list[int], branch_outcomes: list[bool],
                 ended_taken: bool) -> None:
        self.start = start
        self.num_instructions = num_instructions
        self.branch_pcs = branch_pcs
        self.branch_outcomes = branch_outcomes
        self.ended_taken = ended_taken

    @property
    def end(self) -> int:
        """Address one past the last instruction."""
        return self.start + self.num_instructions * INSTRUCTION_BYTES

    @property
    def has_conditional(self) -> bool:
        """Whether the block contains at least one conditional branch (only
        such blocks insert an lghist bit, Section 5.1)."""
        return bool(self.branch_pcs)

    @property
    def last_branch_pc(self) -> int:
        """PC of the last conditional branch (requires ``has_conditional``)."""
        return self.branch_pcs[-1]

    @property
    def last_branch_outcome(self) -> bool:
        """Outcome of the last conditional branch (requires
        ``has_conditional``)."""
        return self.branch_outcomes[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FetchBlock(start={self.start:#x}, n={self.num_instructions}, "
                f"branches={len(self.branch_pcs)}, ended_taken={self.ended_taken})")


def build_fetch_blocks(trace: Trace) -> list[FetchBlock]:
    """Chunk a basic-block execution trace into EV8 fetch blocks.

    The basic-block stream is contiguous in the address space except across
    taken control transfers, so fetch blocks are formed by splitting the
    instruction address stream at (a) aligned 32-byte boundaries and (b)
    taken terminators.
    """
    blocks_out: list[FetchBlock] = []
    fb_start: int | None = None
    branch_pcs: list[int] = []
    branch_outcomes: list[bool] = []

    conditional = int(TerminatorKind.CONDITIONAL)
    fallthrough = int(TerminatorKind.FALLTHROUGH)

    append_out = blocks_out.append
    for start, n, kind, taken in zip(trace.starts.tolist(),
                                     trace.num_instructions.tolist(),
                                     trace.kinds.tolist(),
                                     trace.takens.tolist()):
        end = start + n * INSTRUCTION_BYTES
        terminator_taken = (taken if kind == conditional
                            else kind != fallthrough)
        pos = start
        while pos < end:
            if fb_start is None:
                fb_start = pos
            boundary = (pos & ~(FETCH_BLOCK_BYTES - 1)) + FETCH_BLOCK_BYTES
            chunk_end = boundary if boundary < end else end
            holds_terminator = chunk_end == end
            if holds_terminator and kind == conditional:
                branch_pcs.append(end - INSTRUCTION_BYTES)
                branch_outcomes.append(taken)
            ends_taken = holds_terminator and terminator_taken
            pos = chunk_end
            if ends_taken or chunk_end == boundary:
                append_out(FetchBlock(
                    fb_start,
                    (pos - fb_start) // INSTRUCTION_BYTES,
                    branch_pcs, branch_outcomes, ends_taken))
                fb_start = None
                branch_pcs = []
                branch_outcomes = []

    if fb_start is not None:
        # Flush the trailing partial block at end of trace.
        append_out(FetchBlock(fb_start, (pos - fb_start) // INSTRUCTION_BYTES,
                              branch_pcs, branch_outcomes, False))
    return blocks_out


def fetch_blocks_for(trace: Trace) -> list[FetchBlock]:
    """Memoised :func:`build_fetch_blocks` — fetch-block construction is pure
    and every block-granular experiment on the same trace reuses the result."""
    return trace.derived("fetch_blocks", build_fetch_blocks)


def _geometry_from_blocks(trace: Trace) -> tuple[np.ndarray, ...]:
    """:func:`block_geometry` by walking the fetch-block objects."""
    blocks = fetch_blocks_for(trace)
    return (np.array([pc for b in blocks for pc in b.branch_pcs], np.uint64),
            np.array([t for b in blocks for t in b.branch_outcomes], np.bool_),
            np.array([k for k, b in enumerate(blocks) for _ in b.branch_pcs],
                     np.int64),
            np.array([b.start for b in blocks], np.uint64))


def _compute_block_geometry(trace: Trace) -> tuple[np.ndarray, ...]:
    """:func:`block_geometry` by the compiled walk (``fetch_geometry`` in
    ``kernels/replay.c``, a port of :func:`build_fetch_blocks` that counts
    blocks and branches in one pass and fills the columns in a second), or
    by :func:`_geometry_from_blocks` when the compiled tier is
    unavailable."""
    if not kernels.available():
        return _geometry_from_blocks(trace)
    walk = kernels.require().fetch_geometry
    columns = [kernels.stream(column, dtype)
               for column, dtype in ((trace.starts, np.uint64),
                                     (trace.num_instructions, np.uint16),
                                     (trace.kinds, np.uint8),
                                     (trace.takens, np.bool_))]
    records = [column.ctypes.data for column in columns]
    sizes = np.zeros(2, dtype=np.int64)
    walk(len(trace), *records, 0, sizes.ctypes.data, None, None, None, None)
    blocks, branches = sizes.tolist()
    geometry = (np.empty(branches, np.uint64), np.empty(branches, np.bool_),
                np.empty(branches, np.int64), np.empty(blocks, np.uint64))
    walk(len(trace), *records, 1, sizes.ctypes.data,
         *(column.ctypes.data for column in geometry))
    return geometry


def block_geometry(trace: Trace) -> tuple[np.ndarray, ...]:
    """A trace's fetch blocks as read-only columns, in fetch order:
    ``(branch_pcs, takens, ordinals, block_starts)``, the first three per
    conditional branch (``ordinals`` indexes its fetch block), the last per
    fetch block.  Memoised on the trace: Table 2's statistics and every
    provider that materializes the trace share one computation."""
    return trace.derived("block_geometry", _compute_block_geometry)
