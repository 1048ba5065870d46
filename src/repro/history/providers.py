"""Information-vector providers: what the predictor is indexed with.

Fig 7 of the paper compares five information vectors on the same 4x64K
2Bc-gskew predictor:

* ``ghist`` — conventional per-branch global history,
* ``lghist, no path`` — block-compressed history without the path bit,
* ``lghist + path`` — block-compressed history with the path bit,
* ``3-old lghist`` — the same, three fetch blocks old,
* ``EV8 info vector`` — 3-old lghist + the addresses of the three most
  recent fetch blocks.

A provider walks the fetch-block stream and hands the simulation driver one
:class:`InfoVector` per conditional branch; swapping providers (with the
predictor held fixed) reproduces the Fig 7 axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from repro.history.lghist import LghistRegister
from repro.history.registers import GlobalHistoryRegister, PathRegister
from repro.obs import get_telemetry
from repro.traces.fetch import FETCH_BLOCK_BYTES, FetchBlock, fetch_blocks_for
from repro.traces.model import INSTRUCTION_BYTES, TerminatorKind, Trace

__all__ = ["InfoVector", "VectorBatch", "HistoryProvider",
           "BranchGhistProvider", "BlockLghistProvider", "ev8_info_provider",
           "seed_plane_cache"]


class InfoVector:
    """Everything a predictor may be indexed with for one prediction.

    Attributes
    ----------
    history:
        Global history bits (bit 0 youngest); each predictor table masks or
        folds the length it uses.
    address:
        The fetch-block address (block-granular providers) or the branch PC
        (per-branch providers) — the paper's ``A``.
    branch_pc:
        The predicted branch's own PC (supplies the in-block offset bits
        4..2 used by the unshuffle stage).
    path:
        Addresses of the most recent previous fetch blocks, youngest first —
        the paper's (Z, Y, X).
    bank:
        The fetch block's predictor bank number, computed by the front end
        a cycle ahead of the table read (Section 6.2, Fig 3).  Zero for
        providers that do not model banking.
    """

    __slots__ = ("history", "address", "branch_pc", "path", "bank")

    def __init__(self, history: int, address: int, branch_pc: int,
                 path: tuple[int, ...], bank: int = 0) -> None:
        self.history = history
        self.address = address
        self.branch_pc = branch_pc
        self.path = path
        self.bank = bank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"InfoVector(history={self.history:#x}, "
                f"address={self.address:#x}, branch_pc={self.branch_pc:#x}, "
                f"path={tuple(hex(p) for p in self.path)})")


@dataclass(frozen=True)
class VectorBatch:
    """A whole trace's information vectors as parallel numpy arrays.

    The columnar counterpart of a stream of :class:`InfoVector` objects, in
    branch-prediction order: row ``i`` holds exactly the fields the scalar
    driver would have passed to ``predictor.access`` for the ``i``-th
    conditional branch, plus that branch's architectural outcome.  Produced
    trace-side by :meth:`HistoryProvider.materialize` — global history is a
    pure function of earlier trace outcomes, so its apparent sequential
    dependence is resolved here, once, instead of inside the predictor loop.

    ``path`` is shaped ``(path_depth, n)`` with row 0 the youngest previous
    fetch-block address (the paper's Z, then Y, X ...).  ``bank`` is the
    front-end bank-number column (``None`` for providers that do not model
    banking, mirroring :class:`InfoVector`'s zero default).
    """

    history: np.ndarray
    address: np.ndarray
    branch_pc: np.ndarray
    path: np.ndarray
    takens: np.ndarray
    bank: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.branch_pc)

    @property
    def path_depth(self) -> int:
        return self.path.shape[0]


class HistoryProvider:
    """Base class: produces per-branch info vectors over a fetch-block
    stream.

    The driver calls :meth:`begin_block` (returning one vector per
    conditional branch in the block, in fetch order) and then
    :meth:`end_block` after the block's outcomes are architecturally known.
    """

    def begin_block(self, block: FetchBlock) -> list[InfoVector]:
        raise NotImplementedError

    def end_block(self, block: FetchBlock) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def materialize(self, trace: Trace) -> VectorBatch | None:
        """Bulk-produce the whole trace's vectors as a :class:`VectorBatch`.

        Returns ``None`` when this provider cannot materialize (the batched
        engine then falls back to the scalar path).  Materialization starts
        from reset register state, matching a fresh provider instance.
        """
        return None

    def plane_key(self) -> tuple | None:
        """Hashable configuration key for a materialized batch.

        A materialized batch is a pure function of (trace, this key), so a
        parallel sweep materializes it once in the calling process, ships
        it to the workers with the trace, and they adopt it into the
        module-level materialization caches via :func:`seed_plane_cache`.
        ``None`` means this provider's batches cannot be keyed (e.g. it
        cannot materialize at all), and workers materialize for themselves.
        """
        return None


def _branch_block_geometry_slow(trace: Trace):
    """Per-branch (pcs, outcomes, fetch-block ordinal) plus all fetch-block
    start addresses, extracted by walking the fetch-block objects."""
    branch_pcs: list[int] = []
    outcomes: list[bool] = []
    block_ordinal: list[int] = []
    blocks = fetch_blocks_for(trace)
    for ordinal, block in enumerate(blocks):
        branch_pcs.extend(block.branch_pcs)
        outcomes.extend(block.branch_outcomes)
        block_ordinal.extend([ordinal] * len(block.branch_pcs))
    return (np.array(branch_pcs, dtype=np.uint64),
            np.array(outcomes, dtype=np.bool_),
            np.array(block_ordinal, dtype=np.int64),
            np.array([block.start for block in blocks], dtype=np.uint64))


def _branch_block_geometry(trace: Trace):
    """Vectorized :func:`_branch_block_geometry_slow`.

    Relies on the invariant fetch-block construction itself documents: the
    basic-block stream is contiguous in the address space except across
    taken control transfers.  Then the address stream decomposes into
    contiguous *segments* delimited by taken terminators (and end of trace),
    and every fetch block within a segment is an aligned
    ``FETCH_BLOCK_BYTES`` chunk — so block counts, block start addresses and
    each branch's block ordinal are pure chunk arithmetic.  Returns ``None``
    if the invariant does not hold for this trace (the caller then walks the
    fetch blocks instead).
    """
    if len(trace) == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.bool_),
                np.empty(0, np.int64), np.empty(0, np.uint64))
    starts = trace.starts
    ends = starts + trace.num_instructions.astype(np.uint64) \
        * np.uint64(INSTRUCTION_BYTES)
    conditional = trace.kinds == int(TerminatorKind.CONDITIONAL)
    fallthrough = trace.kinds == int(TerminatorKind.FALLTHROUGH)
    terminator_taken = np.where(conditional, trace.takens, ~fallthrough)
    if bool(np.any(~terminator_taken[:-1] & (starts[1:] != ends[:-1]))):
        return None  # discontiguous not-taken boundary: invariant broken

    # Segment = maximal run of records ending at a taken terminator (or the
    # end of the trace).
    seg_last = terminator_taken.copy()
    seg_last[-1] = True
    seg_first = np.empty_like(seg_last)
    seg_first[0] = True
    seg_first[1:] = seg_last[:-1]
    segment_of_record = np.cumsum(seg_first) - 1
    seg_start = starts[seg_first]
    seg_end = ends[seg_last]

    # Chunk arithmetic: fetch blocks of a segment are its aligned chunks.
    chunk_shift = np.uint64(FETCH_BLOCK_BYTES.bit_length() - 1)
    first_chunk = seg_start >> chunk_shift
    last_chunk = (seg_end - np.uint64(1)) >> chunk_shift
    blocks_per_segment = (last_chunk - first_chunk + np.uint64(1)).astype(np.int64)
    block_base = np.zeros(len(blocks_per_segment), dtype=np.int64)
    np.cumsum(blocks_per_segment[:-1], out=block_base[1:])

    total_blocks = int(block_base[-1] + blocks_per_segment[-1])
    segment_of_block = np.repeat(np.arange(len(block_base)), blocks_per_segment)
    chunk_in_segment = np.arange(total_blocks) - block_base[segment_of_block]
    block_starts = (first_chunk[segment_of_block]
                    + chunk_in_segment.astype(np.uint64)) << chunk_shift
    np.copyto(block_starts, seg_start[segment_of_block],
              where=chunk_in_segment == 0)

    # One branch per conditional record: the terminator instruction.
    pcs = ends[conditional] - np.uint64(INSTRUCTION_BYTES)
    takens = trace.takens[conditional].copy()
    branch_segment = segment_of_record[conditional]
    ordinals = (block_base[branch_segment]
                + (pcs >> chunk_shift).astype(np.int64)
                - first_chunk[branch_segment].astype(np.int64))
    return pcs, takens, ordinals, block_starts


_GHIST_BATCH_CACHE: WeakKeyDictionary = WeakKeyDictionary()
"""Materialized ghist batches per trace, keyed by (capacity, path_depth).

Materialization is a pure function of the trace and those two parameters,
so sweeps (many predictors, one trace) pay the block walk once; the cached
columns are marked read-only because every consumer shares them.
"""


class BranchGhistProvider(HistoryProvider):
    """Conventional global history: one bit per branch, visible immediately
    (even between branches of the same fetch block).

    This is the "ghist" information vector — the idealised baseline the
    paper's Section 8.3 starts from.  The vector's ``address`` is the branch
    PC itself, as per-branch predictors are indexed.
    """

    def __init__(self, capacity: int = 64, path_depth: int = 3) -> None:
        self._history = GlobalHistoryRegister(capacity)
        self._path = PathRegister(path_depth)

    def begin_block(self, block: FetchBlock) -> list[InfoVector]:
        vectors = []
        path = self._path.as_tuple()
        for pc, outcome in zip(block.branch_pcs, block.branch_outcomes):
            vectors.append(InfoVector(self._history.value(), pc, pc, path))
            self._history.push(outcome)
        return vectors

    def end_block(self, block: FetchBlock) -> None:
        self._path.push(block.start)

    def reset(self) -> None:
        self._history.reset()
        self._path.reset()

    def plane_key(self) -> tuple | None:
        if self._history.capacity > 64:
            return None  # cannot materialize, so nothing to share
        return ("ghist", self._history.capacity, self._path.depth)

    def materialize(self, trace: Trace) -> VectorBatch | None:
        """Whole-trace ghist vectors, bit-identical to the scalar walk.

        Per-branch global history is the packed window of the previous
        outcomes (bit 0 youngest), built with one vectorized OR-shift pass
        per capacity bit; the path columns are previous fetch-block start
        addresses gathered from the block stream.
        """
        capacity = self._history.capacity
        if capacity > 64:
            return None  # histories no longer fit a uint64 column
        key = (capacity, self._path.depth)
        cached = _GHIST_BATCH_CACHE.setdefault(trace, {}).get(key)
        if cached is not None:
            return cached
        _count_materialize_computed()
        geometry = _branch_block_geometry(trace)
        if geometry is None:
            # Discontiguous not-taken record boundary: fall back to the
            # fetch-block walk, which defines the semantics in that case.
            pcs, takens, ordinals, starts = _branch_block_geometry_slow(trace)
        else:
            pcs, takens, ordinals, starts = geometry
        n = len(pcs)

        history = np.zeros(n, dtype=np.uint64)
        outcome_bits = takens.astype(np.uint64)
        for age in range(1, min(capacity, n) + 1):
            history[age:] |= outcome_bits[:-age] << np.uint64(age - 1)

        path = np.zeros((self._path.depth, n), dtype=np.uint64)
        for age in range(self._path.depth):
            source = ordinals - 1 - age
            valid = source >= 0
            path[age, valid] = starts[source[valid]]

        batch = VectorBatch(history=history, address=pcs, branch_pc=pcs,
                            path=path, takens=takens)
        for column in (history, pcs, path, takens):
            column.setflags(write=False)  # cached batches are shared
        _GHIST_BATCH_CACHE[trace][key] = batch
        return batch


class BlockLghistProvider(HistoryProvider):
    """Block-compressed lghist, optionally aged and with path information.

    All branches of a block share one vector value (they are predicted in
    the same access): history = the lghist register (aged by
    ``delay_blocks``), address = the fetch-block address, path = previous
    block addresses.
    """

    def __init__(self, include_path: bool = True, delay_blocks: int = 0,
                 capacity: int = 64, path_depth: int = 3) -> None:
        # Imported here to avoid a circular import (ev8 builds on history).
        from repro.ev8.banks import BankNumberGenerator
        self._lghist = LghistRegister(include_path=include_path,
                                      delay_blocks=delay_blocks,
                                      capacity=capacity)
        self._path = PathRegister(path_depth)
        self._banks = BankNumberGenerator()
        self._block_bank: int | None = None

    def begin_block(self, block: FetchBlock) -> list[InfoVector]:
        history = self._lghist.value()
        address = block.start
        path = self._path.as_tuple()
        bank = self._bank_for(block)
        return [InfoVector(history, address, pc, path, bank)
                for pc in block.branch_pcs]

    def _bank_for(self, block: FetchBlock) -> int:
        # Idempotent per block: the bank pipeline must advance exactly once
        # per fetch block, whether or not begin_block was consulted.
        if self._block_bank is None:
            self._block_bank = self._banks.next_bank(block.start)
        return self._block_bank

    def end_block(self, block: FetchBlock) -> None:
        self._bank_for(block)
        self._block_bank = None
        self._lghist.push_block(block)
        self._path.push(block.start)

    def reset(self) -> None:
        self._lghist.reset()
        self._path.reset()
        self._banks.reset()
        self._block_bank = None

    def plane_key(self) -> tuple | None:
        register = self._lghist
        if register.capacity > 64:
            return None  # cannot materialize, so nothing to share
        return ("lghist", register.include_path, register.delay_blocks,
                register.capacity, self._path.depth)

    def materialize(self, trace: Trace) -> VectorBatch | None:
        """Whole-trace lghist vectors, bit-identical to the scalar walk.

        The register semantics vectorize cleanly because lghist is a pure
        function of *which blocks inserted a bit* and *when those bits age
        in*: only the last conditional branch of a block inserts (outcome
        XOR PC bit 4 when ``include_path``), and the bit inserted by block
        ``j`` is visible when predicting block ``b`` iff
        ``j < b - delay_blocks`` (it must have left the ``delay_blocks``-deep
        pending pipeline before block ``b``'s read).  So: pack the insert-bit
        sequence into running uint64 windows with one OR-shift pass per
        capacity bit, and gather each block's window by *counting* (via
        ``searchsorted``) how many inserting blocks precede its visibility
        horizon.  Path columns and the front-end bank stream are per-block
        gathers, shared by every branch of the block.
        """
        register = self._lghist
        if register.capacity > 64:
            return None  # histories no longer fit a uint64 column
        key = (register.include_path, register.delay_blocks,
               register.capacity, self._path.depth)
        cached = _LGHIST_BATCH_CACHE.setdefault(trace, {}).get(key)
        if cached is not None:
            return cached
        _count_materialize_computed()
        geometry = _branch_block_geometry(trace)
        if geometry is None:
            pcs, takens, ordinals, starts = _branch_block_geometry_slow(trace)
        else:
            pcs, takens, ordinals, starts = geometry
        n = len(pcs)
        num_blocks = len(starts)

        # Insert-bit sequence: one bit per block that ends >= 1 conditional
        # branch, from that block's *last* branch.
        is_last = np.empty(n, dtype=np.bool_)
        if n:
            is_last[-1] = True
            is_last[:-1] = ordinals[1:] != ordinals[:-1]
        bit_blocks = ordinals[is_last]
        bits = takens[is_last].astype(np.uint64)
        if register.include_path:
            from repro.history.lghist import PATH_BIT_POSITION
            bits ^= (pcs[is_last] >> np.uint64(PATH_BIT_POSITION)) \
                & np.uint64(1)

        # windows[k] = packed history after the first k+1 inserted bits
        # (bit 0 youngest) — the OR-shift pass from the ghist materializer.
        num_bits = len(bits)
        windows = np.zeros(num_bits, dtype=np.uint64)
        for age in range(min(register.capacity, num_bits)):
            windows[age:] |= bits[:num_bits - age] << np.uint64(age)

        # Visible history per block: the window after the last bit whose
        # block has aged past the visibility horizon.
        visible_counts = np.searchsorted(
            bit_blocks, np.arange(num_blocks) - register.delay_blocks,
            side="left")
        block_history = np.zeros(num_blocks, dtype=np.uint64)
        has_bits = visible_counts > 0
        block_history[has_bits] = windows[visible_counts[has_bits] - 1]

        block_path = np.zeros((self._path.depth, num_blocks), dtype=np.uint64)
        for age in range(self._path.depth):
            block_path[age, age + 1:] = starts[:num_blocks - age - 1]
        from repro.ev8.banks import bank_numbers_vec
        block_bank = bank_numbers_vec(starts).astype(np.uint64)

        history = block_history[ordinals]
        address = starts[ordinals]
        path = block_path[:, ordinals]
        bank = block_bank[ordinals]
        batch = VectorBatch(history=history, address=address, branch_pc=pcs,
                            path=path, takens=takens, bank=bank)
        for column in (history, address, pcs, path, takens, bank):
            column.setflags(write=False)  # cached batches are shared
        _LGHIST_BATCH_CACHE[trace][key] = batch
        return batch


_LGHIST_BATCH_CACHE: WeakKeyDictionary = WeakKeyDictionary()
"""Materialized lghist batches per trace, keyed by (include_path,
delay_blocks, capacity, path_depth) — the full provider configuration."""


def _count_materialize_computed() -> None:
    """Record one *actual* materialization compute into the process-global
    telemetry sink (cache hits and :func:`seed_plane_cache` adoptions never
    reach here).

    The counter is orchestration accounting rather than simulation
    semantics, so it deliberately bypasses the engine's per-run sink: the
    sweep layer's serial == parallel merged-counter invariant covers the
    simulation namespaces, while ``provider.materialize_computed`` depends
    on which process did the work — tests wrap sweeps in
    :func:`repro.obs.use_telemetry` to observe it.
    """
    sink = get_telemetry(None)
    if sink.enabled:
        sink.count("provider.materialize_computed")


def seed_plane_cache(plane_key: tuple, trace: Trace, batch: VectorBatch) -> bool:
    """Adopt an externally materialized batch into the module-level cache.

    ``plane_key`` must be a key produced by
    :meth:`HistoryProvider.plane_key`; ``batch`` must hold the columns that
    materializing ``trace`` under that configuration would produce
    (``sweep_parallel`` guarantees this by construction: it ships each
    batch with the key of the provider that materialized it, next to the
    trace it came from).  Returns ``True`` if the batch was adopted,
    ``False`` if the key is unknown or the cache already holds an entry
    (an existing entry always wins — it was materialized locally and is
    bit-identical by the same purity argument).
    """
    if not plane_key:
        return False
    if plane_key[0] == "ghist":
        cache = _GHIST_BATCH_CACHE
    elif plane_key[0] == "lghist":
        cache = _LGHIST_BATCH_CACHE
    else:
        return False
    per_trace = cache.setdefault(trace, {})
    key = tuple(plane_key[1:])
    if key in per_trace:
        return False
    per_trace[key] = batch
    return True


def ev8_info_provider(capacity: int = 64) -> BlockLghistProvider:
    """The EV8 information vector: three-fetch-blocks-old lghist including
    path bits, plus the addresses of the three most recent fetch blocks
    (Sections 5.1-5.2)."""
    return BlockLghistProvider(include_path=True, delay_blocks=3,
                               capacity=capacity, path_depth=3)
