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

from repro.history.lghist import PATH_BIT_POSITION, LghistRegister
from repro.history.registers import GlobalHistoryRegister, PathRegister
from repro.obs import get_telemetry
from repro.traces.fetch import FetchBlock, block_geometry
from repro.traces.model import Trace

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


def _windows(bits: np.ndarray, capacity: int) -> np.ndarray:
    """Running windows of a bit sequence: ``windows[k]`` packs ``bits[k]``
    in bit 0 (youngest), ``bits[k - 1]`` in bit 1, ... up to ``capacity``
    (<= 64) bits.  Log-doubling: after the pass with shift ``s`` a window
    holds ``2 s`` bits, so 64 bits take six passes."""
    windows = bits.astype(np.uint64)
    shift = 1
    while shift < capacity:
        windows[shift:] |= windows[:-shift] << np.uint64(shift)
        shift <<= 1
    if capacity < 64:
        windows &= np.uint64((1 << capacity) - 1)
    return windows


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
        outcomes (bit 0 youngest, :func:`_windows`); the path columns are
        previous fetch-block start addresses gathered from the block stream.
        """
        capacity = self._history.capacity
        if capacity > 64:
            return None  # histories no longer fit a uint64 column
        key = (capacity, self._path.depth)
        cached = _GHIST_BATCH_CACHE.setdefault(trace, {}).get(key)
        if cached is not None:
            return cached
        _count_materialize_computed()
        pcs, takens, ordinals, starts = block_geometry(trace)
        n = len(pcs)

        # Branch i sees the window that ends at branch i - 1.
        history = np.zeros(n, dtype=np.uint64)
        history[1:] = _windows(takens[:-1], capacity)

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
        sequence into running uint64 windows (:func:`_windows`), and gather
        each block's window by *counting* (via ``searchsorted``) how many
        inserting blocks precede its visibility horizon.  Path columns and
        the front-end bank stream are per-block gathers, shared by every
        branch of the block and by every cached configuration of the same
        path depth.
        """
        register = self._lghist
        if register.capacity > 64:
            return None  # histories no longer fit a uint64 column
        key = (register.include_path, register.delay_blocks,
               register.capacity, self._path.depth)
        per_trace = _LGHIST_BATCH_CACHE.setdefault(trace, {})
        cached = per_trace.get(key)
        if cached is not None:
            return cached
        _count_materialize_computed()
        pcs, takens, ordinals, starts = block_geometry(trace)
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
            bits ^= (pcs[is_last] >> np.uint64(PATH_BIT_POSITION)) \
                & np.uint64(1)

        # windows[k] = packed history after the first k inserted bits.
        windows = np.zeros(len(bits) + 1, dtype=np.uint64)
        windows[1:] = _windows(bits, register.capacity)

        # Visible history per block: the window after the last bit whose
        # block has aged past the visibility horizon.
        visible_counts = np.searchsorted(
            bit_blocks, np.arange(num_blocks) - register.delay_blocks,
            side="left")
        history = windows[visible_counts[ordinals]]
        history.setflags(write=False)  # cached batches are shared
        sibling = next((other for (*_, depth), other in per_trace.items()
                        if depth == self._path.depth), None)
        if sibling is not None:
            address, path, bank = sibling.address, sibling.path, sibling.bank
        else:
            block_path = np.zeros((self._path.depth, num_blocks),
                                  dtype=np.uint64)
            for age in range(self._path.depth):
                block_path[age, age + 1:] = starts[:num_blocks - age - 1]
            from repro.ev8.banks import bank_numbers_vec
            address = starts[ordinals]
            path = block_path[:, ordinals]
            bank = bank_numbers_vec(starts).astype(np.uint64)[ordinals]
            for column in (address, path, bank):
                column.setflags(write=False)
        batch = VectorBatch(history=history, address=address, branch_pc=pcs,
                            path=path, takens=takens, bank=bank)
        per_trace[key] = batch
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
