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

import numpy as np

from repro import kernels
from repro.history.lghist import LghistRegister
from repro.history.registers import GlobalHistoryRegister, PathRegister
from repro.obs import get_telemetry
from repro.traces.fetch import FetchBlock, block_geometry
from repro.traces.model import Trace

__all__ = ["InfoVector", "VectorBatch", "HistoryProvider",
           "BranchGhistProvider", "BlockLghistProvider", "ev8_info_provider"]


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

        Returns ``None`` when this provider cannot materialize or the
        compiled tier is missing (the batched engine then falls back to the
        scalar path).  Materialization starts from reset register state,
        matching a fresh provider instance.  Batches are memoised on the
        trace under :meth:`plane_key`, so sweeps (many predictors, one
        trace) pay the walk once.
        """
        key = self.plane_key()
        if key is None or not kernels.available():
            return None
        return trace.derived(key, self._computed_batch)

    def _computed_batch(self, trace: Trace) -> VectorBatch:
        # Orchestration accounting, not simulation semantics: counted in
        # the process-global sink, never in the engine's per-run sink, so
        # serial and parallel sweeps merge identical counters (scope one
        # with ``use_telemetry``).
        sink = get_telemetry(None)
        if sink.enabled:
            sink.count("provider.materialize_computed")
        return self._batch(trace)

    def plane_key(self) -> tuple | None:
        """Hashable configuration key for a materialized batch.

        A materialized batch is a pure function of (trace, this key), so
        :meth:`materialize` memoises it on the trace under this key.  ``None``
        means this provider cannot materialize at all (histories wider
        than a ``uint64`` column, or no vectorized walk).
        """
        return None

    def _batch(self, trace: Trace) -> VectorBatch:
        """The uncached columns behind :meth:`materialize` (called only
        with the compiled tier loaded and a non-``None`` plane key)."""
        raise NotImplementedError


def _block_columns(trace: Trace, depth: int,
                   banked: bool) -> tuple[np.ndarray | None, ...]:
    """Read-only ``(path, address, bank)`` columns per branch from its
    fetch-block ordinal (``block_columns`` in ``kernels/replay.c``):
    previous block starts, the branch's own block start and that block's
    bank number.  ``address`` and ``bank`` are ``None`` unless ``banked``.

    Memoised on the trace, the path rows under ``("block_columns",
    depth)`` and the banked columns (which no depth changes) under
    ``"block_banks"``, so every provider configuration reads the same
    arrays and the kernel builds each column once: one call builds
    whichever of them the request finds missing.  The banked columns are
    built only when a banked caller first asks, so a trace read only
    through per-branch ghist never holds them.
    """
    path_key = ("block_columns", depth)
    path = trace.derived(path_key)
    banks = trace.derived("block_banks") if banked else (None, None)
    if path is None or banks is None:
        _, _, ordinals, starts = block_geometry(trace)
        n = len(ordinals)
        new_path = (np.empty((depth, n), dtype=np.uint64) if path is None
                    else None)
        new_banks = ((np.empty(n, dtype=np.uint64),
                      np.empty(n, dtype=np.uint64)) if banks is None
                     else (None, None))
        kernels.require().block_columns(
            n, ordinals.ctypes.data, starts.ctypes.data,
            depth if path is None else 0,
            *(column.ctypes.data if column is not None else None
              for column in (new_path, *new_banks)))
        path = trace.derived(path_key, lambda _: new_path)
        if banks is None:
            banks = trace.derived("block_banks", lambda _: new_banks)
    return (path, *banks)


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
            return None  # histories no longer fit a uint64 column
        return ("ghist", self._history.capacity, self._path.depth)

    # Bound in the class itself so that each provider's materialize can
    # be wrapped on its own (perfbench's tracer times it per class).
    materialize = HistoryProvider.materialize

    def _batch(self, trace: Trace) -> VectorBatch:
        """Whole-trace ghist vectors, bit-identical to the scalar walk.

        Per-branch global history is a shift register of the previous
        outcomes (``ghist_history``); the path columns are previous
        fetch-block start addresses (:func:`_block_columns`).
        """
        pcs, takens, _, _ = block_geometry(trace)
        history = np.empty(len(pcs), dtype=np.uint64)
        kernels.require().ghist_history(len(pcs), takens.ctypes.data,
                                        self._history.capacity,
                                        history.ctypes.data)
        path, _, _ = _block_columns(trace, self._path.depth, banked=False)
        return VectorBatch(history=history, address=pcs, branch_pc=pcs,
                           path=path, takens=takens)


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
            return None  # histories no longer fit a uint64 column
        return ("lghist", register.include_path, register.delay_blocks,
                register.capacity, self._path.depth)

    materialize = HistoryProvider.materialize  # see BranchGhistProvider

    def _batch(self, trace: Trace) -> VectorBatch:
        """Whole-trace lghist vectors, bit-identical to the scalar walk.

        The history column is :class:`LghistRegister` walked over the
        branch-holding fetch blocks (``lghist_history``).  Path, address and
        bank columns are per-block values gathered per branch
        (:func:`_block_columns`).
        """
        register = self._lghist
        pcs, takens, ordinals, _ = block_geometry(trace)
        history = np.empty(len(pcs), dtype=np.uint64)
        kernels.require().lghist_history(
            len(pcs), pcs.ctypes.data, takens.ctypes.data, ordinals.ctypes.data,
            register.include_path, register.delay_blocks, register.capacity,
            history.ctypes.data)
        path, address, bank = _block_columns(trace, self._path.depth,
                                             banked=True)
        return VectorBatch(history=history, address=address, branch_pc=pcs,
                           path=path, takens=takens, bank=bank)


def ev8_info_provider(capacity: int = 64) -> BlockLghistProvider:
    """The EV8 information vector: three-fetch-blocks-old lghist including
    path bits, plus the addresses of the three most recent fetch blocks
    (Sections 5.1-5.2)."""
    return BlockLghistProvider(include_path=True, delay_blocks=3,
                               capacity=capacity, path_depth=3)
