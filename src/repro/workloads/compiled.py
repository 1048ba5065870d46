"""The compiled executor: :meth:`Program.run <repro.workloads.cfg.Program.run>`
walks the laid-out program in C (``executor.c``, built and cached by
:func:`repro.kernels.library`).

Python keeps everything that draws from numpy.  It flattens the program
into tables of int64 rows, which the C loop reads and, for the mutable
state, writes: one row per node, one per behaviour or dispatch node (its
"stream"), one per function, plus the dispatch CDFs, pattern and truth
tables, condition cells and per-branch occurrence counts.  Main is
flattened before the run and each function's body the first time it is
entered, since a trace typically runs only a few of a large program's
functions.

The C loop returns to Python only when it needs something it cannot make:
a stream opened (``_stream``, which runs ``_setup``) and its set-up
products written into the tables, a buffer of draws (``_fill``), a
function flattened, or room for more blocks or frames.  Each behaviour's
stream is private, and after ``_setup`` it yields only doubles, or only
normals for a jittered loop, so drawing them 32 ahead into a C-side buffer
(``random(out=...)``, ``normal(size=...)``) yields the values the Python
:class:`~repro.workloads.cfg.Executor` draws one by one, at the same
refill points.  When the run ends, each behaviour gets back its state and
its unused draws, so a later run continues exactly as after the Python
executor.

:func:`covers` decides, from the program alone, whether the C tables can
express it; :func:`run` returns ``None`` (and ``Program.run`` interprets
the program in Python) when they cannot or there is no compiler.
"""

from __future__ import annotations

import ctypes
import sys
from array import array
from pathlib import Path

import numpy as np

from repro import kernels
from repro.common.bitops import mask
from repro.traces.model import Trace, count_error
from repro.workloads import cfg
from repro.workloads.behaviors import (
    DRAWS_PER_REFILL,
    BiasedBehavior,
    ConditionFollowerBehavior,
    ConditionLeaderBehavior,
    GlobalCorrelatedBehavior,
    LocalCorrelatedBehavior,
    LoopBehavior,
    MarkovBehavior,
    PatternBehavior,
)
from repro.workloads.cfg import (
    CallNode,
    DispatchNode,
    Function,
    IfNode,
    LoopNode,
    Sequence,
    Straight,
)

__all__ = ["SOURCE", "covers", "run"]

SOURCE = Path(__file__).with_name("executor.c")
"""The C source of the executor."""

_SIGNATURES = (("execute", (ctypes.c_void_p,)),)

# Everything below mirrors executor.c.
NODE_W, STREAM_W, FUNC_W, FRAME_W = 10, 12, 3, 3
SLOT_DRAWS = 64
(ST_DONE, ST_DRAWS, ST_FUNCTION, ST_SPACE, ST_DEPTH, ST_LOOP_CAP,
 ST_IDLE) = range(7)
STRAIGHT, SEQUENCE, IF, LOOP, CALL, DISPATCH = range(6)
(S_KIND, S_OPENED, S_STATE, S_CELL, S_OFFSET, S_LENGTH, S_LAGS, S_SLOT,
 S_HEAD, S_COUNT, S_TOUCHED, S_TRIPS) = range(STREAM_W)
(BIASED, LEADER, FOLLOWER, LOOP_FIXED, LOOP_JITTERED, PATTERN, GLOBAL,
 LOCAL, MARKOV, DISPATCHER) = range(10)
_FIELDS = (
    "status request need blocks capacity branches max_branches max_blocks "
    "history depth frames_capacity main main_mark loop_cap bad_count "
    "has_bad nodes kids funcs streams cells occurrences lags frames params "
    "draws cdfs bytes starts counts kinds takens nexts").split()
"""The fields of ``run_t``, every one eight bytes."""
_FIELD = {name: index for index, name in enumerate(_FIELDS)}
STATUS, REQUEST, NEED = 0, 1, 2

_LIMIT = 2**62
"""Addresses and trip counts the int64 tables hold with room to spare."""

_BEHAVIOURS = frozenset({
    BiasedBehavior, ConditionLeaderBehavior, ConditionFollowerBehavior,
    PatternBehavior, GlobalCorrelatedBehavior, LocalCorrelatedBehavior,
    MarkovBehavior})
"""Behaviour types with a C row (:class:`LoopBehavior` has its own
check); a subclass, or any other type, runs in Python."""


def _loop_covered(loop: LoopBehavior) -> bool:
    """Whether a loop's trip counts fit the tables and its execution draws
    are all of one kind (a jittered loop with noise interleaves normals
    with doubles)."""
    if not (isinstance(loop._remaining, int) and loop._remaining < _LIMIT):
        return False
    if loop.trip_jitter <= 0.0:
        return isinstance(loop.mean_trips, int) and loop.mean_trips < _LIMIT
    # A normal draw stays within 64 spreads of the mean.
    return not loop.noise and (abs(loop.mean_trips) + 64 * loop._spread()
                               < _LIMIT)


def covers(program: cfg.Program) -> bool:
    """Whether the C tables express ``program``: every node and behaviour
    has a row type, every callee is one of its laid-out functions, and
    every address fits."""
    if program.code_base < 0 or program.code_end >= _LIMIT:
        return False
    functions = {id(function) for function in program.functions
                 if type(function) is Function}
    if len(functions) != len(program.functions):
        return False
    stack = [program.main]
    stack.extend(function.body for function in program.functions)
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Straight:
            continue
        if kind is Sequence:
            stack.extend(node.nodes)
        elif kind is IfNode or kind is LoopNode:
            behavior = node.branch.behavior
            if type(behavior) is LoopBehavior:
                if not _loop_covered(behavior):
                    return False
            elif type(behavior) not in _BEHAVIOURS:
                return False
            if kind is LoopNode:
                stack.append(node.body)
            else:
                stack.append(node.then_body)
                if node.else_body is not None:
                    stack.append(node.else_body)
        elif kind is CallNode:
            if id(node.callee) not in functions:
                return False
        elif kind is DispatchNode:
            if any(id(callee) not in functions for callee in node.callees):
                return False
        else:
            return False
    return True


def run(program: cfg.Program, max_branches: int,
        max_blocks: int | None) -> Trace | None:
    """Execute ``program`` in C, as :meth:`~repro.workloads.cfg.Program.run`
    does; ``None`` when the executor cannot build or does not cover the
    program (or a limit is not an integer)."""
    if not isinstance(max_branches, int) or not (
            max_blocks is None or isinstance(max_blocks, int)):
        return None
    lib = kernels.library(SOURCE, _SIGNATURES)
    if lib is None or not covers(program):
        return None
    return _Run(program, max_branches, max_blocks).execute(lib)


def _address(buffer) -> int:
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    return buffer.__array_interface__["data"][0]


class _Run:
    """One execution: the flattened tables, the Python objects behind their
    rows, and the trace columns."""

    def __init__(self, program: cfg.Program, max_branches: int,
                 max_blocks: int | None) -> None:
        self.program = program
        self.nodes, self.kids, self.funcs = array("q"), array("q"), array("q")
        self.streams, self.params = array("q"), array("d")
        self.cells, self.occurrences = array("q"), array("q")
        self.lags, self.cdfs, self.bytes = array("q"), array("d"), array("B")
        self.frames = array("q", bytes(8 * FRAME_W * 64))
        self.draws = np.empty((16, SLOT_DRAWS))
        self.slots = 0
        self.owners: list = []  # stream row -> behaviour or dispatch node
        self.stream_rows: dict[int, int] = {}
        self.functions: list[Function] = []
        self.function_rows: dict[int, int] = {}
        self.cell_rows: dict[int, int] = {}
        self.occurrence_rows: dict = {}
        capacity = min(2 * max_branches + 64, 1 << 20)
        if max_blocks is not None:
            capacity = max(1, min(capacity, max_blocks))
        self.columns = self._columns(capacity)
        self.ctl = array("q", bytes(8 * len(_FIELDS)))
        ctl, field = self.ctl, _FIELD
        ctl[field["capacity"]] = capacity
        ctl[field["max_branches"]] = min(max_branches, _LIMIT)
        ctl[field["max_blocks"]] = (_LIMIT if max_blocks is None
                                    else max(-_LIMIT, min(max_blocks, _LIMIT)))
        ctl[field["frames_capacity"]] = 64
        ctl[field["main_mark"]] = -1
        ctl[field["loop_cap"]] = cfg._LOOP_ITERATION_CAP
        ctl[field["main"]] = self._node(program.main)

    # -- flattening --------------------------------------------------------

    def _node(self, node) -> int:
        """Append ``node``'s row (and its subtree's, up to function
        bodies); return its row."""
        kind = type(node)
        if kind is Straight:
            row = (STRAIGHT, node.start, node.n, 0, 0, 0, 0, 0, 0, 0)
        elif kind is Sequence:
            children = [self._node(child) for child in node.nodes]
            row = (SEQUENCE, 0, len(self.kids), len(children), 0, 0, 0, 0,
                   0, 0)
            self.kids.extend(children)
        elif kind is IfNode:
            then = self._node(node.then_body)
            other = (-1 if node.else_body is None
                     else self._node(node.else_body))
            branch = node.branch
            row = (IF, node.start, node.lead + 1,
                   self._stream(branch.behavior),
                   self._occurrence(branch.branch_id), then, other,
                   node._then_start, node._else_start, node._join)
        elif kind is LoopNode:
            body = self._node(node.body)
            branch = node.branch
            row = (LOOP, node.start, node.lead,
                   self._stream(branch.behavior),
                   self._occurrence(branch.branch_id), body,
                   node._latch_start, node._exit,
                   type(branch.behavior) is LoopBehavior, 0)
        elif kind is CallNode:
            row = (CALL, node.start, self._function(node.callee), 0, 0, 0, 0,
                   0, 0, 0)
        else:  # DispatchNode: covers() admits nothing else
            callees = [self._function(callee) for callee in node.callees]
            row = (DISPATCH, node.start, self._stream(node), len(self.kids),
                   len(callees), len(self.cdfs), 0, 0, 0, 0)
            self.kids.extend(callees)
            for cdf in node._cdfs:
                self.cdfs.extend(cdf)
        self.nodes.extend(row)
        return len(self.nodes) // NODE_W - 1

    def _function(self, function: Function) -> int:
        row = self.function_rows.get(id(function))
        if row is None:
            row = self.function_rows[id(function)] = len(self.functions)
            self.functions.append(function)
            self.funcs.extend((function.entry, function._return_pc, -1))
        return row

    def _body(self, row: int) -> None:
        """Flatten a function's body, the first time the C loop enters
        it."""
        self.funcs[row * FUNC_W + 2] = self._node(self.functions[row].body)

    def _occurrence(self, branch_id) -> int:
        row = self.occurrence_rows.get(branch_id)
        if row is None:
            row = self.occurrence_rows[branch_id] = len(self.occurrences)
            self.occurrences.append(0)
        return row

    def _cell(self, cell) -> int:
        row = self.cell_rows.get(id(cell))
        if row is None:
            row = self.cell_rows[id(cell)] = len(self.cells)
            self.cells.append(bool(cell.value))
        return row

    def _stream(self, owner) -> int:
        """The stream row of a behaviour or dispatch node, appended on
        first sight."""
        row = self.stream_rows.get(id(owner))
        if row is not None:
            return row
        row = self.stream_rows[id(owner)] = len(self.owners)
        self.owners.append(owner)
        kind = type(owner)
        state = cell = offset = length = lags = trips = 0
        p = p2 = noise = 0.0
        if kind is DispatchNode:
            code, state = DISPATCHER, owner._state
        else:
            noise = owner.noise
            if kind is BiasedBehavior:
                code, p = BIASED, owner.p_taken
            elif kind is ConditionLeaderBehavior:
                code, p, cell = LEADER, owner.p_taken, self._cell(owner.cell)
            elif kind is ConditionFollowerBehavior:
                code, cell = FOLLOWER, self._cell(owner.cell)
                state = -1 if owner._invert is None else owner._invert
            elif kind is LoopBehavior:
                state = owner._remaining
                if owner.trip_jitter <= 0.0:
                    code, trips = LOOP_FIXED, owner.mean_trips
                else:
                    code = LOOP_JITTERED
            elif kind is MarkovBehavior:
                code, state = MARKOV, owner._state
                p, p2 = owner.p_stay_taken, owner.p_stay_not_taken
            elif kind is PatternBehavior:
                code, offset = PATTERN, len(self.bytes)
                length = len(owner.pattern)
                self.bytes.extend(owner.pattern)
            else:
                offset = len(self.bytes)
                if kind is GlobalCorrelatedBehavior:
                    code, length = GLOBAL, len(owner.lags)
                    lags = len(self.lags)
                    self.lags.extend(owner.lags)
                else:
                    code, length = LOCAL, owner.depth
                    state = owner._self_history & mask(length)
                self.bytes.extend(bytes(1 << length))
        self.streams.extend((code, 0, state, cell, offset, length, lags, -1,
                             0, 0, 0, trips))
        self.params.extend((p, p2, noise))
        if owner._rng is not None:
            self._opened(row, owner)
            buffered = list(owner._draws)
            if buffered:
                slot = self._slot(row)
                self.draws[slot, :len(buffered)] = buffered
                self.streams[row * STREAM_W + S_COUNT] = len(buffered)
        return row

    def _opened(self, row: int, owner) -> None:
        """Copy a just-opened stream's set-up products into its row."""
        base = row * STREAM_W
        code = self.streams[base + S_KIND]
        if code == GLOBAL or code == LOCAL:
            offset = self.streams[base + S_OFFSET]
            self.bytes[offset:offset + len(owner._table)] = array(
                "B", owner._table)
        elif code == MARKOV:
            self.streams[base + S_STATE] = owner._state
        elif code == FOLLOWER:
            self.streams[base + S_STATE] = owner._invert
        self.streams[base + S_OPENED] = 1

    def _slot(self, row: int) -> int:
        """Give a stream a draw buffer."""
        slot = self.slots
        self.slots += 1
        if slot == len(self.draws):
            grown = np.empty((2 * slot, SLOT_DRAWS))
            grown[:slot] = self.draws
            self.draws = grown
            self.ctl[_FIELD["draws"]] = _address(grown)
        self.streams[row * STREAM_W + S_SLOT] = slot
        return slot

    # -- requests ----------------------------------------------------------

    def _serve(self, row: int, need: int) -> None:
        """Open stream ``row`` and make it hold at least ``need`` draws."""
        owner = self.owners[row]
        base = row * STREAM_W
        streams = self.streams
        if not streams[base + S_OPENED]:
            owner._stream()
            self._opened(row, owner)
        count = streams[base + S_COUNT]
        if count < need:
            slot = streams[base + S_SLOT]
            if slot < 0:
                slot = self._slot(row)
            owner._fill(self.draws[slot, count:count + DRAWS_PER_REFILL])
            streams[base + S_COUNT] = count + DRAWS_PER_REFILL

    @staticmethod
    def _columns(capacity: int) -> list[np.ndarray]:
        return [np.empty(capacity, dtype) for dtype in (
            np.uint64, np.uint16, np.uint8, np.bool_, np.uint64)]

    def _grow_columns(self) -> None:
        blocks = self.ctl[_FIELD["blocks"]]
        grown = self._columns(2 * len(self.columns[0]))
        for old, new in zip(self.columns, grown):
            new[:blocks] = old[:blocks]
        self.columns = grown
        self.ctl[_FIELD["capacity"]] = len(grown[0])

    def _grow_frames(self) -> None:
        capacity = len(self.frames) // FRAME_W
        if capacity >= sys.getrecursionlimit():
            raise RecursionError(
                f"program {self.program.name!r} nests deeper than the "
                f"recursion limit ({capacity} frames)")
        self.frames.extend(bytes(8 * FRAME_W * capacity))
        self.ctl[_FIELD["frames_capacity"]] = 2 * capacity

    def _point(self) -> None:
        """Tell the C loop where every table lives now."""
        ctl = self.ctl
        for name in ("nodes", "kids", "funcs", "streams", "cells",
                     "occurrences", "lags", "frames", "params", "draws",
                     "cdfs", "bytes"):
            ctl[_FIELD[name]] = _address(getattr(self, name))
        for name, column in zip(("starts", "counts", "kinds", "takens",
                                 "nexts"), self.columns):
            ctl[_FIELD[name]] = _address(column)

    # -- the run -----------------------------------------------------------

    def execute(self, lib) -> Trace:
        ctl = self.ctl
        call, address = lib.execute, ctl.buffer_info()[0]
        self._point()
        try:
            while True:
                call(address)
                status = ctl[STATUS]
                if status == ST_DONE:
                    break
                if status == ST_DRAWS:
                    self._serve(ctl[REQUEST], ctl[NEED])
                    continue
                if status == ST_FUNCTION:
                    self._body(ctl[REQUEST])
                elif status == ST_SPACE:
                    self._grow_columns()
                elif status == ST_DEPTH:
                    self._grow_frames()
                elif status == ST_LOOP_CAP:
                    start = self.nodes[ctl[REQUEST] * NODE_W + 1]
                    raise RuntimeError(
                        f"loop at {start:#x} exceeded "
                        f"{ctl[_FIELD['loop_cap']]} iterations")
                else:
                    raise RuntimeError(
                        f"program {self.program.name!r}: a whole pass over "
                        "main emitted no block, so it would never stop")
                self._point()
        finally:
            self._write_back()
        if ctl[_FIELD["has_bad"]]:
            raise count_error(ctl[_FIELD["bad_count"]])
        blocks = ctl[_FIELD["blocks"]]
        return Trace(self.program.name,
                     *(column[:blocks].copy() for column in self.columns))

    def _write_back(self) -> None:
        """Hand every stream that ran its state and its unused draws."""
        rows = np.frombuffer(self.streams, dtype=np.int64).reshape(
            -1, STREAM_W)
        used = np.flatnonzero(rows[:, S_TOUCHED] | (rows[:, S_SLOT] >= 0))
        for index, row in zip(used.tolist(), rows[used].tolist()):
            owner = self.owners[index]
            code, state = row[S_KIND], row[S_STATE]
            if row[S_TOUCHED]:
                if code == LOOP_FIXED or code == LOOP_JITTERED:
                    owner._remaining = state
                elif code == MARKOV:
                    owner._state = bool(state)
                elif code == LOCAL:
                    owner._self_history = state
                elif code == DISPATCHER:
                    owner._state = state
                elif code == LEADER:
                    owner.cell.value = bool(self.cells[row[S_CELL]])
            if row[S_SLOT] >= 0:
                head = row[S_HEAD]
                owner._draws = iter(self.draws[
                    row[S_SLOT], head:head + row[S_COUNT]].tolist())
