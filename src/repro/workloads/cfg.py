"""Synthetic programs: a structured control-flow representation that is laid
out in a realistic address space and *executed* to produce dynamic traces.

The paper's traces come from real Alpha binaries.  We replace them with
synthetic programs that preserve what the EV8 predictor actually observes:

* a contiguous code layout (functions laid out in sequence, conditional
  branches skipping forward over their bodies, loop back-edges branching
  backward) — so fetch blocks, PC bit patterns and path information are
  realistic;
* per-branch outcome behaviour drawn from
  :mod:`repro.workloads.behaviors`;
* a single architectural global-history register that correlated behaviours
  observe, exactly like real inter-branch correlation.

The program is a small AST (:class:`Straight`, :class:`IfNode`,
:class:`LoopNode`, :class:`CallNode`, :class:`Sequence`,
:class:`DispatchNode`) laid out once by :class:`Program` (address
assignment) and executed by :meth:`Program.run`: in C by
:mod:`repro.workloads.compiled` when it covers the program, otherwise by
the Python :class:`Executor`, which is also the reference the compiled
executor is tested against.

Layout conventions (matching compiler output for optimised code):

* ``IfNode``: the conditional branch jumps *forward over* the then-body when
  taken — optimised code favours not-taken forward branches (Section 5.1
  notes "highly optimized codes tend to exhibit less taken branches").
* ``LoopNode``: the conditional back-edge at the loop bottom is taken to
  continue — backward taken branches.
* ``CallNode`` / function return are unconditional jumps (the predictor only
  cares about the address stream they produce).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.common.bitops import mask
from repro.common.rng import choice_cdf
from repro.traces.model import (
    INSTRUCTION_BYTES,
    TerminatorKind,
    Trace,
    TraceBuilder,
)
from repro.workloads.behaviors import Behavior, LoopBehavior, PrivateStream

__all__ = [
    "StaticBranch",
    "Node",
    "Straight",
    "IfNode",
    "LoopNode",
    "CallNode",
    "DispatchNode",
    "Sequence",
    "Function",
    "Program",
    "Executor",
    "ExecutionLimit",
]

_HISTORY_BITS = 64
_HISTORY_MASK = mask(_HISTORY_BITS)

_FALLTHROUGH = int(TerminatorKind.FALLTHROUGH)
_CONDITIONAL = int(TerminatorKind.CONDITIONAL)
_JUMP = int(TerminatorKind.JUMP)
_CALL = int(TerminatorKind.CALL)
_RETURN = int(TerminatorKind.RETURN)

_LOOP_ITERATION_CAP = 1_000_000
"""Safety valve against a pathological behaviour never exiting a loop."""


@dataclass
class StaticBranch:
    """One static conditional branch: identity + behaviour + (post-layout)
    address."""

    branch_id: int
    behavior: Behavior
    pc: int = -1

    def resolved(self) -> bool:
        return self.pc >= 0


class Node:
    """Base class for program AST nodes.

    ``layout(address)`` assigns instruction addresses and returns the address
    just past the node.  ``execute(executor)`` emits the node's dynamic
    blocks.  ``static_branches()`` yields the conditional branches owned by
    the subtree.
    """

    def layout(self, address: int) -> int:
        raise NotImplementedError

    def execute(self, executor: "Executor") -> None:
        raise NotImplementedError

    def static_branches(self):
        return iter(())


class Straight(Node):
    """``n`` straight-line instructions with no terminator."""

    __slots__ = ("n", "start")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"instruction count must be non-negative, got {n}")
        self.n = n
        self.start = -1

    def layout(self, address: int) -> int:
        self.start = address
        return address + self.n * INSTRUCTION_BYTES

    def execute(self, executor: "Executor") -> None:
        if self.n:
            end = self.start + self.n * INSTRUCTION_BYTES
            executor.emit(self.start, self.n, _FALLTHROUGH, False, end)


class Sequence(Node):
    """A sequence of nodes laid out and executed in order."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Node]) -> None:
        self.nodes = nodes

    def layout(self, address: int) -> int:
        for node in self.nodes:
            address = node.layout(address)
        return address

    def execute(self, executor: "Executor") -> None:
        for node in self.nodes:
            node.execute(executor)

    def static_branches(self):
        return itertools.chain.from_iterable(
            node.static_branches() for node in self.nodes)


class IfNode(Node):
    """``lead`` instructions, a conditional branch, a then-body and an
    optional else-body.

    Taken means *skip the then-body* (forward branch).  With an else-body,
    the then-body ends with an unconditional jump over the else-body.
    """

    __slots__ = ("branch", "lead", "then_body", "else_body",
                 "start", "_then_start", "_else_start", "_join")

    def __init__(self, branch: StaticBranch, then_body: Node,
                 else_body: Node | None = None, lead: int = 1) -> None:
        if lead < 0:
            raise ValueError(f"lead instruction count must be >= 0, got {lead}")
        self.branch = branch
        self.lead = lead
        self.then_body = then_body
        self.else_body = else_body
        self.start = -1
        self._then_start = -1
        self._else_start = -1
        self._join = -1

    def layout(self, address: int) -> int:
        self.start = address
        # lead instructions then the branch itself.
        self.branch.pc = address + self.lead * INSTRUCTION_BYTES
        self._then_start = self.branch.pc + INSTRUCTION_BYTES
        address = self.then_body.layout(self._then_start)
        if self.else_body is not None:
            address += INSTRUCTION_BYTES  # jump over the else-body
            self._else_start = address
            address = self.else_body.layout(address)
        else:
            self._else_start = address
        self._join = address
        return address

    def execute(self, executor: "Executor") -> None:
        taken = executor.resolve(self.branch)
        target = self._else_start if taken else self._then_start
        executor.emit(self.start, self.lead + 1, _CONDITIONAL, taken, target)
        if taken:
            if self.else_body is not None:
                self.else_body.execute(executor)
        else:
            self.then_body.execute(executor)
            if self.else_body is not None:
                jump_pc = self._else_start - INSTRUCTION_BYTES
                executor.emit(jump_pc, 1, _JUMP, True, self._join)

    def static_branches(self):
        yield self.branch
        yield from self.then_body.static_branches()
        if self.else_body is not None:
            yield from self.else_body.static_branches()


class LoopNode(Node):
    """A bottom-tested loop: body, then ``lead`` latch instructions ending in
    a conditional back-edge (taken = iterate again)."""

    __slots__ = ("branch", "body", "lead", "start", "_latch_start", "_exit")

    def __init__(self, branch: StaticBranch, body: Node, lead: int = 1) -> None:
        if lead < 1:
            raise ValueError(f"the latch needs at least the branch itself, got lead={lead}")
        self.branch = branch
        self.body = body
        self.lead = lead
        self.start = -1
        self._latch_start = -1
        self._exit = -1

    def layout(self, address: int) -> int:
        self.start = address
        address = self.body.layout(address)
        self._latch_start = address
        self.branch.pc = address + (self.lead - 1) * INSTRUCTION_BYTES
        self._exit = self.branch.pc + INSTRUCTION_BYTES
        return self._exit

    def execute(self, executor: "Executor") -> None:
        behavior = self.branch.behavior
        if isinstance(behavior, LoopBehavior):
            behavior.enter()
        for _ in range(_LOOP_ITERATION_CAP):
            self.body.execute(executor)
            taken = executor.resolve(self.branch)
            target = self.start if taken else self._exit
            executor.emit(self._latch_start, self.lead, _CONDITIONAL, taken,
                          target)
            if not taken:
                return
        raise RuntimeError(
            f"loop at {self.start:#x} exceeded {_LOOP_ITERATION_CAP} iterations")

    def static_branches(self):
        yield self.branch
        yield from self.body.static_branches()


class CallNode(Node):
    """A direct call: jump to the callee, execute it, return here."""

    __slots__ = ("callee", "start")

    def __init__(self, callee: "Function") -> None:
        self.callee = callee
        self.start = -1

    def layout(self, address: int) -> int:
        self.start = address
        return address + INSTRUCTION_BYTES

    def execute(self, executor: "Executor") -> None:
        return_address = self.start + INSTRUCTION_BYTES
        executor.emit(self.start, 1, _CALL, True, self.callee.entry)
        self.callee.execute_body(executor, return_address, via_call=True)


class DispatchNode(Node, PrivateStream):
    """An indirect dispatch over a set of callees following a Markov chain.

    Models the outer phase structure of an integer program: an interpreter
    or driver loop invoking program regions in recurring sequences.  The
    chain (not IID choice) keeps the global history context stable enough
    for correlated behaviours — as in real code.  Each dispatch takes one
    double from a private stream, created on the first dispatch.
    """

    __slots__ = ("callees", "transition", "_cdfs", "_state", "start")

    def __init__(self, rng: np.random.Generator, callees: list["Function"],
                 transition: np.ndarray) -> None:
        if not callees:
            raise ValueError("dispatch needs at least one callee")
        transition = np.asarray(transition, dtype=np.float64)
        if transition.shape != (len(callees), len(callees)):
            raise ValueError(
                f"transition matrix shape {transition.shape} does not match "
                f"{len(callees)} callees")
        row_sums = transition.sum(axis=1)
        if not np.allclose(row_sums, 1.0):
            raise ValueError("transition matrix rows must sum to 1")
        self.callees = callees
        self.transition = transition
        self._cdfs = [choice_cdf(row) for row in transition]
        self._state = 0
        PrivateStream.__init__(self, rng)
        self.start = -1

    def layout(self, address: int) -> int:
        self.start = address
        return address + INSTRUCTION_BYTES

    def execute(self, executor: "Executor") -> None:
        callee = self.callees[self._state]
        # rng.choice(n, p=transition[state]), from the same single draw.
        self._state = bisect_right(self._cdfs[self._state], self._draw())
        # Threaded-interpreter dispatch: the handler is entered through an
        # indirect JUMP (not a call) and exits through an indirect jump
        # back to the dispatch instruction — the pattern that famously
        # defeats return-address stacks and jump tables in real
        # interpreters.
        executor.emit(self.start, 1, _JUMP, True, callee.entry)
        callee.execute_body(executor, self.start, via_call=False)


class Function:
    """A function: an entry address, a body, and a 1-instruction return jump."""

    __slots__ = ("name", "body", "entry", "_return_pc")

    def __init__(self, name: str, body: Node) -> None:
        self.name = name
        self.body = body
        self.entry = -1
        self._return_pc = -1

    def layout(self, address: int) -> int:
        self.entry = address
        address = self.body.layout(address)
        self._return_pc = address
        return address + INSTRUCTION_BYTES

    def execute_body(self, executor: "Executor", return_address: int,
                     via_call: bool = True) -> None:
        """Execute the body and transfer back to ``return_address``.

        ``via_call`` selects the exit flavour: a true RETURN (pops the
        hardware RAS) when the function was entered by a call, or an
        indirect JUMP when it was entered by a threaded dispatch."""
        self.body.execute(executor)
        kind = _RETURN if via_call else _JUMP
        executor.emit(self._return_pc, 1, kind, True, return_address)

    def static_branches(self):
        return self.body.static_branches()


class Program:
    """A laid-out synthetic program: functions plus a main dispatch loop.

    ``main`` is executed repeatedly until the requested trace length is
    reached.
    """

    def __init__(self, name: str, functions: list[Function], main: Node,
                 code_base: int = 0x1200_0000) -> None:
        if code_base % INSTRUCTION_BYTES:
            raise ValueError(f"code base {code_base:#x} is not instruction-aligned")
        self.name = name
        self.functions = functions
        self.main = main
        self.code_base = code_base
        self.code_end = self._layout()
        self._check_layout()

    def _layout(self) -> int:
        address = self.code_base
        for function in self.functions:
            address = function.layout(address)
            # Small inter-function padding, as linkers align entries.
            address = (address + 31) & ~31
        return self.main.layout(address)

    def _check_layout(self) -> None:
        unresolved = [branch.branch_id for branch in self.static_branches()
                      if not branch.resolved()]
        if unresolved:
            raise RuntimeError(
                f"layout left branches without addresses: {unresolved[:5]}...")

    def static_branches(self) -> list[StaticBranch]:
        """All static conditional branches of the program."""
        branches = []
        for function in self.functions:
            branches.extend(function.static_branches())
        branches.extend(self.main.static_branches())
        return branches

    def run(self, max_branches: int, *,
            max_blocks: int | None = None) -> Trace:
        """Execute until ``max_branches`` dynamic conditional branches (or
        ``max_blocks`` blocks) have been emitted; return the trace.

        Runs in C when :func:`repro.workloads.compiled.run` covers the
        program, otherwise in the Python :class:`Executor`; both give the
        same trace and leave every behaviour in the same state."""
        from repro.workloads import compiled  # it imports this module

        if max_branches < 1:
            raise ValueError(f"max_branches must be >= 1, got {max_branches}")
        trace = compiled.run(self, max_branches, max_blocks)
        if trace is None:
            trace = Executor(self.name, max_branches=max_branches,
                             max_blocks=max_blocks).run(self.main)
        return trace


class ExecutionLimit(Exception):
    """Raised internally to unwind the executor once the trace is long
    enough."""


class Executor:
    """Interprets a laid-out program, emitting block executions and
    maintaining the architectural global history that correlated behaviours
    observe."""

    __slots__ = ("builder", "global_history", "max_branches", "max_blocks",
                 "_branches_emitted", "_occurrences")

    def __init__(self, name: str, max_branches: int,
                 max_blocks: int | None = None) -> None:
        if max_branches < 1:
            raise ValueError(f"max_branches must be >= 1, got {max_branches}")
        self.builder = TraceBuilder(name)
        self.global_history = 0
        self.max_branches = max_branches
        self.max_blocks = max_blocks
        self._branches_emitted = 0
        self._occurrences: dict[int, int] = {}

    def run(self, main: Node) -> Trace:
        """Execute ``main`` repeatedly until a limit is reached; return the
        trace."""
        try:
            while True:
                main.execute(self)
        except ExecutionLimit:
            pass
        return self.builder.build()

    # ExecutionContext protocol ------------------------------------------

    def occurrence(self, branch_id: int) -> int:
        """Number of previous executions of the branch."""
        return self._occurrences.get(branch_id, 0)

    # Execution ----------------------------------------------------------

    def resolve(self, branch: StaticBranch) -> bool:
        """Evaluate a conditional branch's behaviour and commit its outcome
        to the architectural history."""
        outcome = branch.behavior.next(branch.branch_id, self)
        self.global_history = (
            ((self.global_history << 1) | int(outcome)) & _HISTORY_MASK)
        self._occurrences[branch.branch_id] = (
            self._occurrences.get(branch.branch_id, 0) + 1)
        return outcome

    def emit(self, start: int, num_instructions: int, kind: int,
             taken: bool, next_start: int) -> None:
        """Record one block execution; raise :class:`ExecutionLimit` when the
        trace is long enough.

        Appends straight to the builder's columns (``kind`` as its integer
        :class:`TerminatorKind` value); :meth:`TraceBuilder.build` checks
        them whole."""
        builder = self.builder
        builder.starts.append(start)
        builder.num_instructions.append(num_instructions)
        builder.kinds.append(kind)
        builder.takens.append(taken)
        builder.next_starts.append(next_start)
        if kind == _CONDITIONAL:
            self._branches_emitted += 1
            if self._branches_emitted >= self.max_branches:
                raise ExecutionLimit
        if (self.max_blocks is not None
                and len(builder.starts) >= self.max_blocks):
            raise ExecutionLimit
