"""Branch behaviour models for synthetic workloads.

The paper's evaluation runs on SPECINT95 traces.  Without those traces, we
synthesise programs whose branches draw from the behaviour classes that
branch-prediction research identifies in integer codes:

* strongly/weakly biased static branches (the bimodal component's bread and
  butter, Section 4.2's "strongly biased static branches"),
* loop back-edges with characteristic trip counts,
* branches correlated with the *global* outcome history at shallow or deep
  lags (what makes long history lengths pay off — Section 5.3 / Fig 6),
* branches following short *local* repeating patterns,
* 2-state Markov (phase-switching) branches,
* purely data-dependent (unpredictable) branches.

Each behaviour is a deterministic function of the executor state plus a
deterministic per-behaviour RNG stream, so a given program produces an
identical trace on every run.

Stream contract.  A behaviour takes exactly one draw from its parent
generator, at construction: the seed of a private PCG64 stream
(:func:`~repro.common.rng.child_seed`).  The stream itself is created on the
behaviour's first draw, so most static branches of a large program, which a
trace never executes, never pay for one.  Draws that fix the behaviour
(a truth table, an initial state, an inversion) are made by ``_setup`` as
the first draws of the stream; every later draw follows in execution order.
Those later draws come from a buffer that ``_fill`` refills 32 at a time:
doubles from ``random(out=...)``, which yields the values of as many scalar
``random()`` calls in order, or, for a jittered :class:`LoopBehavior`,
normals from ``normal(size=...)``, which equal as many scalar ``normal``
calls.  A jittered loop with noise interleaves the two kinds, so it keeps
scalar draws.  The compiled executor (:mod:`repro.workloads.compiled`)
fills the same buffers through the same ``_fill``.

The executor passes an :class:`ExecutionContext` giving behaviours read-only
access to the architectural outcome history and per-branch occurrence
counters.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.common.bitops import mask
from repro.common.rng import child_seed

__all__ = [
    "ExecutionContext",
    "PrivateStream",
    "Behavior",
    "BiasedBehavior",
    "LoopBehavior",
    "PatternBehavior",
    "GlobalCorrelatedBehavior",
    "LocalCorrelatedBehavior",
    "MarkovBehavior",
    "ConditionCell",
    "ConditionLeaderBehavior",
    "ConditionFollowerBehavior",
]


class ExecutionContext(Protocol):
    """What a behaviour may observe about the executing program.

    ``global_history`` packs the most recent conditional-branch outcomes as
    an integer with bit 0 = most recent outcome (1 = taken).
    ``occurrence(branch_id)`` counts prior executions of the branch.
    """

    global_history: int

    def occurrence(self, branch_id: int) -> int: ...


DRAWS_PER_REFILL = 32
"""Draws a stream takes each time its buffer runs dry: enough to amortise
the call, few enough that the many branches a trace executes only a
handful of times do not draw far ahead."""

_EXHAUSTED = iter(())


class PrivateStream:
    """A private PCG64 stream, seeded by one draw from a parent generator
    and created on first use, with a buffer of execution-time draws."""

    __slots__ = ("_seed", "_rng", "_draws")

    def __init__(self, rng: np.random.Generator) -> None:
        self._seed = child_seed(rng)
        self._rng: np.random.Generator | None = None
        self._draws = _EXHAUSTED

    def _stream(self) -> np.random.Generator:
        """The private stream, created (and :meth:`_setup` run) on first
        use."""
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
            self._setup(self._rng)
        return self._rng

    def _setup(self, rng: np.random.Generator) -> None:
        """Make the draws that fix the owner; they come first in its
        stream."""

    def _fill(self, out: np.ndarray) -> None:
        """Write the stream's next ``len(out)`` buffered draws into
        ``out``: doubles, unless a subclass buffers another kind."""
        self._stream().random(out=out)

    def _draw(self) -> float:
        """The next buffered draw, refilling the buffer when it is dry."""
        try:
            return next(self._draws)
        except StopIteration:
            buffer = np.empty(DRAWS_PER_REFILL)
            self._fill(buffer)
            self._draws = iter(buffer.tolist())
            return next(self._draws)


class Behavior(PrivateStream):
    """Base class: a generator of outcomes for one static conditional branch.

    Subclasses implement :meth:`outcome`. ``noise`` flips the model's answer
    with the given probability, modelling data-dependent deviation from the
    idealised behaviour.
    """

    __slots__ = ("noise",)

    def __init__(self, rng: np.random.Generator, noise: float = 0.0) -> None:
        if not 0.0 <= noise <= 1.0:
            raise ValueError(f"noise must be a probability, got {noise}")
        self.noise = noise
        # Private child stream so behaviours cannot perturb one another.
        super().__init__(rng)

    _random = PrivateStream._draw
    """The stream's next double."""

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        """Return the idealised outcome; overridden by subclasses."""
        raise NotImplementedError

    def next(self, branch_id: int, ctx: ExecutionContext) -> bool:
        """Return the emitted outcome (idealised outcome plus noise)."""
        value = self.outcome(branch_id, ctx)
        if self.noise and self._random() < self.noise:
            return not value
        return value


class BiasedBehavior(Behavior):
    """IID Bernoulli branch: taken with probability ``p_taken``.

    ``p_taken`` near 0 or 1 gives the strongly biased branches the bimodal
    table excels at; ``p_taken`` near 0.5 gives hard data-dependent branches.
    """

    __slots__ = ("p_taken",)

    def __init__(self, rng: np.random.Generator, p_taken: float,
                 noise: float = 0.0) -> None:
        super().__init__(rng, noise)
        if not 0.0 <= p_taken <= 1.0:
            raise ValueError(f"p_taken must be a probability, got {p_taken}")
        self.p_taken = p_taken

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        return self._random() < self.p_taken


class LoopBehavior(Behavior):
    """Loop back-edge: taken ``trips - 1`` times, then not-taken once.

    ``trip_jitter`` re-draws the trip count around the mean on each entry
    (geometric-ish spread), modelling data-dependent loop bounds.  The
    executor resets the behaviour at loop entry via :meth:`enter`.
    """

    __slots__ = ("mean_trips", "trip_jitter", "_remaining")

    def __init__(self, rng: np.random.Generator, mean_trips: int,
                 trip_jitter: float = 0.0, noise: float = 0.0) -> None:
        super().__init__(rng, noise)
        if mean_trips < 1:
            raise ValueError(f"loops run at least once, got {mean_trips} trips")
        self.mean_trips = mean_trips
        self.trip_jitter = trip_jitter
        self._remaining = self._draw_trips()

    def _spread(self) -> float:
        return max(1.0, self.mean_trips * self.trip_jitter)

    def _fill(self, out: np.ndarray) -> None:
        if self.trip_jitter <= 0.0:
            super()._fill(out)
        else:
            out[:] = self._stream().normal(self.mean_trips, self._spread(),
                                           len(out))

    def _draw_trips(self) -> int:
        if self.trip_jitter <= 0.0:
            return self.mean_trips
        if self.noise:
            # Noise doubles interleave with the trip normals: no buffer.
            draw = self._stream().normal(self.mean_trips, self._spread())
        else:
            draw = self._draw()
        return max(1, int(round(draw)))

    def _random(self) -> float:
        if self.trip_jitter <= 0.0:
            return self._draw()
        return self._stream().random()  # interleaves with the trip normals

    def enter(self) -> None:
        """Called by the executor at loop entry: draw this activation's
        trip count."""
        self._remaining = self._draw_trips()

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        self._remaining -= 1
        if self._remaining <= 0:
            self.enter()
            return False  # exit the loop
        return True  # continue looping


class PatternBehavior(Behavior):
    """A branch following a fixed repeating outcome pattern.

    Perfectly predictable from local history of length >= pattern period and
    largely predictable from global history in stable control-flow phases.
    """

    __slots__ = ("pattern",)

    def __init__(self, rng: np.random.Generator, pattern: list[bool] | str,
                 noise: float = 0.0) -> None:
        super().__init__(rng, noise)
        if isinstance(pattern, str):
            pattern = [c in "1tT" for c in pattern]
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern = [bool(value) for value in pattern]

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        return self.pattern[ctx.occurrence(branch_id) % len(self.pattern)]


class GlobalCorrelatedBehavior(Behavior):
    """A branch whose outcome is a fixed random Boolean function of selected
    global-history lags.

    ``lags`` are distances into the global outcome history (1 = previous
    conditional branch).  The Boolean function is a random truth table drawn
    once at construction, so the branch is *perfectly* predictable by any
    predictor whose effective history window covers ``max(lags)`` — and looks
    random to shorter-history predictors.  This is the mechanism that makes
    "history longer than log2(table size)" pay off (Section 5.3, Fig 6).
    """

    __slots__ = ("lags", "_table")

    def __init__(self, rng: np.random.Generator, lags: list[int],
                 noise: float = 0.0) -> None:
        super().__init__(rng, noise)
        if not lags:
            raise ValueError("need at least one history lag")
        if any(lag < 1 for lag in lags):
            raise ValueError(f"lags must be >= 1, got {lags}")
        if len(lags) > 16:
            raise ValueError(f"at most 16 lags supported, got {len(lags)}")
        self.lags = sorted(set(lags))
        self._table: list[bool] | None = None

    def _setup(self, rng: np.random.Generator) -> None:
        self._table = [bool(b) for b in
                       rng.integers(0, 2, size=1 << len(self.lags))]

    @property
    def depth(self) -> int:
        """The history depth a predictor needs to capture this branch."""
        return max(self.lags)

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        if self._table is None:
            self._stream()
        history = ctx.global_history
        index = 0
        for position, lag in enumerate(self.lags):
            index |= ((history >> (lag - 1)) & 1) << position
        return self._table[index]


class LocalCorrelatedBehavior(Behavior):
    """A branch whose outcome is a random function of its *own* recent
    outcomes (order-``depth`` self-correlation).

    Captured by local-history predictors directly; captured by global-history
    predictors only when intervening control flow is stable.
    """

    __slots__ = ("depth", "_table", "_self_history")

    def __init__(self, rng: np.random.Generator, depth: int,
                 noise: float = 0.0) -> None:
        super().__init__(rng, noise)
        if not 1 <= depth <= 16:
            raise ValueError(f"depth must be in 1..16, got {depth}")
        self.depth = depth
        self._table: list[bool] | None = None
        self._self_history = 0

    def _setup(self, rng: np.random.Generator) -> None:
        self._table = [bool(b) for b in
                       rng.integers(0, 2, size=1 << self.depth)]

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        if self._table is None:
            self._stream()
        window = mask(self.depth)
        value = self._table[self._self_history & window]
        self._self_history = ((self._self_history << 1) | int(value)) & window
        return value


class MarkovBehavior(Behavior):
    """Two-state phase-switching branch: long runs of taken then long runs
    of not-taken, with configurable persistence per state."""

    __slots__ = ("p_stay_taken", "p_stay_not_taken", "_state")

    def __init__(self, rng: np.random.Generator, p_stay_taken: float = 0.95,
                 p_stay_not_taken: float = 0.95, noise: float = 0.0) -> None:
        super().__init__(rng, noise)
        for name, p in (("p_stay_taken", p_stay_taken),
                        ("p_stay_not_taken", p_stay_not_taken)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        self.p_stay_taken = p_stay_taken
        self.p_stay_not_taken = p_stay_not_taken
        self._state = False

    def _setup(self, rng: np.random.Generator) -> None:
        self._state = bool(rng.integers(0, 2))

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        draw = self._random()  # first, so _setup has drawn the state
        stay = self.p_stay_taken if self._state else self.p_stay_not_taken
        if draw >= stay:
            self._state = not self._state
        return self._state


class ConditionCell:
    """A shared transient condition: one leader branch computes it, several
    follower branches re-test it.

    This is the dominant source of *usable* global-history correlation in
    integer code: the same freshly computed predicate (a comparison result,
    a type tag, a flag) is tested by several nearby static branches.  The
    first test is genuinely data-dependent; every later test is a
    deterministic copy — predictable from *any* reflection of the condition
    in the history, which is exactly the redundancy that lets the EV8's
    block-compressed lghist match full branch history (Section 8.3).
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = False


class ConditionLeaderBehavior(Behavior):
    """The branch that computes a shared condition: draws a fresh value with
    probability ``p_taken`` on every execution and publishes it to the
    cell."""

    __slots__ = ("cell", "p_taken")

    def __init__(self, rng: np.random.Generator, cell: ConditionCell,
                 p_taken: float = 0.5, noise: float = 0.0) -> None:
        super().__init__(rng, noise)
        if not 0.0 <= p_taken <= 1.0:
            raise ValueError(f"p_taken must be a probability, got {p_taken}")
        self.cell = cell
        self.p_taken = p_taken

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        self.cell.value = self._random() < self.p_taken
        return self.cell.value


class ConditionFollowerBehavior(Behavior):
    """A branch re-testing a shared condition (optionally inverted).

    Unpredictable by a per-branch counter whenever the leader's draw is
    balanced, but perfectly determined by the history window containing any
    reflection of the cell since the leader last ran.
    """

    __slots__ = ("cell", "_invert")

    def __init__(self, rng: np.random.Generator, cell: ConditionCell,
                 invert: bool | None = None, noise: float = 0.0) -> None:
        super().__init__(rng, noise)
        self.cell = cell
        # None: drawn by _setup.
        self._invert = None if invert is None else bool(invert)

    def _setup(self, rng: np.random.Generator) -> None:
        if self._invert is None:
            self._invert = bool(rng.integers(0, 2))

    @property
    def invert(self) -> bool:
        """Whether the branch tests the condition's complement."""
        if self._invert is None:
            self._stream()
        return self._invert

    def outcome(self, branch_id: int, ctx: ExecutionContext) -> bool:
        return self.cell.value ^ self.invert
