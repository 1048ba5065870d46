"""History registers: global outcome history, path history, local history.

These are the architectural information vectors of Section 5 of the paper.
All registers store history as plain integers with **bit 0 = most recent
event**, matching the ``(h20, ..., h0)`` notation of Section 7.3 where ``h0``
is the youngest lghist bit.
"""

from __future__ import annotations

from collections import deque

from repro.common.bitops import mask

__all__ = ["GlobalHistoryRegister", "PathRegister", "LocalHistoryTable",
           "DEFAULT_PATH_DEPTH"]


class GlobalHistoryRegister:
    """A conventional global branch-outcome history register (ghist).

    One bit is shifted in per conditional branch (1 = taken).  The register
    keeps ``capacity`` bits; predictors read the ``n`` youngest bits with
    :meth:`value`.
    """

    __slots__ = ("capacity", "_mask", "_value")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._mask = mask(capacity)
        self._value = 0

    def push(self, taken: bool) -> None:
        """Record one branch outcome."""
        self._value = ((self._value << 1) | int(taken)) & self._mask

    def value(self, length: int | None = None) -> int:
        """Return the ``length`` youngest history bits (all bits if None)."""
        if length is None:
            return self._value
        if length < 0 or length > self.capacity:
            raise ValueError(
                f"history length {length} outside register capacity "
                f"{self.capacity}")
        return self._value & mask(length)

    def reset(self) -> None:
        self._value = 0


DEFAULT_PATH_DEPTH = 3  # the paper's Z, Y and X


class PathRegister:
    """Addresses of the most recent fetch blocks (or branches).

    Section 5.2: the EV8 index functions consume the addresses of the three
    previous fetch blocks (Z is the most recent, then Y, ...).  ``entry(0)``
    is Z, ``entry(1)`` is Y, and so on; blocks not yet seen read as address 0.
    """

    __slots__ = ("depth", "_addresses")

    def __init__(self, depth: int = DEFAULT_PATH_DEPTH) -> None:
        if depth < 1:
            raise ValueError(f"path depth must be >= 1, got {depth}")
        self.depth = depth
        self._addresses: deque[int] = deque([0] * depth, maxlen=depth)

    def push(self, address: int) -> None:
        """Record the address of a newly fetched block."""
        self._addresses.appendleft(address)

    def entry(self, age: int) -> int:
        """Address of the block fetched ``age + 1`` blocks ago (0 = most
        recent, the paper's Z)."""
        return self._addresses[age]

    def as_tuple(self) -> tuple[int, ...]:
        """All tracked addresses, most recent first: (Z, Y, X, ...)."""
        return tuple(self._addresses)

    def reset(self) -> None:
        for _ in range(self.depth):
            self._addresses.appendleft(0)


class LocalHistoryTable:
    """A table of per-branch outcome histories (first level of a two-level
    local predictor, as in the Alpha 21264's local component — Section 3).

    Indexed by PC bits above the 2-bit instruction offset.
    """

    __slots__ = ("entries", "width", "_mask", "_table")

    def __init__(self, entries: int, width: int) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        if width < 1:
            raise ValueError(f"history width must be >= 1, got {width}")
        self.entries = entries
        self.width = width
        self._mask = mask(width)
        self._table = [0] * entries

    def index_of(self, pc: int) -> int:
        """Table index for a branch PC (instruction-granular: PC/4)."""
        return (pc >> 2) & (self.entries - 1)

    def read(self, pc: int) -> int:
        """The branch's current local history."""
        return self._table[self.index_of(pc)]

    def push(self, pc: int, taken: bool) -> None:
        """Record an outcome in the branch's local history."""
        index = self.index_of(pc)
        self._table[index] = ((self._table[index] << 1) | int(taken)) & self._mask

    @property
    def storage_bits(self) -> int:
        return self.entries * self.width
