"""The GF(2) byte-table compiler: batched index streams from scalar index
functions.

Every index function here is linear over GF(2): Section 7 builds each EV8
index bit from XOR gates, and XOR-folding (:mod:`repro.indexing.fold`), the
skewing bijection ``H``/``H⁻¹`` (:mod:`repro.indexing.skew`) and gshare/GAs
concatenation are XOR-linear too.  Such a function is the XOR of its
responses to the single bits of its input, so :func:`compile_tables` probes
the scalar function (an :class:`~repro.history.providers.InfoVector` in, one
index or a tuple of indices out) on each bit of ``history``, ``address``,
``branch_pc``, ``bank`` and each ``path`` row, and turns each input byte
that reaches an index into a 256-entry table.  A batch's indices are then
one lookup per such byte, XORed together (:class:`ByteTables`), with the
indices packed in ``uint64`` lanes of 16, 32 or 64 bits, the narrowest that
holds the widest probed response.

The gather itself runs in C, inside each replay kernel: binding the tables
to a batch (:meth:`ByteTables.bind`) only builds the flat lookup descriptor
the kernel reads, and ``gather_block`` in ``kernels/replay.c`` XORs the
lookups of one L1-resident block of rows at a time, which the kernel then
replays before gathering the next.  :meth:`ByteTables.__call__` runs the same
gather on its own (``gf2_gather``) and returns the index streams.

The scalar function stays the only definition of each hash.  The zero
vector must map to zero, and 64 seeded random full-width vectors must match
the scalar function (checked by XORing table entries here, so compiling
needs no compiled tier); one that fails is not batched
(:class:`NotLinear`), so its predictor reports ``batch_supported() ==
False`` and runs scalar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro import kernels
from repro.history.providers import InfoVector, VectorBatch

__all__ = ["FIELDS", "MAX_WORDS", "NotLinear", "ByteTables", "Lookups",
           "compile_tables", "byte_tables"]

FIELDS = ("history", "address", "branch_pc", "bank")
"""The information-vector fields every probe covers; ``path`` rows are
added as ``path0`` (the youngest, the paper's Z), ``path1`` and so on."""

MAX_WORDS = 4
"""The most packed ``uint64`` words an index function may fill per row: the
gather's block holds ``GATHER_WORDS`` of them (``kernels/replay.c``)."""

IndexFunction = Callable[[InfoVector], "int | tuple[int, ...]"]

_TABLES: dict[Hashable, "ByteTables | NotLinear"] = {}
"""Compiled tables (or the reason they would not compile) per key."""


class NotLinear(ValueError):
    """A scalar index function the byte tables cannot represent: nonzero at
    the zero vector, wider than 64 bits, more than :data:`MAX_WORDS` words
    of indices, or not linear over GF(2)."""


@dataclass(frozen=True, eq=False)
class Lookups:
    """:class:`ByteTables` bound to one batch: the flat ``uint64``
    descriptor the compiled gather reads (``LOOKUP_HEADER`` words, then one
    byte-plane address, packed word and table address per lookup; see
    ``kernels/replay.c``), passed to a kernel by the address of
    ``descriptor``.  It holds everything the descriptor points into, the
    tables and the batch's columns as contiguous ``uint64`` arrays (copies
    where a column needed converting), for as long as it lives."""

    tables: "ByteTables"
    descriptor: np.ndarray
    rows: int
    columns: tuple[np.ndarray, ...]

    def streams(self) -> tuple[np.ndarray, ...]:
        """The gathered indices, one ``uint64`` stream each."""
        streams = np.empty((self.tables.outputs, self.rows), dtype=np.uint64)
        kernels.require().gf2_gather(self.rows, self.descriptor.ctypes.data,
                                     streams.ctypes.data)
        return tuple(streams)


@dataclass(frozen=True, eq=False)
class ByteTables:
    """A compiled index function.  Each lookup XORs ``table[byte of
    field]`` into packed word ``word``, and index ``k`` is lane ``k`` of
    the packed words; a field the batch lacks (no bank, fewer path rows)
    reads as zero, as in :class:`~repro.history.providers.InfoVector`.
    ``tables.bind(batch)`` gives the descriptor a replay kernel gathers
    from, and ``tables(batch)`` the index streams, equal row for row to
    the scalar function."""

    outputs: int
    lane_bits: int
    lookups: list[tuple[str, int, int, np.ndarray]]

    @property
    def words(self) -> int:
        """Packed ``uint64`` words per row."""
        return -(-self.outputs * self.lane_bits // 64)

    def bind(self, batch: VectorBatch) -> Lookups:
        """The lookup descriptor of ``batch``'s columns."""
        columns = {"history": batch.history, "address": batch.address,
                   "branch_pc": batch.branch_pc, "bank": batch.bank,
                   **{f"path{row}": batch.path[row]
                      for row in range(batch.path_depth)}}
        planes: dict[str, np.ndarray] = {}
        entries = []
        for field, byte, word, table in self.lookups:
            if columns.get(field) is None:
                continue
            if field not in planes:
                planes[field] = np.ascontiguousarray(columns[field], "<u8")
                if len(planes[field]) != len(batch):
                    raise ValueError(f"the {field} column has "
                                     f"{len(planes[field])} rows, not "
                                     f"{len(batch)}")
            entries += (planes[field].ctypes.data + byte, word,
                        table.ctypes.data)
        descriptor = np.array([len(entries) // 3, self.words, self.lane_bits,
                               self.outputs, *entries], dtype=np.uint64)
        return Lookups(self, descriptor, len(batch), tuple(planes.values()))

    def __call__(self, batch: VectorBatch) -> tuple[np.ndarray, ...]:
        return self.bind(batch).streams()


def compile_tables(index: IndexFunction, path_depth: int = 0) -> ByteTables:
    """Tabulate ``index`` over :data:`FIELDS` and ``path_depth`` path rows.

    Raises :class:`NotLinear` when the tables cannot represent it."""
    fields = FIELDS + tuple(f"path{row}" for row in range(path_depth))

    def evaluate(values: dict[str, int]) -> tuple[int, ...]:
        result = index(InfoVector(
            values.get("history", 0), values.get("address", 0),
            values.get("branch_pc", 0),
            tuple(values.get(f"path{row}", 0) for row in range(path_depth)),
            values.get("bank", 0)))
        return tuple(map(int, result if isinstance(result, tuple)
                         else (result,)))

    zero = evaluate({})
    if any(zero):
        raise NotLinear(f"the zero vector has nonzero indices {zero}")
    responses = {field: [evaluate({field: 1 << bit}) for bit in range(64)]
                 for field in fields}
    probed = [value for basis in responses.values() for response in basis
              for value in response]
    widest = max(probed, default=0).bit_length()
    if min(probed, default=0) < 0 or widest > 64:
        raise NotLinear("an index is negative or more than 64 bits wide")
    lane_bits = next(bits for bits in (16, 32, 64) if widest <= bits)
    if -(-len(zero) * lane_bits // 64) > MAX_WORDS:
        raise NotLinear(f"{len(zero)} indices of {lane_bits} bits fill more "
                        f"than {MAX_WORDS} packed words")
    lookups = []
    for field in fields:
        for byte in range(8):
            # Index k takes bits lane_bits * k on; packed word w is bits
            # 64 * w to 64 * w + 63.
            basis = [sum(value << lane_bits * k
                         for k, value in enumerate(response))
                     for response in responses[field][8 * byte:8 * byte + 8]]
            for word in range(-(-len(zero) * lane_bits // 64)):
                table = np.zeros(256, dtype=np.uint64)
                for bit, packed in enumerate(basis):
                    half = 1 << bit
                    table[half:2 * half] = table[:half] ^ np.uint64(
                        (packed >> 64 * word) & (2**64 - 1))
                if table.any():
                    lookups.append((field, byte, word, table))
    tables = ByteTables(len(zero), lane_bits, lookups)
    rng = random.Random(2002)
    lanes, lane_mask = 64 // lane_bits, (1 << lane_bits) - 1
    entries = [(field, 8 * byte, word, table.tolist())
               for field, byte, word, table in lookups]
    for _ in range(64):
        sample = {field: rng.getrandbits(64) for field in fields}
        packed = [0] * tables.words
        for field, shift, word, table in entries:
            packed[word] ^= table[(sample[field] >> shift) & 0xFF]
        got = tuple(packed[k // lanes] >> lane_bits * (k % lanes) & lane_mask
                    for k in range(len(zero)))
        if got != evaluate(sample):
            raise NotLinear(f"the index function is not linear over GF(2): "
                            f"it differs on {sample}")
    return tables


def byte_tables(key: Hashable, index: IndexFunction,
                path_depth: int = 0) -> ByteTables:
    """:func:`compile_tables`, failures included, memoised per process under
    ``key``, which must name exactly what ``index`` reads (its class and the
    parameters it uses).  An unhashable key compiles on every call."""
    try:
        entry = _TABLES.get(key)
    except TypeError:
        return compile_tables(index, path_depth)
    if entry is None:
        try:
            entry = compile_tables(index, path_depth)
        except NotLinear as error:
            entry = error
        _TABLES[key] = entry
    if isinstance(entry, NotLinear):
        raise NotLinear(*entry.args)
    return entry
