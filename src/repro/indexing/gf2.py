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
that reaches an index into a 256-entry table.  A batch's index streams are
then one lookup per such byte, XORed together (:class:`ByteTables`), with
the indices packed in ``uint64`` lanes of 16, 32 or 64 bits, the narrowest
that holds the widest probed response.

The scalar function stays the only definition of each hash.  The zero
vector must map to zero, and 64 seeded random full-width vectors must match
the scalar function; one that fails is not batched (:class:`NotLinear`), so
its predictor reports ``batch_supported() == False`` and runs scalar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.history.providers import InfoVector, VectorBatch

__all__ = ["FIELDS", "NotLinear", "ByteTables", "compile_tables",
           "byte_tables"]

FIELDS = ("history", "address", "branch_pc", "bank")
"""The information-vector fields every probe covers; ``path`` rows are
added as ``path0`` (the youngest, the paper's Z), ``path1`` and so on."""

_BLOCK_ROWS = 32768
"""Rows gathered per block: a block's ``uint64`` columns take 256 KiB each."""

IndexFunction = Callable[[InfoVector], "int | tuple[int, ...]"]

_TABLES: dict[Hashable, "ByteTables | NotLinear"] = {}
"""Compiled tables (or the reason they would not compile) per key."""


class NotLinear(ValueError):
    """A scalar index function the byte tables cannot represent: nonzero at
    the zero vector, wider than 64 bits, or not linear over GF(2)."""


@dataclass(frozen=True, eq=False)
class ByteTables:
    """A compiled index function: ``tables(batch)`` returns one ``uint64``
    stream per index, equal row for row to the scalar function.  Each
    lookup XORs ``table[byte of field]`` into packed word ``word``; a field
    the batch lacks (no bank, fewer path rows) reads as zero, as in
    :class:`~repro.history.providers.InfoVector`."""

    outputs: int
    lane_bits: int
    lookups: list[tuple[str, int, int, np.ndarray]]

    def __call__(self, batch: VectorBatch) -> tuple[np.ndarray, ...]:
        lanes = 64 // self.lane_bits
        words = -(-self.outputs // lanes)
        n = len(batch)
        packed = np.empty((words, n), dtype="<u8")
        columns = {"history": batch.history, "address": batch.address,
                   "branch_pc": batch.branch_pc, "bank": batch.bank,
                   **{f"path{row}": batch.path[row]
                      for row in range(batch.path_depth)}}
        octets: dict[str, np.ndarray] = {}
        lookups = []
        for field, byte, word, table in self.lookups:
            if columns.get(field) is None:
                continue
            if field not in octets:
                octets[field] = np.ascontiguousarray(
                    columns[field], "<u8").view(np.uint8)
            lookups.append((octets[field], byte, word, table))
        # Row blocks keep each block's fields and packed words in cache
        # across its lookups; whole columns would stream through memory
        # once per lookup.
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            fresh = set(range(words))
            for column, byte, word, table in lookups:
                plane = column[8 * start + byte:8 * stop:8]
                if word in fresh:
                    # A byte never leaves the 256-entry table, so "wrap"
                    # changes no index; it lets take write in place.
                    table.take(plane, out=packed[word, start:stop],
                               mode="wrap")
                    fresh.discard(word)
                else:
                    packed[word, start:stop] ^= table.take(plane)
            for word in fresh:
                packed[word, start:stop] = 0
        if lanes == 1:
            return tuple(packed)
        split = packed.view(f"<u{self.lane_bits // 8}").reshape(words, n,
                                                                lanes)
        streams = np.empty((words, lanes, n), dtype=np.uint64)
        np.copyto(streams, split.transpose(0, 2, 1))
        return tuple(streams.reshape(words * lanes, n)[:self.outputs])


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
    samples = [{field: rng.getrandbits(64) for field in fields}
               for _ in range(64)]
    columns = np.array([[sample[field] for sample in samples]
                        for field in fields], dtype=np.uint64)
    got = tables(VectorBatch(*columns[:3], path=columns[4:],
                             takens=np.zeros(len(samples), dtype=np.bool_),
                             bank=columns[3]))
    for row, sample in enumerate(samples):
        if tuple(int(stream[row]) for stream in got) != evaluate(sample):
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
