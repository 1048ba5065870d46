"""Conflict-free bank interleaving (Section 6 of the paper).

The EV8 branch predictor must serve two dynamically successive fetch blocks
per cycle out of single-ported memory.  Instead of multi-porting, dual
pumping, or arbitrating bank conflicts, the EV8 *computes* each block's bank
number such that two successive blocks can never collide:

    let B_A be the bank number for fetch block A,
    let Y, Z be the addresses of the two previous fetch blocks (Z the more
    recent), and B_Z the bank accessed by Z; with Y's address bits
    (y52, ..., y6, y5, y4, y3, y2, 0, 0):

        if (y6, y5) == B_Z:  B_A = (y6, y5 XOR 1)
        else:                B_A = (y6, y5)

Because B_A is derived from the *two-blocks-ahead* address Y [18], it is
ready one full cycle before the predictor read, adding no delay (Fig 3); and
by construction B_A != B_Z, so any two successive blocks land in distinct
banks.

The recurrence is serial, so a materialized batch's bank column comes from
``block_columns`` in ``repro/kernels/replay.c``, which restates
:class:`BankNumberGenerator` over the trace's fetch blocks in one pass.
"""

from __future__ import annotations

from repro.common.bitops import bits

__all__ = ["bank_number", "BankNumberGenerator"]

BANK_COUNT = 4
_BANK_BIT_LOW = 5
"""The bank seed bits are address bits (6, 5) — the fetch-block-granular
address bits just above the 32-byte offset."""


def bank_number(previous_previous_address: int, previous_bank: int) -> int:
    """The paper's bank computation: the bank for the *next* block, from the
    two-blocks-ahead address Y and the bank of the immediately preceding
    block Z.

    >>> bank_number(0b1000000, 0)   # (y6,y5) = 2 != 0
    2
    >>> bank_number(0b1000000, 2)   # collision with Z: flip y5
    3
    """
    if not 0 <= previous_bank < BANK_COUNT:
        raise ValueError(
            f"bank numbers are 2 bits, got {previous_bank}")
    seed = bits(previous_previous_address, _BANK_BIT_LOW, 2)
    if seed == previous_bank:
        return seed ^ 1
    return seed


class BankNumberGenerator:
    """Streams bank numbers over a sequence of fetch blocks.

    Maintains the (Y address, B_Z) state the front end carries: feed it each
    fetch block address in order and it returns the block's bank number,
    guaranteed to differ from the previous block's.
    """

    __slots__ = ("_previous_bank", "_y_address", "_z_address")

    def __init__(self) -> None:
        # Architected start-up state: pretend blocks -2/-1 were at address 0
        # hitting bank 0; the guarantee holds from the first real block on.
        self._previous_bank = 0
        self._y_address = 0  # address two blocks back (the paper's Y)
        self._z_address = 0  # address one block back (the paper's Z)

    def next_bank(self, block_address: int) -> int:
        """Bank number for the block being fetched at ``block_address``.

        The computation does *not* use ``block_address`` itself — only the
        two-blocks-ahead address Y and the previous block's bank B_Z, which
        is what makes it available a full cycle early (Fig 3).  The address
        argument only refills the Y/Z pipeline for later calls.
        """
        bank = bank_number(self._y_address, self._previous_bank)
        self._y_address = self._z_address
        self._z_address = block_address
        self._previous_bank = bank
        return bank

    def reset(self) -> None:
        self._previous_bank = 0
        self._y_address = 0
        self._z_address = 0
