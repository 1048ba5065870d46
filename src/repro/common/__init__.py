"""Shared low-level building blocks: bit operations, saturating counters,
deterministic randomness."""

from repro.common.bitops import bit, bits, mask, xor_fold
from repro.common.counters import SplitCounterArray
from repro.common.rng import DEFAULT_SEED, rng_for, seed_from_name

__all__ = [
    "bit",
    "bits",
    "mask",
    "xor_fold",
    "SplitCounterArray",
    "DEFAULT_SEED",
    "rng_for",
    "seed_from_name",
]
