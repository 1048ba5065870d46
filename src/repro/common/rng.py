"""Deterministic random-number plumbing.

Every stochastic element of the synthetic workloads (branch bias draws,
control-flow graph wiring, noise in behaviour models) is derived from a
single named seed so that traces — and therefore every experiment result —
are bit-for-bit reproducible across runs and machines.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["seed_from_name", "rng_for", "child_seed", "choice_cdf",
           "DEFAULT_SEED"]

DEFAULT_SEED = 0xE58  # "EV8"-flavoured stable project-wide root seed


def seed_from_name(name: str, root_seed: int = DEFAULT_SEED) -> int:
    """Derive a stable 63-bit seed from a string name and a root seed.

    Uses SHA-256 rather than ``hash()`` because the latter is salted per
    process and would break reproducibility.

    >>> seed_from_name("gcc") == seed_from_name("gcc")
    True
    >>> seed_from_name("gcc") != seed_from_name("go")
    True
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(name: str, root_seed: int = DEFAULT_SEED) -> np.random.Generator:
    """Return a numpy Generator deterministically keyed by ``name``."""
    return np.random.default_rng(seed_from_name(name, root_seed))


def child_seed(rng: np.random.Generator) -> int:
    """Draw the seed of a private child stream from ``rng``.

    The value and the advance of ``rng`` equal ``rng.integers(0, 2**63)``:
    at a power-of-two range Lemire's bounded draw never rejects, so it is
    one raw 64-bit output shifted right by one.  This spelling skips the
    bounded-integer machinery.

    >>> a, b = np.random.default_rng(5), np.random.default_rng(5)
    >>> [child_seed(a) for _ in range(3)] == [
    ...     int(b.integers(0, 2**63)) for _ in range(3)]
    True
    """
    return rng.bit_generator.random_raw() >> 1


def choice_cdf(p) -> list[float]:
    """The cumulative distribution ``Generator.choice(n, p=p)`` searches.

    numpy takes ``cumsum(p)``, divides it by its last element and searches
    one ``random()`` double with ``side="right"``, so
    ``bisect_right(choice_cdf(p), rng.random())`` picks the same index from
    the same draw, without revalidating ``p`` on every call.

    >>> from bisect import bisect_right
    >>> a, b = np.random.default_rng(9), np.random.default_rng(9)
    >>> cdf = choice_cdf([0.2, 0.5, 0.3])
    >>> [bisect_right(cdf, a.random()) for _ in range(8)] == [
    ...     int(b.choice(3, p=[0.2, 0.5, 0.3])) for _ in range(8)]
    True
    """
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()
