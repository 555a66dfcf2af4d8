"""Deterministic random-number plumbing.

All randomness in the package flows through numpy's Philox generator, a
counter-based 64-bit generator: the i-th draw of a stream depends only on
(seed, i), so streams are reproducible across platforms and prefixes are
stable when a stream is extended.

Child seeds are derived from a master seed with a splitmix64 mix of the
integer parts, which keeps independently-seeded components decoupled from
the order in which they are constructed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_seed", "generator"]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(master: int, *parts: int) -> int:
    """Mix a master seed with integer tags into a new 64-bit seed."""
    state = _splitmix64(master & _MASK64)
    for p in parts:
        state = _splitmix64(state ^ (int(p) & _MASK64))
    return state


def generator(seed: int) -> np.random.Generator:
    """Counter-based generator for the given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))
