"""Seeded deterministic randomness with per-trial substreams.

Experiments key every trial off the root seed plus an index path, so runs
reproduce bit-exactly and trials stay independent regardless of execution
order.
"""

from __future__ import annotations

from random import Random

try:
    # the object hashlib re-exports; importing hashlib itself also loads
    # OpenSSL, which costs a few MB of RSS and milliseconds per process
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b


def make_rng(seed: int) -> Random:
    """Deterministic stream for a 64-bit seed."""
    return Random(seed & 0xFFFFFFFFFFFFFFFF)


def spawn_rng(seed: int, *path: int | str) -> Random:
    """Independent substream for (seed, path), e.g. spawn_rng(seed, 'trial', i)."""
    h = blake2b(digest_size=8)
    h.update(str(seed).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return Random(int.from_bytes(h.digest(), "big"))
