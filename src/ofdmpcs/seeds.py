"""Deterministic seed derivation.

All randomness in this package flows from a single master seed.  Consumers
derive private sub-seeds with :func:`derive_seed` (purpose-keyed hashing),
one per stream, and read each stream in a fixed order, so results are bound
to the seed values and never to scheduling or thread count.
:func:`trial_seed` (per-draw XOR) gives each draw of the Monte-Carlo AF
reference its own generator.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, purpose: str) -> int:
    """Derive a 64-bit sub-seed from a master seed and a purpose label.

    The mapping is a fixed SHA-256 hash of ``"{seed}:{purpose}"``, so the
    same (seed, purpose) pair always yields the same stream and distinct
    purposes get independent streams.
    """
    digest = hashlib.sha256(f"{seed}:{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def trial_seed(seed: int, trial: int) -> int:
    """Per-trial seed: ``seed XOR trial`` (64-bit).

    Draw ``m`` of :func:`.ambiguity.average_af` uses it, so it sees the same
    symbols no matter how the draws are batched or ordered.
    """
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    return (int(seed) ^ int(trial)) & _MASK64
