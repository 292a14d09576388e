"""Deterministic, tag-separated random streams.

Every randomized routine draws from a PCG64 generator seeded by the pair
(seed, tag), so independent call sites get independent streams and results do
not depend on execution order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def rng_stream(seed: int, tag: str) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    digest = hashlib.sha256(tag.encode()).digest()[:8]
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int.from_bytes(digest, "little")])
    )
