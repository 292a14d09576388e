"""Deterministic, tag-separated random streams.

Every randomized routine draws from a PCG64 generator seeded by the pair
(seed, tag), so independent call sites get independent streams and results do
not depend on execution order.  Two rules say how many streams a routine
builds.  A verify sweep builds one per sweep or grid point and draws its
samples from it in order, so a run with k samples gives the first k samples of
any larger run.  Probes, optimizer restarts and CLI ``random:`` specs build one
per draw, tagged with everything that fixes the draw, so any one draw (a
counterexample candidate, a restart) can be redrawn alone.

A count passes as_count: a bool, a float or anything else that
operator.index refuses is a ValueError (as_index), as is a value below the
count's least, each naming the parameter; a rule that relates two values,
such as r | n, keeps its own message.  A seed is a count of at least 0, so no
run records a seed other than the one its stream was drawn from.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np


def as_index(value, name: str) -> int:
    """value as a Python int.  A bool, or a value operator.index refuses (a
    float, a string, None), is a ValueError that names it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_count(value, name: str, least: int) -> int:
    """value as a Python int (as_index); one below least is a ValueError that names it."""
    value = as_index(value, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def as_seed(seed) -> int:
    """seed as a Python int; a non-integer or negative one is a ValueError (as_count)."""
    return as_count(seed, "seed", 0)


def rng_stream(seed: int, tag: str) -> np.random.Generator:
    seed = as_seed(seed)
    digest = hashlib.sha256(tag.encode()).digest()[:8]
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest, "little")])
    )
