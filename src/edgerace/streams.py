"""Deterministic random streams for reproducible parallel Monte Carlo.

A stream key is a tuple of non-negative integers.  Every random quantity in
the library is drawn from a generator derived from such a key, and replicas,
steps and stages extend the key with fixed indices.  Results therefore depend
only on the key material, never on wall clock, thread count or call order.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

import numpy as np

StreamKey = tuple[int, ...]

T = TypeVar("T")

THREADS_ENV = "EDGERACE_THREADS"


def substream(key: Sequence[int], *indices: int) -> StreamKey:
    """Derive a child key by appending indices to the parent key."""
    return (*map(int, key), *map(int, indices))


def generator(key: Sequence[int]) -> np.random.Generator:
    """PCG64 generator seeded from the key via SeedSequence entropy pooling."""
    return np.random.default_rng(np.random.SeedSequence(list(map(int, key))))


def thread_count(override: int | None = None) -> int:
    """Worker count for replica maps; EDGERACE_THREADS is the only env knob."""
    if override is not None:
        return max(1, int(override))
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def replica_map(fn: Callable[[int], T], n: int, threads: int | None = None) -> list[T]:
    """Apply fn to replica indices 0..n-1, results ordered by index.

    The output is independent of the worker count: each replica derives its
    randomness from its own index, and results are gathered in index order.
    """
    workers = thread_count(threads)
    if workers <= 1 or n <= 1:
        return [fn(r) for r in range(n)]
    from concurrent.futures import ThreadPoolExecutor  # only the threaded branch pays for it
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))
