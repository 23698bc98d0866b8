"""Deterministic random streams for reproducible parallel Monte Carlo.

A stream key is a tuple of non-negative integers.  Every random quantity in
the library is drawn from a generator derived from such a key, and replicas,
steps and stages extend the key with fixed indices.  Results therefore depend
only on the key material, never on wall clock, thread count or call order.
A replica map runs on as many threads as its caller passes; an experiment
passes the `threads` of its configuration, 1 unless the config sets it.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

StreamKey = tuple[int, ...]

T = TypeVar("T")


def substream(key: Sequence[int], *indices: int) -> StreamKey:
    """Derive a child key by appending indices to the parent key."""
    return (*map(int, key), *map(int, indices))


def generator(key: Sequence[int]) -> np.random.Generator:
    """PCG64 generator seeded from the key via SeedSequence entropy pooling."""
    return np.random.default_rng(np.random.SeedSequence(list(map(int, key))))


def replica_map(fn: Callable[[int], T], n: int, threads: int) -> list[T]:
    """Apply fn to replica indices 0..n-1, results ordered by index.

    The output is independent of the worker count: each replica derives its
    randomness from its own index, and results are gathered in index order.
    """
    if threads <= 1 or n <= 1:
        return [fn(r) for r in range(n)]
    from concurrent.futures import ThreadPoolExecutor  # only the threaded branch pays for it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))
