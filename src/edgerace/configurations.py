"""Ranked particle configurations and REM samples.

A configuration is the leading window of a (possibly infinite) ranked point
set: descending positions plus a declared window depth stating how far behind
the leader the representation is faithful.  A REM sample is the top n points
of the Poisson process with intensity e^{-s(x - z)}, read off unit-rate
arrival times in closed form, so it is bit-reproducible from its stream key
and its first k points do not depend on n.  Samples are asked for by particle
count only; the window depth of a sample is where its n-th point falls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import frozen
from .streams import StreamKey, generator


@dataclass(frozen=True)
class Configuration:
    """Descending positions; faithful for all particles in [x1 - window_depth, x1].

    Given a float64 array, the instance shares its memory and holds a
    read-only view of it; the caller's array stays writable.
    """

    positions: np.ndarray
    window_depth: float

    def __post_init__(self):
        pos = frozen(self.positions)
        if pos.ndim != 1 or pos.size == 0:
            raise ValueError("a configuration needs at least one particle")
        if (pos[1:] > pos[:-1]).any():
            raise ValueError("positions must be sorted in descending order")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if not self.window_depth >= 0:  # written so that NaN fails too
            raise ValueError(f"window depth must be nonnegative, got {self.window_depth!r}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "window_depth", float(self.window_depth))

    @property
    def leader(self) -> float:
        return float(self.positions[0])

    @property
    def size(self) -> int:
        return int(self.positions.size)


def gaps(config: Configuration) -> np.ndarray:
    """Distances behind the leader: u_n = x1 - x_n, nondecreasing with u_1 = 0."""
    return config.leader - config.positions


def sample_rem(s: float, z: float, depth: int, stream: StreamKey) -> Configuration:
    """Top `depth` points of the Poisson process with the exponential intensity
    of rate s anchored at z.

    By the mapping theorem the points are z - log(Gamma_k) / s at the
    cumulative unit-rate exponential arrivals Gamma_k; the window depth is the
    distance from the first to the last.
    """
    if not 0.0 < s < np.inf:  # written so that NaN fails too
        raise ValueError(f"rate must be positive and finite, got {s!r}")
    if not isinstance(depth, (int, np.integer)) or isinstance(depth, bool):
        raise ValueError(f"particle count must be an integer, got {depth!r}")
    if depth < 1:
        raise ValueError("particle count must be positive")
    positions = z - np.log(np.cumsum(generator(stream).exponential(size=int(depth)))) / s
    return Configuration(positions, float(positions[0] - positions[-1]))
