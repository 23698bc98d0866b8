"""Ranked particle configurations and Poisson sampling from a tail intensity.

A configuration is the leading window of a (possibly infinite) ranked point
set: descending positions plus a declared window depth stating how far behind
the leader the representation is faithful.  A Poisson sample is the top n
points, produced by inverting the intensity tail at unit-rate arrival times,
so it is bit-reproducible from its stream key and its first k points do not
depend on n.  Samples are asked for by particle count only; the window depth
of a sample is where its n-th point falls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .laplace import TailIntensity, exponential_intensity
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
        pos = np.asarray(self.positions, dtype=float).view()
        if pos.ndim != 1 or pos.size == 0:
            raise ValueError("a configuration needs at least one particle")
        if (pos[1:] > pos[:-1]).any():
            raise ValueError("positions must be sorted in descending order")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if self.window_depth < 0:
            raise ValueError("window depth must be nonnegative")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "window_depth", float(self.window_depth))

    @property
    def leader(self) -> float:
        return float(self.positions[0])

    @property
    def size(self) -> int:
        return int(self.positions.size)


def from_points(points: Sequence[float], window_depth: float = np.inf) -> Configuration:
    """Sort arbitrary points descending (stable for ties)."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("cannot build a configuration from an empty list")
    order = np.argsort(-pts, kind="stable")
    return Configuration(pts[order], window_depth)


def gaps(config: Configuration) -> np.ndarray:
    """Distances behind the leader: u_n = x1 - x_n, nondecreasing with u_1 = 0."""
    return config.leader - config.positions


def sample_from_tail_intensity(intensity: TailIntensity, depth: int,
                               stream: StreamKey) -> Configuration:
    """The top `depth` points of the Poisson process whose expected count
    above x is the intensity tail.

    Positions are the intensity inverse at cumulative unit-rate exponential
    arrivals; the window depth is the distance from the first to the last.
    """
    if not isinstance(depth, (int, np.integer)) or isinstance(depth, bool):
        raise ValueError(f"particle count must be an integer, got {depth!r}")
    if depth < 1:
        raise ValueError("particle count must be positive")
    arrivals = np.cumsum(generator(stream).exponential(size=int(depth)))
    positions = np.asarray(intensity.inverse(arrivals), dtype=float)
    return Configuration(positions, float(positions[0] - positions[-1]))


def sample_rem(s: float, z: float, depth: int, stream: StreamKey) -> Configuration:
    """Top `depth` points of the Poisson process with the exponential intensity
    of rate s anchored at z.

    The intensity is built once per (s, z) (`exponential_intensity` caches
    it), so a replica costs its stream, its draws and one inversion.
    """
    return sample_from_tail_intensity(exponential_intensity(s, z), depth, stream)
