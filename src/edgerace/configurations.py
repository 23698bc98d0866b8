"""Ranked particle configurations and Poisson sampling from a tail intensity.

A configuration is the leading window of a (possibly infinite) ranked point
set: descending positions plus a declared window depth stating how far behind
the leader the representation is faithful.  Poisson samples are produced by
inverting the intensity tail at unit-rate arrival times, which keeps the
construction open-ended in depth and bit-reproducible across window choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .laplace import TailIntensity, exponential_intensity
from .streams import StreamKey, generator


@dataclass(frozen=True)
class Configuration:
    """Descending positions; faithful for all particles in [x1 - window_depth, x1]."""

    positions: np.ndarray
    window_depth: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1 or pos.size == 0:
            raise ValueError("a configuration needs at least one particle")
        if np.any(np.diff(pos) > 0):
            raise ValueError("positions must be sorted in descending order")
        if not np.all(np.isfinite(pos)):
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


def normalize_shift(config: Configuration) -> Configuration:
    """Shift so the leader sits at zero; gap structure unchanged."""
    return Configuration(config.positions - config.leader, config.window_depth)


def count_within(config: Configuration, y: float,
                 bound: tuple[float, float] | None = None) -> int | tuple[int, bool]:
    """Number of particles within distance y of the leader.

    With bound=(A, lam) also reports whether the count respects A e^{lam y}.
    Distances beyond the faithful window are refused.
    """
    if y < 0:
        raise ValueError("distance must be nonnegative")
    if y > config.window_depth:
        raise ValueError(f"distance {y} exceeds the faithful window depth {config.window_depth}")
    count = int(np.searchsorted(gaps(config), y, side="right"))
    if bound is None:
        return count
    a, lam = bound
    return count, count <= a * np.exp(lam * y)


def sample_from_tail_intensity(intensity: TailIntensity, depth: int | float,
                               stream: StreamKey) -> Configuration:
    """Poisson configuration whose expected count above x is the intensity tail.

    Positions are the intensity inverse at cumulative unit-rate exponential
    arrivals.  An integer depth asks for that many particles; a float depth is
    a window in position units, extended until the window is exhausted.
    """
    rng = generator(stream)
    if isinstance(depth, (int, np.integer)) and not isinstance(depth, bool):
        n = int(depth)
        if n < 1:
            raise ValueError("particle count must be positive")
        arrivals = np.cumsum(rng.exponential(size=n))
        positions = np.asarray(intensity.inverse(arrivals), dtype=float)
        return Configuration(positions, float(positions[0] - positions[-1]))
    window = float(depth)
    if window <= 0:
        raise ValueError("window depth must be positive")
    blocks: list[np.ndarray] = []
    total = 0.0
    leader: float | None = None
    for _ in range(64):
        arrivals = total + np.cumsum(rng.exponential(size=4096))
        total = float(arrivals[-1])
        pos = np.asarray(intensity.inverse(arrivals), dtype=float)
        if leader is None:
            leader = float(pos[0])
        blocks.append(pos)
        if pos[-1] < leader - window:
            all_pos = np.concatenate(blocks)
            return Configuration(all_pos[all_pos >= leader - window], window)
    raise ValueError("intensity tail too heavy: window not exhausted after 64 blocks")


def sample_rem(s: float, z: float, depth: int | float, stream: StreamKey) -> Configuration:
    """Poisson configuration with the exponential intensity of rate s anchored at z."""
    return sample_from_tail_intensity(exponential_intensity(s, z), depth, stream)
