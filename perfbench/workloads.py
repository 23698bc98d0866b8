"""Benchmark workloads: named lists of edgerace run configs built from a seed.

Sizes are cut down from the acceptance criteria so that one iteration (every
config of the workload run once through the CLI) takes a few seconds, which
lets a run of a few tens of seconds take several iterations and report their
median.  The shapes (models, depths, taus) are those of the criteria.
"""

from __future__ import annotations

from dataclasses import dataclass

GAUSSIAN = {"kind": "gaussian", "mean": 0.0, "variance": 1.0}
UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 1.0}


@dataclass(frozen=True)
class Workload:
    why: str
    runs: tuple[tuple[str, dict], ...]  # (label, config without seed)
    item_key: str                       # config key that counts the work items

    def configs(self, seed: int) -> list[tuple[str, dict]]:
        """Configs handed to the program: single thread, explicit backend."""
        return [(label, {**cfg, "seed": int(seed), "threads": 1, "backend": "auto"})
                for label, cfg in self.runs]

    @property
    def items(self) -> int:
        return sum(int(cfg[self.item_key]) for _, cfg in self.runs)


WORKLOADS: dict[str, Workload] = {
    # laplace and numerics do almost all the work (log_transform on measures
    # of 2-6 atoms inside gap_functional); the uniform model adds the per-atom
    # cumulant quadrature that the gaussian closed form skips
    "contraction": Workload(
        why="laplace and numerics hot path: gap_functional and log_transform on small "
            "measures; uniform model adds per-atom cumulant quadrature",
        runs=(("gaussian", {"experiment": "contraction", "model": GAUSSIAN, "corpus": 4}),
              ("uniform", {"experiment": "contraction", "model": UNIFORM, "corpus": 4})),
        item_key="corpus"),
    # the only user of poissonization; one TailIntensity.inverse call with
    # 2 * roundtrip_reps levels on a ~10^4-atom measure takes the Newton path
    "poissonize": Workload(
        why="only poissonization user: leader_laws on a 2001 x 10^4 grid, and one "
            "memory-bound Newton TailIntensity.inverse on a 10^4-atom measure",
        runs=(("gaussian", {"experiment": "poissonize", "model": GAUSSIAN, "ensemble": 1,
                            "depth": 10_000, "taus": [1, 32], "roundtrip_tau": 16,
                            "roundtrip_reps": 200}),),
        item_key="ensemble"),
    # criterion 2's shape: many short one-step replicas, so per-call overhead
    # in streams, configurations and dynamics dominates; the only stats user
    "stationarity": Workload(
        why="many one-step replicas: per-call overhead in streams, configurations and "
            "dynamics dominates; only workload that exercises stats",
        runs=(("gaussian", {"experiment": "rem-stationarity", "model": GAUSSIAN,
                            "ensemble": 2000, "depth": 3000, "k_max": 5}),),
        item_key="ensemble"),
}
