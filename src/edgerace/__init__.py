"""Simulation and numerical verification of competing particle systems
evolving by independent increments at the leading edge."""

from .configurations import (Configuration, from_points, gaps, sample_from_tail_intensity,
                             sample_rem)
from .dynamics import EvolutionRecord, EvolutionTrace, evolve, evolve_many, truncation_bias
from .increments import (Cumulant, IncrementModel, Legendre, TailProbability,
                         TailRatio, cumulant, front_velocity, gaussian, legendre, log_mgf,
                         sample, step_cdf, sum_tail, tabulated, tail_curve, tail_ratio,
                         tilt, uniform)
from .laplace import (LaplaceMeasure, TailIntensity, convolve_g, expected_gap,
                      exponential_intensity, gap_functional, measure, normalize,
                      point_mass, shift, steeper, transform)
from .poissonization import (Extraction, LeaderLaw, expected_count_above,
                             extract_laplace, law_distance, leader_laws, z_front)
from .stats import KsResult, ks_distance, ks_two_sample, mpgfl_poisson
from .streams import StreamKey, generator, replica_map, substream

__version__ = "0.1.0"
