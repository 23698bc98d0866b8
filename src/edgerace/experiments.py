"""Named experiments over seeded ensembles, with CSV reports and verdicts.

Every experiment draws all of its randomness from the spec seed through
documented substreams (replica index first, stage index second), so reports
are byte-identical across thread counts and reruns.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import configurations as cf
from . import dynamics as dy
from . import increments as inc
from . import laplace as lp
from . import poissonization as pz
from . import stats as st
from .numerics import fmt17
from .streams import generator, replica_map, substream

DESCRIPTIONS = {
    "velocity": "front speed of exponential-edge ensembles against the cumulant prediction",
    "rem-stationarity": "gap laws before and after one evolution step, plus the exponential first gap",
    "backward-tilt": "increments attached to the top ranks against the reweighted step law",
    "poissonize": "exact versus Poisson-surrogate leader laws and the extraction round trip",
    "contraction": "measure concentration, steepness, gap monotonicity, and atom collapse under convolution",
    "tails": "sharp multi-step tail ratios against the exponential prediction",
    "gaps": "ranked gap means and laws against closed forms and the gap integral",
}

_DEFAULTS: dict[str, dict] = {
    "velocity": {"ensemble": 200, "depth": 10_000, "taus": [200],
                 "tolerances": {"velocity_band": 0.05}},
    "rem-stationarity": {"ensemble": 10_000, "depth": 3000, "k_max": 5, "battery": [],
                         "tolerances": {"alpha": 0.01, "battery_sigmas": 4.0}},
    "backward-tilt": {"ensemble": 1200, "depth": 20_000, "top": 50,
                      "tolerances": {"alpha": 0.01, "truncation": 1e-4}},
    "poissonize": {"ensemble": 100, "depth": 10_000, "taus": [1, 32],
                   "roundtrip_tau": 16, "roundtrip_reps": 2000,
                   "tolerances": {"alpha": 0.01, "min_ratio": 2.0}},
    "contraction": {"corpus": 1000,
                    "tolerances": {"slack": 1e-9, "atom_threshold": 1e-3,
                                   "oracle_margin": 1}},
    "tails": {"taus": [25, 100, 400], "tau_main": 100, "q": 0.3, "x": 1.0,
              "mc_samples": 1_000_000, "tolerances": {"relative": 0.05}},
    "gaps": {"ensemble": 10_000, "n_max": 10, "k_max": 5,
             "tolerances": {"alpha": 0.01, "sigmas": 3.0, "quadrature": 1e-8}},
}

# each model kind's keys and defaults; None marks a list with no default
_MODELS: dict[str, dict] = {"gaussian": {"mean": 0.0, "variance": 1.0},
                            "uniform": {"lo": 0.0, "hi": 1.0, "grid_points": 2001},
                            "tabulated": {"grid": None, "density": None}}


class SpecError(ValueError):
    """Configuration problems that should surface as usage errors (exit 2)."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A run's configuration as `parse_spec` settled it; `model` and `params` are as given."""

    name: str
    seed: int
    model: dict
    increment_model: inc.IncrementModel = field(compare=False)  # arrays break ==
    s: float
    threads: int
    out: str | None
    params: dict
    options: dict
    tolerances: dict


def _number(key: str, value, minimum: float, integer: bool = False) -> float | int:
    """A JSON number of at least `minimum`: a whole number when `integer`, else finite."""
    valid = isinstance(value, (int, float)) and not isinstance(value, bool)
    if valid and integer:
        valid = isinstance(value, int) or value.is_integer()
    elif valid:
        valid = abs(value) <= sys.float_info.max
    if not valid:
        kind = "an integer" if integer else "a finite number"
        raise SpecError(f"{key} must be {kind}, got {value!r}")
    if value < minimum:
        raise SpecError(f"{key} must be at least {minimum}, got {value!r}")
    return int(value) if integer else float(value)


def _check_param(key: str, value, default):
    """One option or model value, checked and typed like its default; a list is nonempty,
    entries typed like the default's first (None: finite numbers), a battery as given."""
    if isinstance(default, int):
        return _number(key, value, 1, integer=True)
    if isinstance(default, float):
        return _number(key, value, -math.inf)
    if key == "battery":
        if not isinstance(value, list) or not all(
                isinstance(f, dict) and set(f) == {"x", "y"} for f in value):
            raise SpecError("battery must be a list of objects with keys x and y only")
        for f in value:
            x = _check_param("battery x", f["x"], None)
            if len(x) != len(_check_param("battery y", f["y"], None)):
                raise SpecError(f"battery x and y must have the same length, got {f!r}")
            if not np.all(np.diff(x) > 0):
                raise SpecError(f"battery x must be strictly increasing, got {f['x']!r}")
        return value
    if not isinstance(value, list) or not value:
        raise SpecError(f"{key} must be a nonempty list of numbers, got {value!r}")
    return [_check_param(f"{key} entry", v, default[0] if default else 0.0) for v in value]


def _build_model(model: dict) -> inc.IncrementModel:
    """The model a config names, each value checked against `_MODELS`."""
    kind = model.get("kind")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise SpecError(f"unknown model kind {kind!r}")
    schema = _MODELS[kind]
    values = {"kind": kind, **schema}
    for key, value in model.items():
        if key not in values:
            raise SpecError(f"unknown key {key!r} for a {kind} model "
                            f"(known: {', '.join(schema)})")
        if key != "kind":
            values[key] = _check_param(f"{kind} {key}", value, schema[key])
    if None in values.values():  # only the tabulated kind has keys without a default
        raise SpecError(f"a {kind} model needs {' and '.join(schema)}")
    return inc.model_from_dict(values)


def parse_spec(data: dict) -> ExperimentSpec:
    if not isinstance(data, dict):
        raise SpecError("configuration must be a JSON object")
    name = data.get("experiment")
    if not isinstance(name, str) or name not in DESCRIPTIONS:
        raise SpecError(f"unknown experiment name {name!r}; see `edgerace list`")
    if "seed" not in data:
        raise SpecError("a seed is required; wall-clock seeding is not supported")
    seed = _number("seed", data["seed"], 0, integer=True)
    model = data.get("model", {"kind": "gaussian", **_MODELS["gaussian"]})
    if not isinstance(model, dict):
        raise SpecError("model must be a JSON object")
    try:
        increment_model = _build_model(model)
    except (ValueError, OverflowError) as err:  # SpecError included
        raise SpecError(f"bad model specification: {err}") from None
    s = _number("s", data.get("s", 1.0), 0.0)
    if s <= 0:
        raise SpecError(f"s must be positive, got {s!r}")
    # the model picks its tail formula; the key stays so that configs and
    # manifests that carry "auto" keep working
    if data.get("backend", "auto") != "auto":
        raise SpecError(f"backend must be 'auto', got {data['backend']!r}")
    threads = _number("threads", data.get("threads", 1), 1, integer=True)
    out = data.get("out")
    if "out" in data and not (isinstance(out, str) and out):
        raise SpecError(f"out must be a nonempty string, got {out!r}")
    known = {"experiment", "seed", "model", "s", "backend", "threads", "out",
             "tolerances"}
    params = {k: v for k, v in data.items() if k not in known}
    defaults = _DEFAULTS[name]
    for k, v in params.items():
        if k not in defaults:
            raise SpecError(f"unknown option {k!r} for experiment {name}")
        params[k] = _check_param(k, v, defaults[k])
    options = {k: params.get(k, v) for k, v in defaults.items() if k != "tolerances"}
    if name == "gaps" and options["k_max"] > options["n_max"] + 1:
        raise SpecError(f"k_max must be at most n_max + 1, the gaps a replica holds; "
                        f"got k_max {options['k_max']!r} with n_max {options['n_max']!r}")
    if name == "velocity" and len(options["taus"]) != 1:
        raise SpecError(f"velocity runs one tau; got taus {options['taus']!r}")
    if name in ("tails", "poissonize") and not (
            len(options["taus"]) >= 2 and np.all(np.diff(options["taus"]) > 0)):
        raise SpecError(f"{name} compares taus: it needs at least two, strictly increasing; "
                        f"got taus {options['taus']!r}")
    if name == "rem-stationarity" and options["k_max"] >= options["depth"]:
        raise SpecError(f"k_max must be below depth, the particles a replica holds; "
                        f"got k_max {options['k_max']!r} with depth {options['depth']!r}")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SpecError("tolerances must be a JSON object")
    bad_tol = set(tolerances) - set(defaults["tolerances"])
    if bad_tol:
        raise SpecError(f"unknown tolerance keys {sorted(bad_tol)} for experiment {name}")
    tolerances = {**defaults["tolerances"], **{
        k: _number(f"tolerance {k}", v, 0.0, integer=isinstance(defaults["tolerances"][k], int))
        for k, v in tolerances.items()}}
    if "alpha" in tolerances and tolerances["alpha"] not in st.KS_COEFF:
        raise SpecError(f"tolerance alpha must be one of {sorted(st.KS_COEFF)}")
    return ExperimentSpec(name=name, seed=seed, model=model, increment_model=increment_model,
                          s=s, threads=threads, out=out, params=params, options=options,
                          tolerances=tolerances)


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    target: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    metrics: list[Metric]
    tables: dict[str, tuple[list[str], list[list]]]  # name -> (header, rows)

    @property
    def verdict(self) -> bool:
        return all(m.passed for m in self.metrics)


def _band_metric(name: str, value: float, target: float, band: float) -> Metric:
    return Metric(name, float(value), float(target), float(band),
                  bool(abs(value - target) <= band))


def _below_metric(name: str, value: float, ceiling: float) -> Metric:
    return Metric(name, float(value), 0.0, float(ceiling), bool(value < ceiling))


# ---------------------------------------------------------------------------
# experiment bodies


def _spacings(positions: np.ndarray) -> np.ndarray:
    """Gaps x_k - x_{k+1} between consecutive ranks, bit for bit -np.diff
    (a tie gives -0.0) without its per-call wrapper."""
    return -(positions[1:] - positions[:-1])


def _run_velocity(spec: ExperimentSpec) -> ExperimentReport:
    model = spec.increment_model
    (tau,) = spec.options["taus"]
    depth = spec.options["depth"]
    reps = spec.options["ensemble"]
    band = spec.tolerances["velocity_band"]
    target = inc.front_velocity(model, spec.s)
    key = (spec.seed,)

    def one(r: int) -> tuple[float, dy.EvolutionTrace | None]:
        config = cf.sample_rem(spec.s, 0.0, depth, substream(key, r, 0))
        trace = dy.evolve_many(config, model, tau, substream(key, r, 1))
        vel = (trace.final.leader - config.leader) / tau
        return vel, trace if r == 0 else None

    results = replica_map(one, reps, spec.threads)
    velocities = np.array([v for v, _ in results])
    trace = results[0][1]
    metrics = [_band_metric("mean_step_displacement", velocities.mean(), target, band)]
    tables = {
        "velocities": (["replica", "velocity"],
                       [[r, fmt17(v)] for r, v in enumerate(velocities)]),
        "trace_sample": (["step", "leader_position", "displacement", "dropped_count"],
                         [[t + 1, fmt17(trace.leaders[t]), fmt17(trace.displacements[t]),
                           int(trace.dropped[t])] for t in range(tau)]),
    }
    return ExperimentReport(spec, metrics, tables)


def _run_rem_stationarity(spec: ExperimentSpec) -> ExperimentReport:
    model = spec.increment_model
    reps = spec.options["ensemble"]
    depth = spec.options["depth"]
    k_max = spec.options["k_max"]
    battery = [(np.asarray(f["x"], dtype=float), np.asarray(f["y"], dtype=float))
               for f in spec.options["battery"]]
    alpha = spec.tolerances["alpha"]
    sigmas = spec.tolerances["battery_sigmas"]
    key = (spec.seed,)

    def one(r: int) -> tuple[np.ndarray, ...]:
        config = cf.sample_rem(spec.s, 0.0, depth, substream(key, r, 0))
        record = dy.evolve(config, model, substream(key, r, 1))
        if record.post.size <= k_max:
            raise ValueError(f"replica {r} keeps {record.post.size} particles after the "
                             f"step, too few for k_max {k_max}; raise depth")
        pre = _spacings(config.positions[:k_max + 1])
        post = _spacings(record.post.positions[:k_max + 1])
        if not battery:
            return pre, post
        f_pre = np.array([st.mpgfl_term(config, fx, fy) for fx, fy in battery])
        f_post = np.array([st.mpgfl_term(record.post, fx, fy) for fx, fy in battery])
        return pre, post, f_pre, f_post

    results = replica_map(one, reps, spec.threads)
    pre = np.stack([r[0] for r in results])
    post = np.stack([r[1] for r in results])
    metrics = []
    rows = []
    for k in range(1, k_max + 1):
        res = st.ks_two_sample(pre[:, k - 1], post[:, k - 1])
        metrics.append(_below_metric(f"ks_gap_{k}_pre_vs_post", res.statistic,
                                     res.critical[alpha]))
        rows.append([k, fmt17(res.statistic), fmt17(res.critical[alpha])])
    for label, sample in (("pre", pre[:, 0]), ("post", post[:, 0])):
        res = st.ks_distance(sample, lambda u: 1.0 - np.exp(-spec.s * np.asarray(u)))
        metrics.append(_below_metric(f"ks_first_gap_{label}_exponential", res.statistic,
                                     res.critical[alpha]))
        rows.append([label, fmt17(res.statistic), fmt17(res.critical[alpha])])
    if battery:
        f_pre = np.stack([r[2] for r in results])
        f_post = np.stack([r[3] for r in results])
        for i in range(len(battery)):
            a, b = f_pre[:, i], f_post[:, i]
            gap = abs(a.mean() - b.mean())
            combined = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(reps)
            metrics.append(_below_metric(f"mpgfl_battery_{i}_pre_vs_post", gap,
                                         sigmas * combined))
            rows.append([f"battery_{i}", fmt17(gap), fmt17(sigmas * combined)])
    tables = {"ks_statistics": (["gap_or_label", "statistic", "critical"], rows)}
    return ExperimentReport(spec, metrics, tables)


def _run_backward_tilt(spec: ExperimentSpec) -> ExperimentReport:
    model = spec.increment_model
    reps = spec.options["ensemble"]
    depth = spec.options["depth"]
    top = spec.options["top"]
    alpha = spec.tolerances["alpha"]
    cert_tol = spec.tolerances["truncation"]
    key = (spec.seed,)
    tilted = inc.tilt(model, spec.s)

    def one(r: int) -> tuple[np.ndarray, float]:
        config = cf.sample_rem(spec.s, 0.0, depth, substream(key, r, 0))
        record = dy.evolve(config, model, substream(key, r, 1))
        if record.post.size < top:
            raise ValueError(f"replica {r} keeps {record.post.size} particles after the "
                             f"step, fewer than top {top}; raise depth or lower top")
        attached = record.increments[record.permutation[:top]]
        cert = math.nan
        if r < 5:  # certify the window on a handful of replicas
            cert = dy.truncation_bias(config, model, 1,
                                      cutoff=record.post.positions[top - 1])
        return attached, cert

    results = replica_map(one, reps, spec.threads)
    sample = np.concatenate([a for a, _ in results])
    certificate = max(c for _, c in results if not math.isnan(c))
    res = st.ks_distance(sample, lambda h: inc.step_cdf(tilted, h))
    metrics = [
        _below_metric("ks_attached_increments_tilted", res.statistic, res.critical[alpha]),
        _below_metric("truncation_certificate", certificate, cert_tol),
    ]
    qs = np.linspace(0.005, 0.995, 199)
    quantiles = np.quantile(sample, qs)
    tables = {"increment_quantiles": (["quantile", "value"],
                                      [[fmt17(q), fmt17(v)] for q, v in zip(qs, quantiles)])}
    return ExperimentReport(spec, metrics, tables)


def _run_poissonize(spec: ExperimentSpec) -> ExperimentReport:
    model = spec.increment_model
    n_configs = spec.options["ensemble"]
    depth = spec.options["depth"]
    taus = spec.options["taus"]
    rt_tau = spec.options["roundtrip_tau"]
    rt_reps = spec.options["roundtrip_reps"]
    alpha = spec.tolerances["alpha"]
    min_ratio = spec.tolerances["min_ratio"]
    key = (spec.seed,)

    def distances(i: int) -> list[float]:
        config = cf.sample_rem(spec.s, 0.0, depth, substream(key, i, 0))
        out = []
        for tau in taus:
            exact, surrogate = pz.leader_laws(config, model, tau)
            out.append(pz.law_distance(exact, surrogate))
        return out

    dist = np.array(replica_map(distances, n_configs, spec.threads))
    medians = np.median(dist, axis=0)
    ratio = medians[0] / medians[-1]

    base = cf.sample_rem(spec.s, 0.0, depth, substream(key, 10 ** 6, 0))
    omega = cf.Configuration(base.positions, np.inf)
    try:
        ext = pz.extract_laplace(omega, model, rt_tau)
    except ValueError as err:
        raise ValueError(f"poissonize round trip at roundtrip_tau {rt_tau}: {err}") from err
    intensity = lp.TailIntensity(ext.measure, ext.z)

    rng = generator(substream(key, 10 ** 6, 1))
    arrivals = np.cumsum(rng.exponential(size=(rt_reps, 2)), axis=1)
    pts = np.asarray(intensity.inverse(arrivals.ravel())).reshape(rt_reps, 2)
    gap_resampled = pts[:, 0] - pts[:, 1]

    def evolved_gap(r: int) -> float:
        draws = inc.sample(model, rt_tau * omega.size, substream(key, 10 ** 6, 2, r))
        walk = omega.positions + draws.reshape(rt_tau, omega.size).sum(axis=0)
        two = np.partition(walk, walk.size - 2)[-2:]
        return float(two.max() - two.min())

    gap_evolved = np.array(replica_map(evolved_gap, rt_reps, spec.threads))
    rt = st.ks_two_sample(gap_resampled, gap_evolved)

    metrics = [
        Metric("law_distance_median_ratio", float(ratio), float(min_ratio),
               float(min_ratio), bool(ratio >= min_ratio)),
        _below_metric("roundtrip_first_gap_ks", rt.statistic, rt.critical[alpha]),
    ]
    rows = [[i, taus[j], fmt17(dist[i, j])] for i in range(n_configs) for j in range(len(taus))]
    tables = {
        "law_distances": (["config", "tau", "distance"], rows),
        "extracted_measure": (["u", "w"],
                              [[fmt17(u), fmt17(w)] for u, w in zip(ext.measure.u, ext.measure.w)]),
    }
    return ExperimentReport(spec, metrics, tables)


def _collapse_oracle(lam1: float, lam2: float, threshold: float) -> int:
    """Weight-ratio recursion for an even two-atom measure at u = 1 and u = 2.

    Convolution multiplies w1 by e^{lam1 - z} and w2 by e^{lam2 - 2z}, lam_k
    being the log moment at u = k, with z the shift that restores unit mass.
    With a = log w1 + lam1, b = log w2 + lam2 and y = e^{-z}, that mass is
    e^a y + e^b y^2 = 1, whose positive root is y = 2 / (e^a + sqrt(e^{2a} +
    4 e^b)).  z is taken in log space, so a log moment far above 709 (a model
    shifted far up) cannot overflow.  Returns the first iteration whose w1
    falls below threshold.
    """
    lw1 = lw2 = math.log(0.5)
    for it in range(1, 500):
        a, b = lw1 + lam1, lw2 + lam2
        z = np.logaddexp(a, 0.5 * np.logaddexp(2.0 * a, math.log(4.0) + b)) - math.log(2.0)
        lw1 += lam1 - z
        lw2 += lam2 - 2 * z
        if math.exp(lw1) < threshold:
            return it
    raise ArithmeticError("oracle recursion failed to collapse")


def _run_contraction(spec: ExperimentSpec) -> ExperimentReport:
    model = spec.increment_model
    corpus_n = spec.options["corpus"]
    slack = spec.tolerances["slack"]
    threshold = spec.tolerances["atom_threshold"]
    margin = spec.tolerances["oracle_margin"]
    key = (spec.seed,)
    corpus = lp.random_corpus(corpus_n, substream(key, 0), model.lambda_hi)
    levels = np.geomspace(1e-4, 1e4, 81)

    concentration_bad = 0
    steepness_bad = 0
    gap_bad = 0
    for rho in corpus:
        out = lp.convolve_g(rho, model)
        if np.any(np.cumsum(out.w) > np.cumsum(rho.w) + slack):
            concentration_bad += 1
        if not lp.steeper(out, rho, levels, slack=slack):
            steepness_bad += 1
        for u in (0.5, 1.5, 3.0):
            if not lp.gap_functional(out, u) < lp.gap_functional(rho, u) - slack:
                gap_bad += 1
                break

    single = lp.point_mass(1.0 + 0.5 * float(generator(substream(key, 1)).random()), 1.0)
    single_out = lp.convolve_g(single, model)
    single_dev = max(abs(lp.gap_functional(single_out, u) - lp.gap_functional(single, u))
                     for u in (0.5, 2.0))

    # atom collapse: iterate the convolution on an even two-atom measure and
    # compare against the weight-ratio recursion solved independently
    expected_iters = _collapse_oracle(inc.log_mgf(model, 1.0), inc.log_mgf(model, 2.0),
                                      threshold)
    rho = lp.measure([(1.0, 0.5), (2.0, 0.5)])
    track_rows = []
    iters = None
    for it in range(1, 500):
        z, rho = lp.convolution_shift(rho, model)
        track_rows.append([it, fmt17(rho.w[0]), fmt17(rho.w[1]), fmt17(z)])
        if rho.w[0] < threshold:
            iters = it
            break
    if iters is None:
        raise ArithmeticError("iterated convolution failed to collapse")

    metrics = [
        _below_metric("concentration_violations", concentration_bad, 1),
        _below_metric("steepness_violations", steepness_bad, 1),
        _below_metric("gap_monotonicity_violations", gap_bad, 1),
        _below_metric("single_atom_gap_deviation", single_dev, 1e-9),
        _band_metric("collapse_iterations", iters, expected_iters, margin),
    ]
    tables = {"collapse_track": (["iteration", "weight_small_u", "weight_large_u", "shift"],
                                 track_rows)}
    return ExperimentReport(spec, metrics, tables)


def _run_tails(spec: ExperimentSpec) -> ExperimentReport:
    model = spec.increment_model
    taus = spec.options["taus"]
    tau_main = spec.options["tau_main"]
    q = spec.options["q"]
    x = spec.options["x"]
    mc_samples = spec.options["mc_samples"]
    rel_tol = spec.tolerances["relative"]
    key = (spec.seed,)

    exact = inc.tail_ratio(model, tau_main, q, x)
    mc = inc.tail_ratio(model, tau_main, q, x, mc_samples=mc_samples,
                        mc_stream=substream(key, 0))
    rel_err = abs(mc.ratio - exact.ratio) / exact.ratio

    rows = []
    diffs = []
    for tau in taus:
        r = inc.tail_ratio(model, tau, q, x)
        diffs.append(abs(r.ratio - r.prediction))
        rows.append([tau, fmt17(r.ratio), fmt17(r.prediction),
                     fmt17(abs(r.ratio - r.prediction))])
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))

    metrics = [
        _below_metric("mc_vs_exact_relative_error", rel_err, rel_tol),
        Metric("discrepancy_strictly_decreasing", float(decreasing), 1.0, 0.0, decreasing),
    ]
    tables = {"tail_ratios": (["tau", "ratio", "prediction", "discrepancy"], rows)}
    return ExperimentReport(spec, metrics, tables)


def _run_gaps(spec: ExperimentSpec) -> ExperimentReport:
    reps = spec.options["ensemble"]
    n_max = spec.options["n_max"]
    k_max = spec.options["k_max"]
    alpha = spec.tolerances["alpha"]
    sigmas = spec.tolerances["sigmas"]
    quad_tol = spec.tolerances["quadrature"]
    key = (spec.seed,)

    def one(r: int) -> np.ndarray:
        config = cf.sample_rem(spec.s, 0.0, n_max + 2, substream(key, r))
        return _spacings(config.positions)

    gaps = np.stack(replica_map(one, reps, spec.threads))
    metrics = []
    rows = []
    for n in range(1, n_max + 1):
        vals = gaps[:, n - 1]
        target = 1.0 / (n * spec.s)
        se = vals.std(ddof=1) / math.sqrt(reps)
        metrics.append(_band_metric(f"mean_gap_{n}", vals.mean(), target, sigmas * se))
        rows.append([n, fmt17(vals.mean()), fmt17(target), fmt17(se)])
    for k in range(1, k_max + 1):
        res = st.ks_distance(gaps[:, k - 1],
                             lambda u, k=k: 1.0 - np.exp(-k * spec.s * np.asarray(u)))
        metrics.append(_below_metric(f"ks_gap_{k}_exponential", res.statistic,
                                     res.critical[alpha]))
    rem = lp.point_mass(spec.s, 1.0)
    for n in sorted({1, 2, n_max}):
        err = abs(lp.expected_gap(rem, n) - 1.0 / (n * spec.s))
        metrics.append(_below_metric(f"quadrature_gap_error_{n}", err, quad_tol))
    tables = {"gap_means": (["rank", "mean", "target", "se"], rows)}
    return ExperimentReport(spec, metrics, tables)


_RUNNERS: dict[str, Callable[[ExperimentSpec], ExperimentReport]] = {
    "velocity": _run_velocity,
    "rem-stationarity": _run_rem_stationarity,
    "backward-tilt": _run_backward_tilt,
    "poissonize": _run_poissonize,
    "contraction": _run_contraction,
    "tails": _run_tails,
    "gaps": _run_gaps,
}


def run(spec: ExperimentSpec) -> ExperimentReport:
    return _RUNNERS[spec.name](spec)  # parse_spec has checked the name


def _atomic_write(path: str, text: str) -> None:
    # a temp name per process and thread, so concurrent writers never share one
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, outdir: str) -> list[str]:
    """report.csv, the per-experiment data CSVs and then manifest.json, each atomically.

    manifest.json is written last, as the marker that the report is complete.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    rows = [[m.name, fmt17(m.value), fmt17(m.target), fmt17(m.tolerance),
             str(m.passed).lower()] for m in report.metrics]
    path = os.path.join(outdir, "report.csv")
    _atomic_write(path, _csv_text(["metric", "value", "target", "tolerance", "passed"], rows))
    written.append(path)
    for name, (header, table_rows) in report.tables.items():
        path = os.path.join(outdir, f"{name}.csv")
        _atomic_write(path, _csv_text(header, table_rows))
        written.append(path)
    manifest = {
        "experiment": report.spec.name,
        "seed": report.spec.seed,
        "model": report.spec.model,
        "s": report.spec.s,
        "backend": "auto",  # the only value the key takes; recorded manifests carry it
        "params": report.spec.params,
        "tolerances": report.spec.tolerances,
        "metrics": {m.name: bool(m.passed) for m in report.metrics},
        "verdict": "pass" if report.verdict else "fail",
    }
    path = os.path.join(outdir, "manifest.json")
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(path)
    return written
