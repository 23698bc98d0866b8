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
from scipy.special import ndtr

from . import configurations as cf
from . import dynamics as dy
from . import increments as inc
from . import laplace as lp
from . import poissonization as pz
from . import stats as st
from .numerics import fmt17
from .streams import StreamKey, generator, replica_map, substream

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


class SpecError(ValueError):
    """Configuration problems that should surface as usage errors (exit 2)."""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    seed: int
    model: dict = field(default_factory=lambda: {"kind": "gaussian", "mean": 0.0, "variance": 1.0})
    s: float = 1.0
    threads: int | None = None
    out: str | None = None
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def param(self, key: str):
        if key in self.params:
            return self.params[key]
        return _DEFAULTS[self.name][key]

    def tolerance(self, key: str) -> float:
        if key in self.tolerances:
            return self.tolerances[key]
        return _DEFAULTS[self.name]["tolerances"][key]

    def key(self) -> StreamKey:
        return (int(self.seed),)


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


def _check_param(key: str, value, default) -> None:
    """Type- and range-check one experiment option against its default's type."""
    if isinstance(default, int):
        _number(key, value, 1, integer=True)
    elif isinstance(default, float):
        _number(key, value, -math.inf)
    elif key == "taus":
        if not isinstance(value, list) or not value:
            raise SpecError(f"taus must be a nonempty list of integers, got {value!r}")
        for tau in value:
            _number("taus entry", tau, 1, integer=True)
    elif key == "battery":
        if not isinstance(value, list) or not all(
                isinstance(f, dict) and {"x", "y"} <= set(f) for f in value):
            raise SpecError("battery must be a list of objects with keys x and y")


def parse_spec(data: dict) -> ExperimentSpec:
    if not isinstance(data, dict):
        raise SpecError("configuration must be a JSON object")
    name = data.get("experiment")
    if name not in DESCRIPTIONS:
        raise SpecError(f"unknown experiment name {name!r}; see `edgerace list`")
    if "seed" not in data:
        raise SpecError("a seed is required; wall-clock seeding is not supported")
    seed = _number("seed", data["seed"], 0, integer=True)
    model = data.get("model", {"kind": "gaussian", "mean": 0.0, "variance": 1.0})
    if not isinstance(model, dict):
        raise SpecError("model must be a JSON object")
    try:
        inc.model_from_dict(model)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"bad model specification: {err}") from None
    s = _number("s", data.get("s", 1.0), 0.0)
    if s <= 0:
        raise SpecError(f"s must be positive, got {s!r}")
    # the model picks its tail formula; the key stays so that configs and
    # manifests that carry "auto" keep working
    if data.get("backend", "auto") != "auto":
        raise SpecError(f"backend must be 'auto', got {data['backend']!r}")
    threads = data.get("threads")
    if threads is not None:
        threads = _number("threads", threads, 1, integer=True)
    known = {"experiment", "seed", "model", "s", "backend", "threads", "out",
             "tolerances"}
    params = {k: v for k, v in data.items() if k not in known}
    defaults = _DEFAULTS[name]
    for k, v in params.items():
        if k not in defaults:
            raise SpecError(f"unknown option {k!r} for experiment {name}")
        _check_param(k, v, defaults[k])
    options = {**defaults, **params}
    if name == "gaps" and options["k_max"] > options["n_max"] + 1:
        raise SpecError(f"k_max must be at most n_max + 1, the gaps a replica holds; "
                        f"got k_max {options['k_max']!r} with n_max {options['n_max']!r}")
    if name == "rem-stationarity" and options["k_max"] >= options["depth"]:
        raise SpecError(f"k_max must be below depth, the particles a replica holds; "
                        f"got k_max {options['k_max']!r} with depth {options['depth']!r}")
    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise SpecError("tolerances must be a JSON object")
    bad_tol = set(tolerances) - set(defaults["tolerances"])
    if bad_tol:
        raise SpecError(f"unknown tolerance keys {sorted(bad_tol)} for experiment {name}")
    for k, v in tolerances.items():
        _number(f"tolerance {k}", v, 0.0)
    if "alpha" in tolerances and tolerances["alpha"] not in st.KS_COEFF:
        raise SpecError(f"tolerance alpha must be one of {sorted(st.KS_COEFF)}")
    return ExperimentSpec(name=name, seed=seed, model=model, s=s, threads=threads,
                          out=data.get("out"), params=params, tolerances=dict(tolerances))


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
    tolerances_used: dict[str, float]

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
    model = inc.model_from_dict(spec.model)
    tau = int(spec.param("taus")[0])
    depth = int(spec.param("depth"))
    reps = int(spec.param("ensemble"))
    band = spec.tolerance("velocity_band")
    target = inc.front_velocity(model, spec.s)
    key = spec.key()

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
    return ExperimentReport(spec, metrics, tables,
                            {"velocity_band": band, "target": target})


def _run_rem_stationarity(spec: ExperimentSpec) -> ExperimentReport:
    model = inc.model_from_dict(spec.model)
    reps = int(spec.param("ensemble"))
    depth = int(spec.param("depth"))
    k_max = int(spec.param("k_max"))
    battery = [(np.asarray(f["x"], dtype=float), np.asarray(f["y"], dtype=float))
               for f in spec.param("battery")]
    alpha = spec.tolerance("alpha")
    sigmas = spec.tolerance("battery_sigmas")
    key = spec.key()

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
    return ExperimentReport(spec, metrics, tables,
                            {"alpha": alpha, "battery_sigmas": sigmas})


def _run_backward_tilt(spec: ExperimentSpec) -> ExperimentReport:
    model = inc.model_from_dict(spec.model)
    reps = int(spec.param("ensemble"))
    depth = int(spec.param("depth"))
    top = int(spec.param("top"))
    alpha = spec.tolerance("alpha")
    cert_tol = spec.tolerance("truncation")
    key = spec.key()
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
    if model.kind == "gaussian":
        m, v = tilted.params
        reference = lambda h: ndtr((np.asarray(h) - m) / math.sqrt(v))
    else:
        reference = lambda h: 1.0 - np.asarray(inc.step_tail(tilted, np.asarray(h)))
    res = st.ks_distance(sample, reference)
    metrics = [
        _below_metric("ks_attached_increments_tilted", res.statistic, res.critical[alpha]),
        _below_metric("truncation_certificate", certificate, cert_tol),
    ]
    qs = np.linspace(0.005, 0.995, 199)
    quantiles = np.quantile(sample, qs)
    tables = {"increment_quantiles": (["quantile", "value"],
                                      [[fmt17(q), fmt17(v)] for q, v in zip(qs, quantiles)])}
    return ExperimentReport(spec, metrics, tables, {"alpha": alpha, "truncation": cert_tol})


def _run_poissonize(spec: ExperimentSpec) -> ExperimentReport:
    model = inc.model_from_dict(spec.model)
    n_configs = int(spec.param("ensemble"))
    depth = int(spec.param("depth"))
    taus = [int(t) for t in spec.param("taus")]
    rt_tau = int(spec.param("roundtrip_tau"))
    rt_reps = int(spec.param("roundtrip_reps"))
    alpha = spec.tolerance("alpha")
    min_ratio = spec.tolerance("min_ratio")
    key = spec.key()

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
    ext = pz.extract_laplace(omega, model, rt_tau)
    intensity = lp.intensity_from_measure(ext.measure, offset=ext.z)

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
    return ExperimentReport(spec, metrics, tables,
                            {"alpha": alpha, "min_ratio": min_ratio})


def _run_contraction(spec: ExperimentSpec) -> ExperimentReport:
    model = inc.model_from_dict(spec.model)
    corpus_n = int(spec.param("corpus"))
    slack = spec.tolerance("slack")
    threshold = spec.tolerance("atom_threshold")
    margin = int(spec.tolerance("oracle_margin"))
    key = spec.key()
    corpus = lp.random_corpus(corpus_n, substream(key, 0))
    levels = np.geomspace(1e-4, 1e4, 81)

    concentration_bad = 0
    steepness_bad = 0
    gap_bad = 0
    for rho in corpus:
        out = lp.convolve_g(rho, model)
        if np.any(np.cumsum(out.w) > np.cumsum(rho.w) + slack):
            concentration_bad += 1
        if not lp.steeper(out, rho, levels, slack=slack).holds:
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
    lam1 = inc.cumulant(model, 1.0).value
    lam2 = inc.cumulant(model, 2.0).value

    def oracle_iterations() -> int:
        w1 = w2 = 0.5
        for it in range(1, 500):
            lo, hi = 0.0, 50.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if w1 * math.exp(lam1 - mid) + w2 * math.exp(lam2 - 2 * mid) > 1.0:
                    lo = mid
                else:
                    hi = mid
            z = 0.5 * (lo + hi)
            w1 *= math.exp(lam1 - z)
            w2 *= math.exp(lam2 - 2 * z)
            if w1 < threshold:
                return it
        raise ArithmeticError("oracle recursion failed to collapse")

    expected_iters = oracle_iterations()
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
    return ExperimentReport(spec, metrics, tables,
                            {"slack": slack, "atom_threshold": threshold,
                             "oracle_margin": margin})


def _run_tails(spec: ExperimentSpec) -> ExperimentReport:
    model = inc.model_from_dict(spec.model)
    taus = [int(t) for t in spec.param("taus")]
    tau_main = int(spec.param("tau_main"))
    q = float(spec.param("q"))
    x = float(spec.param("x"))
    mc_samples = int(spec.param("mc_samples"))
    rel_tol = spec.tolerance("relative")
    key = spec.key()

    exact_backend = "gaussian-exact" if model.kind == "gaussian" else "br-approx"
    exact = inc.tail_ratio(model, tau_main, q, x, exact_backend)
    mc = inc.tail_ratio(model, tau_main, q, x, "mc-importance",
                        mc_samples=mc_samples, mc_stream=substream(key, 0))
    rel_err = abs(mc.ratio - exact.ratio) / exact.ratio

    rows = []
    diffs = []
    for tau in taus:
        r = inc.tail_ratio(model, tau, q, x, exact_backend)
        diffs.append(abs(r.ratio - r.prediction))
        rows.append([tau, fmt17(r.ratio), fmt17(r.prediction),
                     fmt17(abs(r.ratio - r.prediction))])
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))

    metrics = [
        _below_metric("mc_vs_exact_relative_error", rel_err, rel_tol),
        Metric("discrepancy_strictly_decreasing", float(decreasing), 1.0, 0.0, decreasing),
    ]
    tables = {"tail_ratios": (["tau", "ratio", "prediction", "discrepancy"], rows)}
    return ExperimentReport(spec, metrics, tables, {"relative": rel_tol})


def _run_gaps(spec: ExperimentSpec) -> ExperimentReport:
    reps = int(spec.param("ensemble"))
    n_max = int(spec.param("n_max"))
    k_max = int(spec.param("k_max"))
    alpha = spec.tolerance("alpha")
    sigmas = spec.tolerance("sigmas")
    quad_tol = spec.tolerance("quadrature")
    key = spec.key()

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
    intensity = lp.exponential_intensity(spec.s)
    for n in sorted({1, 2, n_max}):
        err = abs(lp.expected_gap(intensity, n) - 1.0 / (n * spec.s))
        metrics.append(_below_metric(f"quadrature_gap_error_{n}", err, quad_tol))
    tables = {"gap_means": (["rank", "mean", "target", "se"], rows)}
    return ExperimentReport(spec, metrics, tables,
                            {"alpha": alpha, "sigmas": sigmas, "quadrature": quad_tol})


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
    if spec.name not in _RUNNERS:
        raise SpecError(f"unknown experiment name {spec.name!r}")
    return _RUNNERS[spec.name](spec)


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
        "tolerances": report.tolerances_used,
        "metrics": {m.name: bool(m.passed) for m in report.metrics},
        "verdict": "pass" if report.verdict else "fail",
    }
    path = os.path.join(outdir, "manifest.json")
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(path)
    return written
