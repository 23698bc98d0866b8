import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from edgerace import cli
from edgerace import experiments as ex
from edgerace import numerics

GAUSSIAN = {"kind": "gaussian", "mean": 0.0, "variance": 1.0}


def small_spec(name: str, seed: int = 11, **params) -> ex.ExperimentSpec:
    data = {"experiment": name, "seed": seed, "model": GAUSSIAN, "s": 1.0}
    data.update(params)
    return ex.parse_spec(data)


def test_parse_spec_validation():
    with pytest.raises(ex.SpecError):
        ex.parse_spec({"experiment": "unknown", "seed": 1})
    with pytest.raises(ex.SpecError):
        ex.parse_spec({"experiment": "velocity"})  # seed is mandatory
    with pytest.raises(ex.SpecError):
        ex.parse_spec({"experiment": "velocity", "seed": 1, "ensemble": 0})
    with pytest.raises(ex.SpecError):
        ex.parse_spec({"experiment": "velocity", "seed": 1, "bogus_option": 3})
    with pytest.raises(ex.SpecError):
        ex.parse_spec({"experiment": "velocity", "seed": 1,
                       "tolerances": {"not_a_knob": 1.0}})
    with pytest.raises(ex.SpecError):
        ex.parse_spec({"experiment": "velocity", "seed": 1, "model": {"kind": "cauchy"}})
    with pytest.raises(ex.SpecError, match="k_max"):
        ex.parse_spec({"experiment": "gaps", "seed": 1, "n_max": 1})  # default k_max 5


def test_velocity_experiment_short_horizon():
    spec = small_spec("velocity", ensemble=60, depth=2000, taus=[8])
    report = ex.run(spec)
    assert report.verdict
    metric = report.metrics[0]
    assert metric.name == "mean_step_displacement"
    assert abs(metric.value - 0.5) < 0.05


def test_rem_stationarity_experiment_small():
    spec = small_spec("rem-stationarity", ensemble=2500, depth=1200, k_max=3)
    report = ex.run(spec)
    assert report.verdict


def test_rem_stationarity_battery_from_config():
    battery = [{"x": [0.0, 0.5, 1.0, 1.5, 2.0], "y": [0.0, 0.6, 1.0, 0.6, 0.0]}]
    spec = small_spec("rem-stationarity", ensemble=1500, depth=1000, k_max=2,
                      battery=battery)
    report = ex.run(spec)
    names = [m.name for m in report.metrics]
    assert "mpgfl_battery_0_pre_vs_post" in names
    assert report.verdict


def test_backward_tilt_experiment_small():
    spec = small_spec("backward-tilt", ensemble=150, depth=20_000, top=50)
    report = ex.run(spec)
    assert report.verdict
    cert = {m.name: m for m in report.metrics}["truncation_certificate"]
    assert cert.value < 1e-4


def test_contraction_experiment_small():
    spec = small_spec("contraction", corpus=60)
    report = ex.run(spec)
    assert report.verdict
    names = {m.name for m in report.metrics}
    assert {"concentration_violations", "steepness_violations",
            "gap_monotonicity_violations", "collapse_iterations"} <= names


def test_tails_experiment_small():
    spec = small_spec("tails", mc_samples=200_000)
    report = ex.run(spec)
    assert report.verdict
    table = dict(zip([r[0] for r in report.tables["tail_ratios"][1]],
                     [float(r[3]) for r in report.tables["tail_ratios"][1]]))
    assert table[25] > table[100] > table[400]


def test_gaps_experiment_small():
    spec = small_spec("gaps", ensemble=4000, n_max=6, k_max=3)
    report = ex.run(spec)
    assert report.verdict


def test_poissonize_experiment_small():
    spec = small_spec("poissonize", ensemble=12, depth=8000,
                      roundtrip_tau=16, roundtrip_reps=500)
    report = ex.run(spec)
    assert report.verdict


def test_write_report_files(tmp_path):
    spec = small_spec("gaps", ensemble=500, n_max=3, k_max=2)
    report = ex.run(spec)
    written = ex.write_report(report, str(tmp_path))
    names = {p.split("/")[-1] for p in written}
    assert {"report.csv", "manifest.json", "gap_means.csv"} <= names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["verdict"] == "pass"
    assert "alpha" in manifest["tolerances"]
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == "metric,value,target,tolerance,passed"


def test_write_report_overwrites_atomically(tmp_path):
    spec = small_spec("gaps", ensemble=500, n_max=3, k_max=2)
    report = ex.run(spec)
    ex.write_report(report, str(tmp_path))
    first = (tmp_path / "report.csv").read_bytes()
    ex.write_report(report, str(tmp_path))
    assert (tmp_path / "report.csv").read_bytes() == first
    assert not list(tmp_path.glob("*.tmp"))


def test_write_report_concurrent_writers(tmp_path):
    spec = small_spec("gaps", ensemble=500, n_max=3, k_max=2)
    report = ex.run(spec)
    errors = []

    def write():
        try:
            for _ in range(20):
                ex.write_report(report, str(tmp_path))
        except OSError as err:
            errors.append(err)

    workers = [threading.Thread(target=write) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the writers as often as possible
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    reference = tmp_path / "reference"
    ex.write_report(report, str(reference))
    for name in ("report.csv", "gap_means.csv", "manifest.json"):
        assert (tmp_path / name).read_bytes() == (reference / name).read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("experiment, override", [
    ("gaps", {"s": "abc"}),
    ("gaps", {"s": -1}),
    ("gaps", {"threads": "many"}),
    ("contraction", {"corpus": "x"}),
    ("gaps", {"ensemble": 2}),  # passes the schema, fails inside the run
    # a battery function reaching deeper than the replicas' windows
    ("rem-stationarity", {"ensemble": 20, "depth": 10, "k_max": 1,
                          "battery": [{"x": [0.0, 50.0, 100.0], "y": [0.0, 1.0, 0.0]}]}),
    ("gaps", {"backend": "no-such-backend"}),
    ("gaps", {"backend": "br-approx"}),  # the model picks the tail formula
    # more ranks checked than a replica holds: rejected before the run
    ("gaps", {"n_max": 1, "k_max": 5}),
    ("rem-stationarity", {"ensemble": 20, "depth": 5, "k_max": 5}),
    # a post-step window shorter than top: found while the run draws it
    ("backward-tilt", {"ensemble": 20, "depth": 30, "top": 50}),
    ("rem-stationarity", {"ensemble": 20, "depth": 4, "k_max": 3}),
    # model values are JSON numbers, never coerced or truncated
    ("contraction", {"corpus": 2, "model": {"kind": "gaussian", "mean": "0.5"}}),
    ("contraction", {"corpus": 2, "model": {"kind": "gaussian", "variance": True}}),
    ("contraction", {"corpus": 2, "model": {"kind": "uniform", "grid_points": 201.9}}),
    ("contraction", {"corpus": 2, "model": {"kind": "uniform", "grid_points": "301"}}),
    # the collapse band is a whole number of iterations
    ("contraction", {"corpus": 2, "tolerances": {"oracle_margin": 0.4}}),
    ("contraction", {"corpus": 2, "tolerances": {"oracle_margin": 1.5}}),
    # an output directory given in the config (these run without --out)
    ("gaps", {"out": 5}),
    ("gaps", {"out": True}),
    ("gaps", {"out": ["a"]}),
    ("gaps", {"out": ""}),
    # tabulated values are nonempty lists of finite JSON numbers
    ("contraction", {"corpus": 2, "model": {"kind": "tabulated", "grid": 5, "density": 3}}),
    ("contraction", {"corpus": 2, "model": {"kind": "tabulated", "grid": [
        str(x) for x in np.linspace(-0.5, 1.5, 101)], "density": [0.5] * 101}}),
    # bools on a grid of unit width: coerced to a density that integrates to 1
    ("contraction", {"corpus": 2, "model": {"kind": "tabulated", "grid": np.linspace(
        0.0, 1.0, 11).tolist(), "density": [True] * 11}}),
    ("contraction", {"corpus": 2, "model": {"kind": "tabulated", "grid": np.linspace(
        -0.5, 1.5, 101).tolist(), "density": [0.5] * 50 + [math.nan] + [0.5] * 50}}),
    ("contraction", {"corpus": 2, "model": {"kind": "tabulated", "grid": [], "density": []}}),
    # so are a battery function's x and y, and they have one length
    ("rem-stationarity", {"ensemble": 20, "depth": 10, "k_max": 1,
                          "battery": [{"x": ["0.0", "0.5", "1.0"], "y": [True, 1, 0]}]}),
    ("rem-stationarity", {"ensemble": 20, "depth": 10, "k_max": 1,
                          "battery": [{"x": [0, 1, 2], "y": [0, 1]}]}),
    # velocity runs one tau; a second one would be ignored
    ("velocity", {"ensemble": 2, "depth": 20, "taus": [3, 50]}),
    # an experiment name that is not a string
    ("gaps", {"experiment": ["gaps"]}),
    # a battery function written with decreasing x
    ("rem-stationarity", {"ensemble": 20, "depth": 10, "k_max": 1,
                          "battery": [{"x": [1, 0.5, 0], "y": [0, 0.5, 1]}]}),
    # tails and poissonize compare taus: two or more, strictly increasing
    ("tails", {"taus": [100], "mc_samples": 100}),
    ("tails", {"taus": [400, 100, 25], "mc_samples": 100}),
    ("poissonize", {"ensemble": 2, "depth": 50, "taus": [8], "roundtrip_reps": 20}),
    # one importance-sampling draw has no standard error
    ("tails", {"mc_samples": 1}),
])
def test_cli_bad_config_is_usage_error(tmp_path, capsys, monkeypatch, experiment, override):
    data = {"experiment": experiment, "seed": 3}
    if experiment == "gaps":
        data.update({"ensemble": 300, "n_max": 2, "k_max": 1})
    data.update(override)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)  # a report written to a relative path would land here
    args = ["run", str(config)]
    if "out" not in override:
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    # a bad model is named as one before the run starts
    assert err.startswith("edgerace: bad model specification: " if "model" in override
                          else "edgerace: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["c.json"]


FUZZ_MODELS = (GAUSSIAN, {"kind": "gaussian", "mean": 0.5, "variance": 0.25},
               {"kind": "uniform", "lo": 0.0, "hi": 1.0, "grid_points": 201},
               {"kind": "tabulated", "grid": np.linspace(-0.5, 1.5, 101).tolist(),
                "density": [0.5] * 101})


def _fuzz_options(draw, name):
    ints = lambda lo, hi: draw(hst.integers(lo, hi))
    if name == "velocity":
        return {"ensemble": ints(1, 20), "depth": ints(2, 300), "taus": [ints(1, 20)]}
    if name == "rem-stationarity":
        return {"ensemble": ints(2, 60), "depth": ints(2, 300), "k_max": ints(1, 6)}
    if name == "backward-tilt":
        return {"ensemble": ints(2, 60), "depth": ints(2, 300), "top": ints(1, 60)}
    if name == "poissonize":
        return {"ensemble": ints(1, 4), "depth": ints(2, 300),
                "taus": draw(hst.lists(hst.integers(1, 32), min_size=1, max_size=2)),
                "roundtrip_tau": ints(1, 16), "roundtrip_reps": ints(2, 60)}
    if name == "contraction":
        return {"corpus": ints(1, 4)}
    if name == "tails":
        return {"taus": draw(hst.lists(hst.integers(1, 60), min_size=1, max_size=3)),
                "tau_main": ints(1, 60), "mc_samples": ints(100, 2000),
                "q": draw(hst.sampled_from([0.3, 0.7, 0.9]))}
    return {"ensemble": ints(2, 60), "n_max": ints(1, 10), "k_max": ints(1, 12)}


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_cli_exit_code_contract(data):
    # 0 passes, 1 is a written report with a failing metric, 2 a usage
    # error with nothing written; nothing else escapes cli.main.  Uniform
    # poissonize is left out: its blended tail curve is slow.
    name = data.draw(hst.sampled_from(sorted(ex.DESCRIPTIONS)))
    models = FUZZ_MODELS[:1] if name == "poissonize" else FUZZ_MODELS
    config = {"experiment": name, "seed": data.draw(hst.integers(0, 1000)),
              "model": data.draw(hst.sampled_from(models)),
              "s": data.draw(hst.sampled_from([0.5, 1.0, 2.0])),
              **_fuzz_options(data.draw, name)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(["run", path, "--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            assert not os.path.exists(out)
            return
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        with open(os.path.join(out, "report.csv")) as fh:
            passed = [line.rsplit(",", 1)[1] for line in fh.read().splitlines()[1:]]
        assert manifest["verdict"] == ("pass" if code == 0 else "fail")
        assert ("false" in passed) == (code == 1)


@pytest.mark.parametrize("model, parameter", [
    ({"kind": "gaussian", "variance": "nan"}, "variance"),
    ({"kind": "gaussian", "variance": "inf"}, "variance"),
    ({"kind": "gaussian", "variance": 0}, "variance"),
    ({"kind": "gaussian", "mean": "nan"}, "mean"),
    ({"kind": "gaussian", "mean": "-inf"}, "mean"),
    ({"kind": "uniform", "hi": "inf"}, "hi"),
    ({"kind": "uniform", "lo": "nan"}, "lo"),
    ({"kind": "uniform", "lo": 2.0, "hi": 1.0}, "lo < hi"),
    # a misspelt key must not fall back to the default it misses
    ({"kind": "gaussian", "mean": 0.0, "varience": 4.0}, "unknown key 'varience'"),
    ({"kind": "gaussian", "grid_points": 5}, "unknown key 'grid_points'"),
    # the strings above stop at the type check; JSON's NaN and Infinity reach
    # the range check
    ({"kind": "gaussian", "variance": math.nan}, "variance"),
    ({"kind": "gaussian", "mean": -math.inf}, "mean"),
    ({"kind": "uniform", "hi": math.inf}, "hi"),
])
def test_cli_model_parameters_are_range_checked(tmp_path, capsys, model, parameter):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "velocity", "seed": 3, "model": model}))
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the test
        assert cli.main(["run", str(config), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("edgerace: bad model specification: ")
    assert parameter in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_parse_spec_types_and_ranges():
    base = {"experiment": "poissonize", "seed": 1}
    for bad in ({"s": math.nan}, {"s": 0}, {"s": 10 ** 400}, {"threads": 0}, {"threads": 1.5},
                {"seed": -1}, {"seed": "7"}, {"depth": True}, {"roundtrip_reps": 0},
                {"taus": []}, {"taus": [1, "x"]}, {"tolerances": {"alpha": 0.2}},
                {"tolerances": {"min_ratio": "2"}}, {"model": "gaussian"},
                {"model": {"kind": "gaussian", "mean": 10 ** 400}},
                {"backend": "mc-importance"}, {"backend": None},
                {"backend": "gaussian-exact"}, {"backend": "br-approx"}):
        with pytest.raises(ex.SpecError):
            ex.parse_spec({**base, **bad})
    spec = ex.parse_spec({**base, "s": 2, "threads": 2, "ensemble": 3.0})
    assert (spec.s, spec.threads, spec.params["ensemble"]) == (2.0, 2, 3)
    assert type(spec.params["ensemble"]) is int
    assert ex.parse_spec({**base, "backend": "auto"}) == ex.parse_spec(base)
    # options hold no copy of the default tolerances; spec.tolerances is in force
    spec = ex.parse_spec({"experiment": "gaps", "seed": 1, "tolerances": {"alpha": 0.05}})
    assert "tolerances" not in spec.options and spec.tolerances["alpha"] == 0.05
    assert spec.options == {"ensemble": 10_000, "n_max": 10, "k_max": 5}


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ex.DESCRIPTIONS:
        assert name in out


def test_cli_unknown_experiment(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"experiment": "nope", "seed": 1}))
    out_dir = tmp_path / "out"
    code = cli.main(["run", str(config), "--out", str(out_dir)])
    assert code == 2
    assert not out_dir.exists()  # no partial output


def test_cli_root_solve_that_does_not_converge_is_usage_error(tmp_path, capsys, monkeypatch):
    # one Brent iteration cannot settle a convolution shift; the run must end
    # with a one-line error and exit 2, not a traceback
    monkeypatch.setattr(numerics, "_BRENTQ_ITER", 1)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "contraction", "seed": 3,
                                  "model": GAUSSIAN, "corpus": 2}))
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("edgerace: root refinement did not converge")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("model, q", [
    # tilting the 301-point uniform by eta(1.8), about 5, used to fail the
    # density check: tilt divided by the closed-form Lambda, not the table's mass
    ({"kind": "uniform", "lo": -1.0, "hi": 2.0, "grid_points": 301}, 1.8),
    # at tau 400 both formula tails underflow to 0.0: their ratio is taken from logs
    (GAUSSIAN, 2.0),
], ids=["uniform-tilt", "gaussian-underflow"])
def test_cli_tails_far_in_the_tail_reports_a_metric(tmp_path, capsys, model, q):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "tails", "seed": 41, "model": model, "q": q,
                                  "mc_samples": 20000}))
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out_dir)]) in (0, 1)
    assert "edgerace:" not in capsys.readouterr().err
    assert (out_dir / "report.csv").exists()


def test_cli_tails_importance_sampling_underflow_names_tau_and_y(tmp_path, capsys):
    # at q 4 the importance weights at tau_main 100 fall below the float range
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "tails", "seed": 41, "model": GAUSSIAN,
                                  "q": 4.0, "mc_samples": 20000}))
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "edgerace: importance-sampling tail at tau 100, y 400.0 underflows to 0\n")


def test_cli_contraction_corpus_stays_in_the_models_tilt_range(tmp_path, capsys):
    # gaussian(0, 4) has lambda_hi 2.75, below the corpus's default top of 4
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "contraction", "seed": 41, "corpus": 20,
                                  "model": {"kind": "gaussian", "mean": 0.0, "variance": 4.0}}))
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out_dir)]) == 0
    assert "edgerace:" not in capsys.readouterr().err
    assert (out_dir / "report.csv").exists()


def test_cli_poissonize_leader_ahead_of_the_front_names_the_round_trip(tmp_path, capsys):
    # the round-trip base of seed 611 has its leader 3.36 ahead of the second
    # particle: at roundtrip_tau 4 its per-step demand, -0.31, is below the
    # mean, where no positive tilt represents it
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "poissonize", "seed": 611, "model": GAUSSIAN,
                                  "ensemble": 1, "depth": 2000, "taus": [1, 8],
                                  "roundtrip_tau": 4, "roundtrip_reps": 100}))
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("edgerace: poissonize round trip at roundtrip_tau 4: "
                          "tilt out of range for the leader: its per-step demand")
    assert "at tau 4 " in err and "(mean 0," in err
    assert err.count("\n") == 1
    assert not out_dir.exists()


def collapse_oracle_200_steps(lam1, lam2, threshold):
    # reference: the bracket [0, 50] widened in steps of 50, then every one
    # of 200 bisection steps, with no early exit; log weights, log mass
    lw1 = lw2 = math.log(0.5)

    def log_mass(z):
        a, b = lw1 + lam1 - z, lw2 + lam2 - 2 * z
        return max(a, b) + math.log1p(math.exp(-abs(a - b)))

    for it in range(1, 500):
        lo, hi = 0.0, 50.0
        while log_mass(lo) <= 0.0:
            lo -= 50.0
        while log_mass(hi) > 0.0:
            hi += 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if log_mass(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        z = 0.5 * (lo + hi)
        lw1 += lam1 - z
        lw2 += lam2 - 2 * z
        if math.exp(lw1) < threshold:
            return it, z
    raise AssertionError("reference recursion did not collapse")


@settings(max_examples=120, deadline=None)
@given(hst.data())
def test_collapse_oracle_early_exit_is_exact(data):
    # lam_k = k m + k^2 v / 2 + c_k is a convex log moment at u = 1, 2 shifted
    # by m; |m| up to 200 needs the reference's bracket widened far beyond
    # [0, 50].  Only the iteration count reaches a report, so only it is compared
    m = data.draw(hst.one_of(hst.floats(-3.0, 3.0), hst.floats(-200.0, 200.0)))
    v = data.draw(hst.floats(0.1, 5.0))
    lam1 = m + 0.5 * v + data.draw(hst.floats(-0.01, 0.01))
    lam2 = 2.0 * m + 2.0 * v
    threshold = data.draw(hst.sampled_from((1e-3, 1e-6, 0.2)))
    assert ex._collapse_oracle(lam1, lam2, threshold) == \
        collapse_oracle_200_steps(lam1, lam2, threshold)[0]


@pytest.mark.parametrize("shifted, unshifted", [
    ({"kind": "gaussian", "mean": -5.0, "variance": 1.0}, GAUSSIAN),
    ({"kind": "uniform", "lo": -3.0, "hi": -1.0}, {"kind": "uniform", "lo": 0.0, "hi": 2.0}),
    ({"kind": "gaussian", "mean": 60.0, "variance": 1.0}, GAUSSIAN),
    ({"kind": "gaussian", "mean": -1.0, "variance": 1.0}, GAUSSIAN),
    # log moments near 400 and 800: the oracle's linear-space mass overflowed
    ({"kind": "gaussian", "mean": 400.0, "variance": 1.0}, GAUSSIAN),
])
def test_cli_collapse_target_ignores_a_shift_of_the_model(tmp_path, shifted, unshifted):
    # a shift of the increment law moves every z by the same amount and
    # leaves the weights alone, so the oracle's iteration count must not move
    targets = []
    for label, model in (("shifted", shifted), ("unshifted", unshifted)):
        config = tmp_path / f"{label}.json"
        config.write_text(json.dumps({"experiment": "contraction", "seed": 3,
                                      "model": model, "corpus": 2}))
        out_dir = tmp_path / label
        assert cli.main(["run", str(config), "--out", str(out_dir)]) == 0
        rows = (out_dir / "report.csv").read_text().splitlines()[1:]
        targets += [float(row.split(",")[2]) for row in rows
                    if row.startswith("collapse_iterations,")]
    assert len(targets) == 2 and targets[0] == targets[1]


def test_cli_bad_json(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    assert cli.main(["run", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("override", [["--out", "o"], ["--seed", "5"]], ids=["out", "seed"])
@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
def test_cli_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, monkeypatch,
                                                         text, override):
    # the overrides apply to an object only, so parse_spec names the fault
    config = tmp_path / "c.json"
    config.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(config), *override]) == 2
    err = capsys.readouterr().err
    assert err == "edgerace: configuration must be a JSON object\n"
    assert os.listdir(tmp_path) == ["c.json"]


def test_cli_missing_file(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2


def test_cli_missing_out(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "gaps", "seed": 3,
                                  "ensemble": 300, "n_max": 2, "k_max": 1}))
    assert cli.main(["run", str(config)]) == 2


def test_cli_run_pass_and_seed_override(tmp_path, capsys):
    config = tmp_path / "gaps.json"
    config.write_text(json.dumps({"experiment": "gaps", "seed": 3,
                                  "ensemble": 1500, "n_max": 3, "k_max": 2}))
    out_dir = tmp_path / "out"
    code = cli.main(["run", str(config), "--out", str(out_dir), "--seed", "99"])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert "verdict: pass" in capsys.readouterr().out


@pytest.mark.parametrize("n_max", [1, 2])
def test_cli_gaps_small_n_max_checks_each_rank_once(tmp_path, n_max):
    config = tmp_path / "gaps.json"
    config.write_text(json.dumps({"experiment": "gaps", "seed": 3,
                                  "ensemble": 300, "n_max": n_max, "k_max": 1}))
    out_dir = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out_dir)]) in (0, 1)
    names = [line.split(",")[0]
             for line in (out_dir / "report.csv").read_text().splitlines()[1:]]
    assert len(names) == len(set(names))
    ranks = [int(n.rsplit("_", 1)[1]) for n in names if n.startswith("quadrature_gap_error_")]
    assert ranks == [1, 2]


def test_cli_run_metric_failure_still_writes_report(tmp_path):
    config = tmp_path / "vel.json"
    config.write_text(json.dumps({
        "experiment": "velocity", "seed": 5, "ensemble": 20, "depth": 500,
        "taus": [4], "tolerances": {"velocity_band": 1e-9},
    }))
    out_dir = tmp_path / "out"
    code = cli.main(["run", str(config), "--out", str(out_dir)])
    assert code == 1
    report = (out_dir / "report.csv").read_text()
    assert "false" in report
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["verdict"] == "fail"


def test_integral_float_option_writes_the_same_report(tmp_path):
    # 300.0 is the integer 300 once parsed, in the run and in manifest.json
    files = []
    for ensemble in (300, 300.0):
        spec = ex.parse_spec({"experiment": "gaps", "seed": 3, "ensemble": ensemble,
                              "n_max": 2, "k_max": 1})
        out = tmp_path / repr(ensemble)
        ex.write_report(ex.run(spec), str(out))
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert files[0] == files[1]


def test_uniform_negative_zero_lo_writes_the_same_report(tmp_path):
    # the uniform reads lo off its grid, where -0.0 is 0.0; manifest.json
    # records the model as given, so only its model entry may differ
    files = []
    for lo in (0.0, -0.0):
        spec = ex.parse_spec({"experiment": "velocity", "seed": 611, "ensemble": 40,
                              "depth": 500, "taus": [8],
                              "model": {"kind": "uniform", "lo": lo, "hi": 1.0}})
        out = tmp_path / repr(lo)
        ex.write_report(ex.run(spec), str(out))
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    manifests = [json.loads(f.pop("manifest.json")) for f in files]
    assert files[0] == files[1]
    for manifest in manifests:
        del manifest["model"]
    assert manifests[0] == manifests[1]


def test_reports_byte_identical_across_thread_counts(tmp_path):
    files = {}
    for threads in (1, 8):
        spec = ex.parse_spec({"experiment": "rem-stationarity", "seed": 21,
                              "ensemble": 800, "depth": 800, "k_max": 2,
                              "threads": threads})
        report = ex.run(spec)
        out = tmp_path / f"t{threads}"
        ex.write_report(report, str(out))
        files[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files[1] == files[8]


_SCIPY_GUARD = """
import contextlib, io, json, os, sys
import numpy as np
from edgerace import cli, increments

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(name, config):
    path = os.path.join(sys.argv[1], name + ".json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["run", path, "--out", os.path.join(sys.argv[1], name)])

seen = {"import": scipy_modules()}
with contextlib.redirect_stdout(io.StringIO()):
    seen["list"] = [cli.main(["list"]), scipy_modules()]
seen["bad"] = [run("bad", {"experiment": "gaps", "seed": 3, "ensemble": 0}), scipy_modules()]
seen["rem"] = [run("rem", {"experiment": "rem-stationarity", "seed": 3, "ensemble": 300,
                           "depth": 300, "k_max": 2}), scipy_modules()]
seen["velocity"] = [run("velocity", {"experiment": "velocity", "seed": 11, "ensemble": 60,
                                     "depth": 2000, "taus": [8]}), scipy_modules()]
for kind, model in (("gaussian", {"kind": "gaussian", "mean": 0.0, "variance": 1.0}),
                    ("uniform", {"kind": "uniform", "lo": 0.0, "hi": 1.0})):
    seen["contraction_" + kind] = [run("contraction_" + kind, {
        "experiment": "contraction", "seed": 5, "model": model, "corpus": 2}), scipy_modules()]
increments.tail_curve(increments.gaussian(0.0, 1.0), 4)(np.array([0.0]))
seen["tail_curve"] = scipy_modules()
print(json.dumps(seen))
"""


def test_import_leaves_scipy_stats_out(tmp_path):
    # importing scipy.special takes about 0.3 s and scipy.stats or
    # scipy.optimize about as much again; the package imports scipy.special
    # where a function needs it and never imports scipy.stats or
    # scipy.optimize, so these runs load no scipy module at all
    src = os.path.dirname(os.path.dirname(ex.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _SCIPY_GUARD, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(out.stdout)
    assert seen["import"] == []
    assert seen["list"] == [0, []]
    assert seen["bad"] == [2, []]
    assert seen["rem"] == [0, []]
    assert seen["velocity"] == [0, []]
    assert seen["contraction_gaussian"] == [0, []]
    assert seen["contraction_uniform"] == [0, []]
    assert "scipy.special" in seen["tail_curve"]
    assert not any(m.startswith(("scipy.stats", "scipy.optimize")) for m in seen["tail_curve"])
