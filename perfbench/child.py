"""The measured process: set-up, then the workload's configs through the CLI.

The plan lists rounds, one per config seed, each holding every config of the
workload.  Set-up is timed from before `import edgerace` (numpy and scipy
included) through `parse_spec` and model construction of the first round's
configs.  With `--setup-only` the process stops there.  Otherwise it runs the
first round once as a warm-up, then measured iterations until `--seconds`
have passed; iteration k runs round k modulo the number of rounds.  Every run
must exit 0 with `verdict: pass` and write the same report bytes as earlier
runs of its round.  With `--trace` the second half of the time runs under
`tracing.install`, starting again from the first round so that traced and
untraced reports are compared, and the spans are dumped to the plan's span
file.  The result is a JSON file.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _read_reports(outdir: str) -> dict[str, bytes]:
    reports = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            reports[name] = fh.read()
    return reports


class Runner:
    """Runs configs through the public CLI and records failures."""

    def __init__(self, cli, rounds: list[list[tuple[str, str, str]]]):
        self.cli = cli
        self.rounds = rounds  # per config seed: (label, config path, output directory)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, dict[str, bytes]] = {}

    def iteration(self, k: int) -> float:
        """Run every config of round k once; return the summed wall time of the CLI calls."""
        total = 0.0
        for label, path, outdir in self.rounds[k % len(self.rounds)]:
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, ""
            self.attempted += 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(["run", path, "--out", outdir])
            except (Exception, SystemExit):
                error = traceback.format_exc()
            total += time.perf_counter() - start
            text = out.getvalue()
            error += err.getvalue()
            if rc != 0 or "verdict: pass" not in text or "Traceback" in error:
                self.failures.append(f"{path}: exit {rc}: {(text + error)[-2000:]}")
                continue
            reports = _read_reports(outdir)
            expected = self.reference.setdefault(path, reports)
            if reports != expected:
                self.failures.append(f"{path}: report bytes differ from an earlier run")
        return total

    def loop(self, seconds: float, min_iterations: int, tracer=None) -> list[float]:
        times = []
        start = time.perf_counter()
        while len(times) < min_iterations or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.iteration += 1
            times.append(self.iteration(len(times)))
        return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True,
                        help="JSON file: rounds of configs and output dirs, span file")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)

    start = time.perf_counter()
    import edgerace
    from edgerace import cli, experiments, increments
    for _, path, _ in plan["rounds"][0]:
        with open(path) as fh:
            spec = experiments.parse_spec(json.load(fh))
        increments.model_from_dict(spec.model)
    result = {"setup_s": time.perf_counter() - start, "edgerace_file": edgerace.__file__}

    if not args.setup_only:
        import numpy
        import scipy
        result["versions"] = {"edgerace": edgerace.__version__, "numpy": numpy.__version__,
                              "scipy": scipy.__version__,
                              "python": sys.version.split()[0]}
        runner = Runner(cli, plan["rounds"])
        runner.iteration(0)  # warm-up: lazy imports and caches
        seconds = args.seconds / 2 if args.trace else args.seconds
        result["iterations"] = runner.loop(seconds, 2 if args.trace else 3)
        if args.trace:
            import tracing  # this script's directory is first on sys.path
            tracer = tracing.Tracer()
            tracing.install(tracer)
            result["traced_iterations"] = runner.loop(seconds, 2, tracer)
            tracer.dump(plan["spans"])
        result["attempted"] = runner.attempted
        result["failures"] = runner.failures
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
