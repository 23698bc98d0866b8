"""edgerace benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload contraction --seed 1 --seconds 28 --trace 0

The checkout is found from this file's location and the program is imported
from its `src/` directory.  `--trace 0` prints the end-to-end metrics (wall_s,
items_per_s, setup_s, peak_rss_mb, and failed_ratio as a plain line); `--trace
1` makes a separate traced run and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference_digests.json"
WORK = ROOT / ".perfbench_work"

# (metric, unit, better)
END_TO_END = (("wall_s", "s", "lower"), ("items_per_s", "1/s", "higher"),
              ("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"))
SETUP_PROCESSES = 3     # set-up-only processes besides the measured one
SETUP_TIMEOUT_S = 60
CHILD_SLACK_S = 100     # allowance past --seconds for warm-up and the last iteration


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def machine_context() -> dict:
    try:
        cpu_max = (Path("/sys/fs/cgroup/cpu.max").read_text().strip())
    except OSError:
        cpu_max = "unavailable"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cgroup_cpu_max": cpu_max, "commit": _commit()}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def check_benchmark_json() -> None:
    """BENCHMARK.json must name exactly the metrics and workloads printed here."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from None
    declared = (
        [w["name"] for w in spec["workloads"]],
        [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    )
    printed = (list(WORKLOADS), list(END_TO_END),
               [(name, unit, better) for name, unit, better, *_ in LAYER_METRICS])
    if declared != printed:
        raise BenchError("BENCHMARK.json does not match the metrics perfbench prints")


def config_seeds(workload: str, seed: int) -> tuple[list[str], dict, dict[str, list]]:
    """The recorded config seeds in the order a run cycles through them (starting
    at kept seed number `seed` mod their count), their reference report
    digests, and the seeds left out of the table with the metrics that failed."""
    recorded = json.loads(REFERENCE.read_text())[workload]
    seeds = sorted(recorded["seeds"], key=int)
    start = seed % len(seeds)
    return seeds[start:] + seeds[:start], recorded["seeds"], recorded["excluded"]


def child(result_path: Path, args: list[str], timeout: float) -> dict:
    """Run child.py in a fresh process with only the program's own src on the path."""
    env = {k: v for k, v in os.environ.items() if k != "EDGERACE_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"),
                               "--result", str(result_path), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"measured process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        raise BenchError(f"measured process failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(result_path.read_text())
    if not Path(result["edgerace_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"edgerace was imported from {result['edgerace_file']}, "
                         "not from this checkout")
    return result


def digest_lines(outdirs: dict[tuple[str, str], Path], reference: dict[str, dict[str, str]]
                 ) -> tuple[list[str], int]:
    """Digest of every report file of the rounds that ran, next to the recorded one."""
    lines, mismatches = [], 0
    for (cseed, label), outdir in outdirs.items():
        if not outdir.is_dir():
            continue
        for path in sorted(outdir.iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            ref = reference[cseed].get(f"{label}/{path.name}", "none")
            status = "ok" if digest == ref else "MISMATCH"
            mismatches += status != "ok"
            lines.append(f"digest seed {cseed} {label}/{path.name} {digest} "
                         f"reference {ref} {status}")
    return lines, mismatches


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def run(workload_name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    workload = WORKLOADS[workload_name]
    cseeds, reference, excluded = config_seeds(workload_name, seed)
    work.mkdir(parents=True)
    rounds, outdirs = [], {}
    for cseed in cseeds:
        configs = []
        for label, cfg in workload.configs(int(cseed)):
            path = work / f"{cseed}-{label}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            outdirs[cseed, label] = work / "out" / cseed / label
            configs.append((label, str(path), str(outdirs[cseed, label])))
        rounds.append(configs)
    plan = work / "plan.json"
    plan.write_text(json.dumps({"rounds": rounds, "spans": str(work / "spans.json")}))

    print(f"context: {json.dumps(machine_context(), sort_keys=True)}")
    print(f"workload {workload_name}: seed {seed} -> config seeds {', '.join(cseeds)} "
          f"(iteration k runs the k-th, cycling), {len(rounds[0])} config(s) and "
          f"{workload.items} items per iteration")
    if excluded:
        print(f"config seeds left out because their verdict failed when recorded: "
              f"{json.dumps(excluded, sort_keys=True)}")
    args = ["--plan", str(plan), "--seconds", str(seconds)] + (["--trace"] if traced else [])
    main = child(work / "result.json", args, seconds + CHILD_SLACK_S)
    print(f"versions: {json.dumps(main['versions'], sort_keys=True)}")
    lines, mismatches = digest_lines(outdirs, reference)
    print("\n".join(lines))
    if mismatches:
        print(f"FLAG: {mismatches} report file(s) differ from the digests recorded "
              "for their seed")
    for failure in main["failures"]:
        print(f"FAILED: {failure}")
    failed = len(main["failures"])
    attempted = main["attempted"]
    iterations = main["iterations"]
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")

    if traced:
        traced_its = main["traced_iterations"]
        overhead = statistics.median(traced_its) / statistics.median(iterations)
        metrics = layer_metrics(str(work / "spans.json"), overhead)
        print(f"untraced iteration wall s: {quartiles(iterations)}; "
              f"traced: {quartiles(traced_its)}")
        for name, unit, _, exact, moves in LAYER_METRICS:
            tag = "exact" if exact else "timed"
            value = metrics[name]
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"{name} = {shown} {unit} [{tag}; moves {moves}]")
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        setups = [main["setup_s"]]
        for i in range(SETUP_PROCESSES):
            setups.append(child(work / f"setup{i}.json", ["--plan", str(plan), "--setup-only"],
                                SETUP_TIMEOUT_S)["setup_s"])
        wall = statistics.median(iterations)
        metrics = {"wall_s": wall, "items_per_s": workload.items / wall,
                   "setup_s": statistics.median(setups), "peak_rss_mb": main["peak_rss_mb"]}
        print(f"wall_s = {wall:.6g} s (median iteration; {quartiles(iterations)})")
        print(f"items_per_s = {metrics['items_per_s']:.6g} 1/s "
              f"({workload.items} {workload.item_key} items per iteration)")
        print(f"setup_s = {metrics['setup_s']:.6g} s (median of {len(setups)} fresh "
              f"processes; {quartiles(setups)})")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (ru_maxrss of the measured process)")
        units = {name: unit for name, unit, _ in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not (ROOT / "src" / "edgerace" / "__init__.py").is_file():
            raise BenchError(f"no edgerace sources under {ROOT / 'src'}")
        check_benchmark_json()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
