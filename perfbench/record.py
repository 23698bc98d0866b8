"""Record the seed table and reference report digests of every workload.

    PYTHONPATH=src python3 perfbench/record.py

For each workload, candidate config seeds 1, 2, ... are run once through
`edgerace.cli.main`.  A seed whose verdict passes is kept with the SHA-256
digest of every report file; a seed whose verdict fails is listed under
`excluded` with its failing metrics, which `run.py` prints on every run.
The statistical metrics test at alpha = 0.01, so about one seed in a hundred
fails per test by design; a benchmark run must not fail on such a seed, so
`run.py` maps `--seed` onto the kept seeds.  Rerun this only when a change is meant to alter report bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from pathlib import Path

from edgerace import cli

from run import REFERENCE, WORK
from workloads import WORKLOADS

KEPT_SEEDS = 20


def record_seed(workload, seed: int, work: Path) -> tuple[dict[str, str], list[str]]:
    digests, failing = {}, []
    for label, cfg in workload.configs(seed):
        path = work / f"{label}.json"
        outdir = work / label
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", str(path), "--out", str(outdir)])
        if rc not in (0, 1):
            raise RuntimeError(f"{label} seed {seed}: exit {rc}")
        with open(outdir / "report.csv") as fh:
            failing += [f"{label}/{row['metric']}" for row in csv.DictReader(fh)
                        if row["passed"] != "true"]
        for file in sorted(outdir.iterdir()):
            digests[f"{label}/{file.name}"] = hashlib.sha256(file.read_bytes()).hexdigest()
    return digests, failing


def main() -> int:
    table = {}
    tmp = WORK / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        for name, workload in WORKLOADS.items():
            kept, excluded = {}, {}
            seed = 0
            while len(kept) < KEPT_SEEDS:
                seed += 1
                work = tmp / f"{name}-{seed}"
                work.mkdir(parents=True)
                digests, failing = record_seed(workload, seed, work)
                if failing:
                    excluded[str(seed)] = failing
                else:
                    kept[str(seed)] = digests
                print(f"{name} seed {seed}: {'excluded ' + str(failing) if failing else 'kept'}",
                      flush=True)
            table[name] = {"seeds": kept, "excluded": excluded}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
