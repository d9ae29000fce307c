"""Record the stored reference the correctness gates compare against.

    python3 perfbench/record_reference.py

Runs each workload once at the default seed from the `src/` beside this
directory and rewrites `reference.json` and `reference_g.json.gz`.  Run it
only when a change is meant to alter the program's results (a new
estimator, say), and say so in the change; the gates' tolerances live in
`gates.py` and are not touched by this script.
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import sys

import gates
import run
import worker


def main():
    env = run.child_env()
    seed = worker.DEFAULT_SEED
    out = run.SCRATCH / "reference"
    ref = {"default_seed": seed}
    try:
        for name in worker.WORKLOADS:
            result, error = run.run_worker(env, name, seed, out / name)
            if error:
                print(f"{name}: {error}", file=sys.stderr)
                return 1
            d = out / name
            ref[name] = {"sha256": {p.name: gates.sha256_of(p) for p in sorted(d.iterdir())}}
            if name == "mc-bbm":
                with open(d / "covariance.csv", newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                ref[name].update(
                    samples=json.loads((d / "covariance.json").read_text())["samples"],
                    estimates=[float(r["mc_estimate"]) for r in rows],
                    stderrs=[float(r["stderr"]) for r in rows],
                    g_pred=[float(r["g_pred"]) for r in rows])
            elif name == "pell-scan":
                ref[name].update(times=[t for t, _ in result["rows"]],
                                 norms=[v for _, v in result["rows"]])
            else:
                with open(d / "predictions.csv", newline="", encoding="utf-8") as fh:
                    g_total = [float(r["g_total"]) for r in csv.DictReader(fh)]
                (gates.HERE / "reference_g.json.gz").write_bytes(
                    gzip.compress(json.dumps(g_total).encode(), mtime=0))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    (gates.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
