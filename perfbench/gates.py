"""Correctness gates: each repetition's outputs against fixed properties and
the stored reference, within tolerances rather than byte for byte.

The reference (`reference.json`, `reference_g.json.gz`) was recorded from
the program at the commit that introduced this benchmark.  A comparison
that depends on the Monte Carlo sample draws applies only at the default
seed; everything else applies at every seed.  Output checksums are
reported for information and never gate.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

# mc-bbm: an estimate may move by this share of its reference standard error.
# Halving the step moves them by 3e-12 of it; a 0.1% bias in the estimator
# moves some by 2e-3; a new estimator moves them by about one.
ESTIMATE_TOL_STDERR = 1e-3
G_REL_TOL = 1e-12              # analytic G_n, relative to each value ...
G_ABS_FLOOR = 1e-15            # ... plus this share of the table's largest |G|
# pell-scan remainder norms: the RK4 error at the workload's dt = 5e-4 is
# about 1.5e-6 of each norm, and 4e-5 at twice the step
PELL_NORM_REL_TOL = 1e-4
PELL_EXPONENT = (1.5, 2.5)     # acceptance 5: quadratic growth on the Pell triad
# z-scores: at the default seed, acceptance 7's share of modes with |z| <= 3.
# At other seeds a correct program breaks that share now and then (seed 22:
# modes 1, 2 and 6 at z = 3.66, -3.70, 3.15, one seed in 39 scanned), so
# there every mode must lie within Z_MAX and Z_WITHIN_ANY_SEED of them
# within 3.
Z_WITHIN = 0.95
Z_WITHIN_ANY_SEED = 0.90
Z_MAX = 4.5

TRIADS_KPI_16 = 588_240
PELL_DIVISOR = 1.0 / 56.0
NEAR_THRESHOLD = 0.05
NEAR_COUNT = 72


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    attempted: int = 1
    failed_extra: int = 0          # failures counted beyond the repetition itself
    info: dict = field(default_factory=dict)

    @property
    def failed(self):
        return (1 if self.problems else 0) + self.failed_extra

    def need(self, ok, message):
        if not ok:
            self.problems.append(message)


def load_reference():
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    with gzip.open(HERE / "reference_g.json.gz", "rt", encoding="utf-8") as fh:
        ref["analytic"]["g_total"] = json.load(fh)
    return ref


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _checksums(verdict, out, stored, applies):
    for name, digest in sorted(stored.items()):
        path = out / name
        if path.is_file():
            got = sha256_of(path)
            verdict.info[f"sha256 {name}"] = (got[:16], got == digest if applies else None)


def _close(got, want, rel, floor=0.0):
    return abs(got - want) <= rel * abs(want) + floor


def variance_ratio(stderrs, ref_stderrs):
    """Geometric mean over modes of (stderr / reference stderr)^2.

    Averaging the log ratio over every mode keeps the seed-to-seed scatter
    of one run's error estimates small (a few per cent at 1024 samples).
    """
    logs = [2.0 * math.log(s / r) for s, r in zip(stderrs, ref_stderrs)]
    return math.exp(statistics.fmean(logs))


def check_mc_bbm(verdict, out, result, at_default, ref):
    samples = ref["samples"]
    verdict.attempted += samples
    if result is None:
        verdict.failed_extra = samples
        return
    verdict.need(result["exit_codes"] == [0], f"exit codes {result['exit_codes']}")
    try:
        report = json.loads((out / "covariance.json").read_text(encoding="utf-8"))
        rows = _read_csv(out / "covariance.csv")
    except (OSError, ValueError) as exc:
        verdict.need(False, f"unreadable report: {exc}")
        verdict.failed_extra = samples
        return
    verdict.failed_extra = len(report["excluded"])
    verdict.need(report["samples"] == samples and report["used"] == samples,
                 f"{report['used']}/{report['samples']} samples used")
    verdict.need(not report["invalid"], "report marked invalid")
    z = [abs(v) if math.isfinite(v) else math.inf for v in (float(r["zscore"]) for r in rows)]
    within = sum(1 for v in z if v <= 3.0) / max(len(z), 1)
    verdict.need(len(rows) == len(ref["g_pred"]), f"{len(rows)} modes")
    share = Z_WITHIN if at_default else Z_WITHIN_ANY_SEED
    verdict.need(within >= share, f"only {within:.3f} of modes with |z| <= 3")
    verdict.need(max(z, default=0.0) <= Z_MAX, f"a mode at |z| = {max(z):.2f} > {Z_MAX}")
    decay = re.search(r"decay slope \S+ \(bound \S+, ok=(\w+)\)", result["stdout"])
    verdict.need(decay is not None and decay.group(1) == "True", "decay envelope not ok")
    for r, g in zip(rows, ref["g_pred"]):
        if not _close(float(r["g_pred"]), g, G_REL_TOL, G_ABS_FLOOR * max(map(abs, ref["g_pred"]))):
            verdict.need(False, f"mode {r['mode']}: G_n {r['g_pred']} != {g!r}")
            break
    verdict.info["variance_ratio"] = variance_ratio(
        [float(r["stderr"]) for r in rows], ref["stderrs"])
    if at_default:
        for r, est, err in zip(rows, ref["estimates"], ref["stderrs"]):
            if abs(float(r["mc_estimate"]) - est) > ESTIMATE_TOL_STDERR * err:
                verdict.need(False, f"mode {r['mode']}: estimate {r['mc_estimate']} "
                                    f"differs from reference {est!r}")
                break
    _checksums(verdict, out, ref["sha256"], at_default)


def check_pell_scan(verdict, out, result, at_default, ref):
    if result is None:
        return
    times = [t for t, _ in result["rows"]]
    verdict.need(times == ref["times"] and not result["truncated"],
                 f"scan rows at {times} (truncated={result['truncated']})")
    exponent = result["exponent"]
    lo, hi = PELL_EXPONENT
    verdict.need(exponent is not None and lo <= exponent <= hi,
                 f"fitted exponent {exponent} outside [{lo}, {hi}]")
    for (t, norm), want in zip(result["rows"], ref["norms"]):
        if not _close(norm, want, PELL_NORM_REL_TOL):
            verdict.need(False, f"remainder norm at t={t}: {norm!r} != {want!r}")
            break
    _checksums(verdict, out, ref["sha256"], True)


def check_analytic(verdict, out, result, at_default, ref):
    if result is None:
        return
    verdict.need(result["exit_codes"] == [0, 0], f"exit codes {result['exit_codes']}")
    try:
        with open(out / "resonances.csv", "rb") as fh:
            lines = [fh.readline().decode() for _ in range(NEAR_COUNT + 2)]
            fh.seek(0)
            triads = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
        predictions = _read_csv(out / "predictions.csv")
    except OSError as exc:
        verdict.need(False, f"missing output: {exc}")
        return
    verdict.need(triads == TRIADS_KPI_16, f"{triads} triads, expected {TRIADS_KPI_16}")
    # rows are sorted by |delta| first, so the head holds the near-resonant ones
    col = lines[0].rstrip("\n").split(",").index("abs_delta")
    head = [float(line.split(",")[col]) for line in lines[1:] if line]
    verdict.need(bool(head) and abs(head[0] - PELL_DIVISOR) <= 1e-12,
                 f"min |delta| {head[0] if head else None!r}, expected 1/56")
    near = sum(1 for v in head if v <= NEAR_THRESHOLD)
    verdict.need(near == NEAR_COUNT, f"{near} triads within {NEAR_THRESHOLD}")
    want = ref["g_total"]
    verdict.need(len(predictions) == len(want), f"{len(predictions)} prediction rows")
    floor = G_ABS_FLOOR * max(map(abs, want))
    for row, g in zip(predictions, want):
        if not _close(float(row["g_total"]), g, G_REL_TOL, floor):
            verdict.need(False, f"t={row['t']} mode {row['mode']}: G_n {row['g_total']} != {g!r}")
            break
    _checksums(verdict, out, ref["sha256"], True)


CHECKS = {"mc-bbm": check_mc_bbm, "pell-scan": check_pell_scan, "analytic": check_analytic}


def check(workload, out, result, error, seed, reference):
    """Gate one repetition; `result` is None when the process failed."""
    verdict = Verdict()
    if error is not None:
        verdict.problems.append(error)
    at_default = seed == reference["default_seed"]
    CHECKS[workload](verdict, Path(out), result, at_default, reference[workload])
    return verdict
