"""The wavecorr benchmark.

    python3 perfbench/run.py --workload {mc-bbm,pell-scan,analytic,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the program is imported from its
`src/`.  Every repetition is a fresh single-process interpreter
(`perfbench/worker.py`), one client in a closed loop: the next repetition
starts when the previous one has ended and been checked.  Repetitions run
until the next one would no longer fit in S seconds (at least one runs).
The run also starts the interpreter for set-up only: a few times before
the first repetition (the first of these is a warm-up and is not recorded)
and once after each repetition, so the set-up times span the whole run.
A repetition still running S + 120 seconds after the run began is stopped
and counts as failed.

With --trace 0 the run reports the end-to-end metrics, measured without
tracing.  With --trace 1 it alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
Each metric is the median over repetitions; the lines before the final JSON
line give its quartiles and sample count, the host, the load average before
and after, and each gate's outcome.  The exit code is 0 only when every
repetition passed its correctness gate; without a source tree beside it the
run exits 2 before starting anything.

End-to-end metrics:
  wall_s            the work after set-up, in a fresh process, in seconds
                    at the reference host speed (below)
  setup_s           interpreter start to wavecorr imported and config,
                    spectrum and datum built, at the reference host speed
  peak_rss_mb       ru_maxrss of the repetition's process
  time_to_stderr_s  wall_s times the geometric mean over modes of
                    (stderr / reference stderr)^2 on mc-bbm; wall_s on the
                    workloads without sampling error
wall_s and setup_s scale each measured time by REFERENCE_YARDSTICK_S / the
mean yardstick time of the two yardstick processes around it (yardstick.py:
fixed work sharing nothing with the program, timed in a process of its own
before the first repetition and after each one).  A shared host's speed
drifts by tens of per cent within seconds and over minutes: 44-second
medians of the measured wall time scattered by up to 0.34 (quartile
distance over median) across ten runs, beyond any allowed bound, and the
median set-up time of ten runs fell from 0.18 s to 0.13 s when the
yardstick fell from 0.23 s to 0.16 s.  Scaling by the run's mean yardstick
left a spread of 0.12 on mc-bbm and 0.21 on pell-scan; scaling each time
by the yardstick around it, 0.075 and 0.10 on the same runs.  The program
cannot move the yardstick, so the scaled times keep its cost.  The measured
times and the yardstick are printed beside the metrics.
fail_frac, failed over attempted operations (a repetition, and on mc-bbm
each Monte Carlo sample, is one operation), is printed and carried by the
JSON's `attempted` and `failed`; it is no gated metric since it reads 0
when nothing fails.

All three workloads, one after another, each printing its own report and
result line (the exit code is 0 only when all three passed):

    python3 perfbench/run.py --workload all --seed 1 --seconds 44 --trace 0

Self-tests of the harness: python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import stats
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
SETUP_REPS = 2          # recorded set-up-only starts before the first repetition
REP_TIMEOUT_S = 150     # limit of a process started outside a measuring window
OVERRUN_S = 120         # no process outlives the measuring window by more
SELF_SUM_TOL = 1e-3     # sum of self times vs traced wall time, relative
REFERENCE_YARDSTICK_S = 0.2  # host speed the reported work times are scaled to


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # the warm-up start writes byte code, so recorded starts import as an
    # installed package would instead of compiling the sources each time
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(env, workload, seed, out, trace=0, setup_only=False, timeout=REP_TIMEOUT_S):
    """Start one repetition and wait for it; returns (result, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition stopped after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"worker exited {proc.returncode}: {tail[0]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "worker printed no result"
    result["setup_s"] = result["t_ready"] - t_launch
    return result, None


def run_yardstick(env, run):
    """Time the yardstick in a process of its own and keep its timings."""
    timings = []
    try:
        proc = subprocess.run([sys.executable, str(HERE / "yardstick.py")], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=run.time_left())
        timings = json.loads(proc.stdout.strip().splitlines()[-1])["yardstick_s"]
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        run.problems.append(f"yardstick: {exc!r}")
    run.yardstick_calls.append(timings)


def source_digest():
    """sha256 of the program's sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def host_info():
    # git stops at the tree's root: a tree copied without its history has no
    # commit, and the one of an enclosing repository would be wrong
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return (f"python {platform.python_version()}, "
            f"numpy {importlib.metadata.version('numpy')}, "
            f"nproc {len(os.sched_getaffinity(0))}, commit {commit or 'unknown'}, "
            f"src sha256 {source_digest()}")


def loadavg():
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def at_reference_speed(wall_s, yardstick_s):
    """Work time scaled to the host speed at which the yardstick takes
    REFERENCE_YARDSTICK_S.

    `yardstick_s` is the yardstick's time next to the work: the host's
    speed drifts, the same for the program and the yardstick, so the scaled
    time keeps the program's own cost and sheds most of the drift.
    """
    return wall_s * (REFERENCE_YARDSTICK_S / yardstick_s)


def time_to_stderr(wall_s, variance_ratio):
    """Time to reach the reference standard errors: wall_s x variance ratio.

    Standard errors fall like 1/sqrt(samples), so a run whose variances are
    `variance_ratio` times the reference ones would need that many times
    its wall time to match them.  A workload without sampling error
    (variance_ratio None) reaches its accuracy in wall_s.
    """
    return wall_s if variance_ratio is None else wall_s * variance_ratio


def layer_metrics(workload, result):
    """Per-layer metrics of one traced repetition, plus its coverage problems."""
    spans = result["spans"]
    counts = result["counts"]
    by_name, by_layer = tracing.span_totals(spans)

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    evolve_s = get("solver.evolve_array", "s")
    draws_s = get("sampling.sample_coeff_batch", "s")
    metrics = {
        "cli.self_s": get("cli.main", "self_s"),
        "cli.bytes_out": result.get("bytes_out", 0),
        "covariance.mc_covariance.self_s": get("covariance.mc_covariance", "self_s"),
        "covariance.g_table.calls": get("covariance.g_table", "calls"),
        "covariance.g_table.s": get("covariance.g_table", "s"),
        "covariance.median_stderr": counts.get("covariance.median_stderr", 0.0),
        "covariance.used_frac": ratio(counts.get("covariance.used", 0),
                                      counts.get("covariance.samples", 0)),
        "solver.evolve_array.calls": get("solver.evolve_array", "calls"),
        "solver.evolve_array.s": evolve_s,
        "solver.sample_steps": counts.get("solver.sample_steps", 0),
        "solver.sample_steps_per_s": ratio(counts.get("solver.sample_steps", 0), evolve_s),
        "solver.rhs_evals": counts.get("solver.rhs_evals", 0),
        "solver.us_per_rhs_eval": 1e6 * ratio(evolve_s, counts.get("solver.rhs_evals", 0)),
        "solver.blowups": counts.get("solver.blowups", 0),
        "sampling.sample_coeff_batch.s": draws_s,
        "sampling.draws": counts.get("sampling.draws", 0),
        "sampling.draws_per_s": ratio(counts.get("sampling.draws", 0), draws_s),
        "picard.remainder_growth_scan.self_s": get("picard.remainder_growth_scan", "self_s"),
        "picard.first_iterate_closed_form.calls": get("picard.first_iterate_closed_form", "calls"),
        "picard.first_iterate_closed_form.s": get("picard.first_iterate_closed_form", "s"),
        "dispersion.triad_blocks.s": get("dispersion.triad_blocks", "s"),
        "dispersion.triads": counts.get("dispersion.triads", 0),
        "dispersion.omega_full.calls": get("dispersion.omega_full", "calls"),
        "dispersion.phi_full.calls": get("dispersion.phi_full", "calls"),
        "kernels.tilde_f_kernel.calls": get("kernels.tilde_f_kernel", "calls"),
        "kernels.tilde_f_kernel.s": get("kernels.tilde_f_kernel", "s"),
        "kernels.f_kernel.calls": get("kernels.f_kernel", "calls"),
        "kernels.f_kernel.s": get("kernels.f_kernel", "s"),
        "field.s": by_layer.get("field", 0.0),
    }
    problems = [f"declared span {name} recorded no call"
                for name in worker.WORKLOADS[workload].spans if get(name, "calls") == 0]
    self_sum = sum(tracing.self_times(spans))
    if abs(self_sum - result["wall_s"]) > SELF_SUM_TOL * result["wall_s"]:
        problems.append(f"self times sum to {self_sum:.6f} s, traced wall {result['wall_s']:.6f} s")
    return metrics, problems


class Run:
    """Everything one benchmark run measured and every problem it met."""

    def __init__(self, seconds):
        self.setups, self.plain, self.traced, self.infos = [], [], [], []
        self.yardstick_calls = []    # one list of timings per yardstick process
        self.problems, self.attempted, self.failed = [], 0, 0
        self.reps, self.reps_passed = 0, 0
        self.deadline = time.monotonic() + seconds

    @property
    def yardsticks(self):
        return [t for call in self.yardstick_calls for t in call]

    def mark(self):
        """Index of the last yardstick process so far (-1 before the first)."""
        return len(self.yardstick_calls) - 1

    def speed(self, mark):
        """Mean yardstick time of the processes just before and after `mark`."""
        around = self.yardstick_calls[max(mark, 0):mark + 2]
        timings = [t for call in around for t in call] or self.yardsticks
        return statistics.fmean(timings)

    def time_left(self):
        """Seconds a process started now may run before it is stopped."""
        return max(1.0, self.deadline + OVERRUN_S - time.monotonic())


def setup_only(run, env, args, run_dir, record=True):
    """One set-up-only start; its time joins the set-up samples."""
    result, error = run_worker(env, args.workload, args.seed, run_dir, setup_only=True,
                               timeout=run.time_left())
    run.attempted += 1
    if error:
        run.failed += 1
        run.problems.append(f"set-up: {error}")
    elif record:
        run.setups.append((result["setup_s"], run.mark()))


def measure(args, env, reference):
    """Set-up-only starts, then repetitions until the next would overrun."""
    run = Run(args.seconds)
    run_dir = SCRATCH / f"{args.workload}-{os.getpid()}"
    for i in range(SETUP_REPS + 1):
        setup_only(run, env, args, run_dir, record=i > 0)

    kinds = (0, 1) if args.trace else (0,)
    rep, longest = 0, 0.0
    run_yardstick(env, run)
    while True:
        trace = kinds[rep % len(kinds)]
        out = run_dir / f"rep{rep}"
        started = time.monotonic()
        result, error = run_worker(env, args.workload, args.seed, out, trace=trace,
                                   timeout=run.time_left())
        verdict = gates.check(args.workload, out, result, error, args.seed, reference)
        if result is not None:
            result.update(verdict.info, mark=run.mark())
            if trace:
                result["layers"], coverage = layer_metrics(args.workload, result)
                verdict.problems += coverage
            (run.traced if trace else run.plain).append(result)
            run.setups.append((result["setup_s"], run.mark()))
        shutil.rmtree(out, ignore_errors=True)
        run.attempted += verdict.attempted
        run.failed += verdict.failed
        run.reps_passed += not verdict.problems
        run.problems += [f"rep {rep}: {p}" for p in verdict.problems]
        run.infos.append(verdict.info)
        setup_only(run, env, args, run_dir)
        run_yardstick(env, run)
        run.reps = rep = rep + 1
        longest = max(longest, time.monotonic() - started)
        if rep >= len(kinds) and time.monotonic() + longest > run.deadline:
            break
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    return run


def metric_samples(run, trace):
    """Per-metric sample lists: end-to-end untraced, or per-layer traced."""
    def walls(results):
        return [at_reference_speed(r["wall_s"], run.speed(r["mark"])) for r in results]

    if not run.yardsticks:
        return {}
    if trace:
        if not (run.traced and run.plain):
            return {}
        samples = {name: [r["layers"][name] for r in run.traced] for name in run.traced[0]["layers"]}
        samples["trace.overhead_frac"] = [
            statistics.median(walls(run.traced)) / statistics.median(walls(run.plain)) - 1.0]
        return samples
    if not run.plain:
        return {}
    return {
        "wall_s": walls(run.plain),
        "setup_s": [at_reference_speed(t, run.speed(mark)) for t, mark in run.setups],
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in run.plain],
        "time_to_stderr_s": [time_to_stderr(w, r.get("variance_ratio"))
                             for w, r in zip(walls(run.plain), run.plain)],
    }


def summary_line(name, values, unit):
    s = stats.summary(values)
    tail = f"p{s['tail'][0]:g} {s['tail'][1]:.6g}" if s["tail"] else "tail n/a"
    return (f"{name:<40} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
            f"n={s['n']} {tail} {unit}")


def run_workload(args, spec, reference):
    """Measure one workload and print its report; returns the exit code."""
    host = host_info()
    load_before = loadavg()
    run = measure(args, child_env(), reference)
    load_after = loadavg()

    samples = metric_samples(run, args.trace)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = list(run.problems)
    problems += [f"metric {name} missing from BENCHMARK.json"
                 for name in sorted(set(samples) - {e["name"] for e in declared})]
    problems += [f"metric name {e['name']!r} breaks the name pattern"
                 for e in declared if not stats.valid_metric_name(e["name"])]
    print(f"# wavecorr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host: {host}")
    print(f"# loadavg before: {load_before}; after: {load_after}")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name not in samples:
            problems.append(f"metric {name} not measured")
            continue
        print(summary_line(name, samples[name], unit))
        metrics[name] = {"value": stats.quartiles(samples[name])[1], "unit": unit}
    if run.plain:
        print(summary_line("wall_s (as measured)", [r["wall_s"] for r in run.plain], "s"))
    if run.setups:
        print(summary_line("setup_s (as measured)", [t for t, _ in run.setups], "s"))
    if run.yardsticks:
        print(summary_line("yardstick_s", run.yardsticks,
                           f"s (reference {REFERENCE_YARDSTICK_S:g} s)"))
        print("# per repetition, wall_s as measured / yardstick around it (t: traced): "
              + " ".join(f"{r['wall_s']:.4f}/{run.speed(r['mark']):.4f}{'t' if 'spans' in r else ''}"
                         for r in sorted(run.plain + run.traced, key=lambda r: r["mark"])))
    print(f"{'fail_frac':<40} {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} operations failed)")
    print(f"# gates: {run.reps_passed} of {run.reps} repetitions passed")
    for key in sorted({k for info in run.infos for k in info if k.startswith("sha256")}):
        seen = {info[key] for info in run.infos if key in info}
        print(f"# {key}: " + ", ".join(f"{h} match={m}" for h, m in sorted(seen, key=str)))
    for problem in problems:
        print(f"# GATE FAILED: {problem}")
    correct = not problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(worker.WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wavecorr" / "__init__.py").is_file():
        print(f"error: no wavecorr source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = gates.load_reference()
    names = list(worker.WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec, reference)
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
