"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
                                [--trace 0|1] [--setup-only]

Set-up (imports, config, spectrum and datum) ends at the `t_ready` stamp,
taken on the monotonic clock the parent stamped just before starting this
process.  The timed work follows; with --trace 1 the layer functions are
wrapped in spans first.
The last line of stdout is one JSON object that the parent reads;
everything the program itself prints is captured into it.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing

DEFAULT_SEED = 1  # the CLI's default run.seed; the stored reference uses it

# commands that build a spectrum, and whether they enforce the regularity floor
SPECTRUM_GATED = {"covariance": True, "predict": False}

PELL_DATUM = {(1, 14): 0.15, (7, 1): 0.15}
PELL_GRID = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]


def _overrides(pairs):
    out = []
    for key, value in pairs:
        out += ["--set", f"{key}={value}"]
    return out


class CliWorkload:
    """Runs `wavecorr <command>` lines through `cli.main`, as a user would."""

    def __init__(self, seed, out):
        self.seed = seed
        self.out = out
        self.argvs = [[command, *_overrides(pairs), "--out", str(out)]
                      for command, pairs in self.commands(seed)]
        self.stdout = ""

    def setup(self):
        from wavecorr import cli
        self.cli = cli
        for command, pairs in self.commands(self.seed):
            cfg = cli.RunConfig.from_mapping(
                cli.load_config(None, [f"{k}={v}" for k, v in pairs]))
            if command in SPECTRUM_GATED:
                cfg.spectrum(gated=SPECTRUM_GATED[command])

    def work(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            codes = [self.cli.main(argv) for argv in self.argvs]
        self.stdout = buffer.getvalue()
        self.codes = codes

    def finish(self):
        written = sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())
        return {"exit_codes": self.codes, "stdout": self.stdout, "bytes_out": written}


class McBbm(CliWorkload):
    spans = ("cli.main", "covariance.mc_covariance", "covariance.g_table",
             "solver.evolve_array", "sampling.sample_coeff_batch",
             "dispersion.omega_full", "dispersion.phi_full", "kernels.tilde_f_kernel")

    @staticmethod
    def commands(seed):
        return [("covariance", [
            ("model", "bbm"), ("grid.nmax", 32), ("spectrum.family", "sobolev"),
            ("spectrum.alpha", 3), ("run.epsilon", 0.05), ("run.t", 1),
            ("run.dt", 2e-3), ("run.samples", 1024), ("run.batch", 256),
            ("run.workers", 1), ("run.seed", seed)])]


class Analytic(CliWorkload):
    spans = ("cli.main", "dispersion.triad_blocks", "covariance.g_table",
             "dispersion.omega_full", "dispersion.phi_full", "kernels.tilde_f_kernel")

    @staticmethod
    def commands(seed):
        return [
            ("resonances", [("model", "kpi"), ("grid.nmax", 16)]),
            ("predict", [("model", "kpii"), ("grid.nmax", 32),
                         ("spectrum.family", "sobolev"), ("spectrum.alpha", 3.5),
                         ("run.t", "[0.5,1,2,4]")]),
        ]


class PellScan:
    """`picard.remainder_growth_scan` on the KP-I Pell datum (no CLI path)."""

    spans = ("picard.remainder_growth_scan", "picard.first_iterate_closed_form",
             "solver.evolve_array", "dispersion.omega_full", "kernels.f_kernel",
             "field.full_array", "field.sobolev_norm")

    def __init__(self, seed, out):
        self.out = out

    def setup(self):
        from wavecorr import dispersion, field, picard
        self.picard = picard
        self.model = dispersion.KPI
        self.u0 = field.field_from_modes(2, 16, PELL_DATUM)

    def work(self):
        self.scan = self.picard.remainder_growth_scan(
            self.u0, self.model, 0.05, PELL_GRID, dt=5e-4)

    def finish(self):
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "picard_scan.csv").write_text(self.scan.to_csv(), encoding="utf-8")
        return {"rows": self.scan.rows, "exponent": self.scan.fitted_exponent,
                "truncated": self.scan.truncated}


WORKLOADS = {"mc-bbm": McBbm, "pell-scan": PellScan, "analytic": Analytic}


# ---------------------------------------------------------------------------
# Layer spans: which functions are wrapped, and what is counted at each.
# ---------------------------------------------------------------------------

def _evolve_counts(tracer, evolve_array):
    import numpy as np

    signature = inspect.signature(evolve_array)

    def on_return(args, kwargs, result):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        t_start, t_final, dt = float(a["t_start"]), float(a["t_final"]), float(a["dt"])
        rows = int(np.prod(np.shape(a["coeffs"])[:-a["model"].dimension]))
        # same segmentation as evolve_array: snapshot times are hit exactly
        targets = sorted(s for s in set(map(float, a["snapshot_times"])) if s > t_start + 1e-12)
        if not targets or targets[-1] < t_final - 1e-12:
            targets.append(t_final)
        steps, t_seg = 0, t_start
        for target in targets:
            if target - t_seg > 0:
                steps += max(1, int(np.ceil((target - t_seg) / dt - 1e-9)))
            t_seg = target
        tracer.count("solver.sample_steps", rows * steps)
        tracer.count("solver.rhs_evals", 4 * steps)
        tracer.count("solver.blowups", int(np.size(result[2]) - np.count_nonzero(result[2])))
    return on_return


def _mc_counts(tracer):
    import numpy as np

    def on_return(args, kwargs, report):
        tracer.count("covariance.median_stderr", float(np.median(report.stderrs)))
        tracer.count("covariance.used", report.used)
        tracer.count("covariance.samples", report.samples)
    return on_return


def install_spans(tracer):
    """Wrap every traced function of the program where its callers find it."""
    from wavecorr import cli, covariance, dispersion, field, kernels, picard, sampling, solver

    plain = [
        (cli, "main", None),
        (covariance, "mc_covariance", _mc_counts(tracer)),
        (covariance, "g_table", None),
        (solver, "evolve_array", _evolve_counts(tracer, solver.evolve_array)),
        (sampling, "sample_coeff_batch",
         lambda a, k, result: tracer.count("sampling.draws", result.size)),
        (picard, "remainder_growth_scan", None),
        (picard, "first_iterate_closed_form", None),
        (dispersion, "omega_full", None),
        (dispersion, "phi_full", None),
        (kernels, "tilde_f_kernel", None),
        (kernels, "f_kernel", None),
    ]
    plain += [(field, name, None) for name in field.__all__
              if callable(getattr(field, name)) and not isinstance(getattr(field, name), type)]
    for module, attr, on_return in plain:
        original = getattr(module, attr)
        span = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracing.patch_everywhere(original, tracer.wrap(span, original, on_return), "wavecorr")
    tracing.patch_everywhere(
        dispersion.triad_blocks,
        tracer.wrap_generator("dispersion.triad_blocks", dispersion.triad_blocks,
                              lambda item: tracer.count("dispersion.triads", len(item[0]))),
        "wavecorr")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.out)
    workload.setup()
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        install_spans(tracer)
    start = time.perf_counter()
    root = tracer.begin("bench.work") if tracer else None
    workload.work()
    if tracer:
        tracer.end(root)
    wall = time.perf_counter() - start

    result = workload.finish()
    result.update(t_ready=t_ready, wall_s=wall,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer:
        result.update(spans=tracer.spans, counts=dict(tracer.counts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
