"""Batch front-end: configuration, experiment orchestration, report emission.

Configuration is a flat JSON object with dotted keys (see DEFAULTS); any key
can be overridden on the command line with --set key=value.  Commands:

    resonances          triad catalog with the model's no-resonance checks
    predict             analytic covariance-correction table
    covariance          coupled Monte Carlo pipeline (CSV + JSON reports)
    picard-scan         remainder growth table over a time grid
    sample-diagnostics  noise-law moments and datum-norm tail report
    verify              small-scale oracle self-test suite

Exit codes: 0 success, 1 self-test failure, 2 no-resonance alarm, 3 invalid
statistical report, 64 configuration error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dispersion, picard, sampling, solver
from . import covariance as cov
from . import field as fld
from .kernels import f_kernel, sinc_kernel, tilde_f_kernel

__all__ = ["main", "load_config", "RunConfig", "ConfigError", "verify_all"]

DEFAULTS = {
    "model": "bbm",
    "grid.nmax": 16,
    "spectrum.family": "sobolev",
    "spectrum.alpha": 3.0,
    "spectrum.force": False,
    "law.kind": "complex-gaussian",
    "law.kurtosis": None,
    "run.epsilon": 0.05,
    "run.t": 1.0,
    "run.dt": 2e-3,
    "run.samples": 256,
    "run.seed": 1,
    "run.workers": 1,
    "run.batch": 128,
    "run.budget": 2e10,
    "resonances.threshold": 0.05,
    "diagnostics.draws": 100000,
    "diagnostics.s": None,
    "out.dir": "out",
}

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_ALARM = 2
EXIT_INVALID_REPORT = 3
EXIT_CONFIG = 64


class ConfigError(ValueError):
    pass


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string"}


def _checked(key, value, kind, nullable=False):
    """`value` as a `kind` (int, float, bool or str); ConfigError if it is not one."""
    if value is None and nullable:
        return None
    if kind in (bool, str):
        ok = isinstance(value, kind)
    else:
        try:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value) and (kind is float or float(value).is_integer()))
        except OverflowError:  # an integer beyond the float range
            ok = False
    if not ok:
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}"
                          + (" or null" if nullable else "") + f", got {value!r}")
    return kind(value)


def load_config(path=None, overrides=()):
    """Merge defaults, an optional JSON file, and --set overrides."""
    merged = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            merged[key] = json.loads(raw)
        except json.JSONDecodeError:
            merged[key] = raw
    return merged


@dataclass
class RunConfig:
    """Validated run parameters shared by every command."""

    model: dispersion.DispersionModel
    nmax: int
    spectrum_family: str
    spectrum_alpha: object
    spectrum_force: bool
    law: sampling.NoiseLaw
    epsilon: float
    times: list
    dt: float
    samples: int
    seed: int
    workers: int
    batch: int
    budget: float
    resonance_threshold: float
    diagnostics_draws: int
    diagnostics_s: object
    out_dir: Path

    @classmethod
    def from_mapping(cls, cfg):
        def get(key, kind, nullable=False):
            return _checked(key, cfg[key], kind, nullable)

        try:
            model = dispersion.get_model(get("model", str))
        except ValueError as exc:
            raise ConfigError(str(exc))
        nmax = get("grid.nmax", int)
        if nmax < 1:
            raise ConfigError("grid.nmax must be a positive integer")
        epsilon = get("run.epsilon", float)
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigError(f"run.epsilon must lie in [0, 1], got {epsilon}")
        raw_t = cfg["run.t"]
        times = [_checked("run.t", v, float)
                 for v in (raw_t if isinstance(raw_t, (list, tuple)) else [raw_t])]
        if any(t < 0 for t in times) or not times:
            raise ConfigError("run.t must be a nonnegative time or list of times")
        dt = get("run.dt", float)
        if dt <= 0:
            raise ConfigError("run.dt must be positive")
        seed = get("run.seed", int)
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"run.seed must lie in [0, 2^64), got {seed}")
        samples = get("run.samples", int)
        if samples < 2:
            raise ConfigError("run.samples must be at least 2")
        workers = get("run.workers", int)
        batch = get("run.batch", int)
        if workers < 1 or batch < 1:
            raise ConfigError("run.workers and run.batch must be positive")
        try:
            law = sampling.law_from_kurtosis(get("law.kind", str),
                                             get("law.kurtosis", float, nullable=True))
        except ValueError as exc:
            raise ConfigError(str(exc))
        return cls(
            model=model, nmax=nmax,
            spectrum_family=get("spectrum.family", str),
            spectrum_alpha=get("spectrum.alpha", float, nullable=True),
            spectrum_force=get("spectrum.force", bool),
            law=law, epsilon=epsilon, times=times, dt=dt, samples=samples,
            seed=seed, workers=workers, batch=batch,
            budget=get("run.budget", float),
            resonance_threshold=get("resonances.threshold", float),
            diagnostics_draws=get("diagnostics.draws", int),
            diagnostics_s=get("diagnostics.s", float, nullable=True),
            out_dir=Path(get("out.dir", str)))

    def spectrum(self, gated):
        """Build the profile; dynamics commands enforce the regularity floor."""
        model = self.model if (gated and not self.spectrum_force) else None
        try:
            return sampling.build_spectrum(
                self.spectrum_family, self.spectrum_alpha, self.nmax, self.model.dimension, model)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def ensemble(self, gated=True):
        return sampling.EnsembleConfig(self.law, self.spectrum(gated), self.samples, self.seed)


def _outfile(cfg, name):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir / name


def _triads_with_delta(model, nmax):
    """Every triad as flat full-box index arrays (n, k, l), with delta from omega_full.

    The order is `triad_blocks`': n ascending, k ascending within each n.
    Blocks are kept as int32 (a box index is small): once freed they leave
    heap holes that later arrays may not reuse, so their size bounds how far
    the command's peak memory moves with the allocator's state.
    """
    om = dispersion.omega_full(model, nmax).ravel()
    blocks = ([tuple(a.astype(np.int32) for a in block)
               for block in dispersion.triad_blocks(model.dimension, nmax)]
              or [(np.empty(0, dtype=np.int32),) * 3])
    n, k, l = (np.concatenate(part) for part in zip(*blocks))
    del blocks  # freed before the lookups below allocate: a lower peak
    return n, k, l, om[k] + om[l] - om[n]


# ---------------------------------------------------------------------------
# resonances
# ---------------------------------------------------------------------------

# rows formatted per write; the whole KP-I nmax=16 catalog as one string
# raised the command's peak memory from 87 MB to 249 MB
_CSV_ROWS = 1 << 12


def _formatted_once(values):
    """`%.17g` text of sorted `values`: (one text per distinct value, group of each value)."""
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    first = np.flatnonzero(starts)
    # run lengths, not a cumsum of `starts`, which would first copy it to int64
    group = np.repeat(np.arange(first.size), np.diff(first, append=values.size))
    return ["%.17g" % v for v in values[first].tolist()], group


def cmd_resonances(cfg):
    if cfg.nmax > 32:
        raise ConfigError("resonance enumeration is budgeted for grid.nmax <= 32")
    model = cfg.model
    n, k, l, d = _triads_with_delta(model, cfg.nmax)
    # delta is needed only as its sign bit and |delta|, which takes its memory
    negative = np.signbit(d)
    abs_d = np.abs(d, out=d)
    full = dispersion.full_modes(model.dimension, cfg.nmax)
    # the KP-II bound and the BBM lemma read only first components
    first = full[:, :1].astype(float)

    smallest = float(abs_d.min()) if abs_d.size else math.nan
    detail = f"min |delta| = {smallest:.17g}"
    ratio = None
    if model.kind == "kpii":
        ratio = abs_d / dispersion.kpii_delta_bound(first[n], first[k], first[l])
        least = float(ratio.min()) if abs_d.size else math.nan
        alarm = least < 1.0 - 1e-12
        detail = (f"lemma bound violated: min ratio {least:.17g}" if alarm
                  else f"min |delta|/(3|n1 k1 l1|) = {least:.17g}")
    elif model.kind == "bbm":
        magnitude = np.abs(dispersion.bbm_delta_factored(first[n, 0], first[k, 0], first[l, 0]))
        alarm = abs_d.size > 0 and (
            smallest == 0.0 or float(np.max(np.abs(abs_d - magnitude) / magnitude)) > 1e-12)
        if alarm:
            detail = "zero divisor or rational-formula mismatch"
    elif model.kind == "kdv":
        alarm = smallest < 3.0
        if alarm:
            detail = "zero or sub-integer divisor found"
    else:
        alarm = False
        near = int(np.sum(abs_d <= cfg.resonance_threshold))
        detail += f"; {near} triads within threshold {cfg.resonance_threshold:g}"

    # Rows go by (|delta|, n, k, l) in lexicographic label order.  Flat
    # full-box indices are row-major over the labels, so they order as the
    # labels do; triads arrive with n ascending and k ascending within each
    # n, and l follows from (n, k).  A stable sort on |delta| alone therefore
    # gives that order.
    order = np.argsort(abs_d, kind="stable")
    text, group = _formatted_once(abs_d[order])
    # the signed cell is the |delta| text behind a "-" wherever the sign bit
    # is set, which keeps "-0" for -0.0
    signed = np.array([t + "," for t in text] + ["-" + t + "," for t in text], dtype=object)
    absolute = np.array(text, dtype=object)
    if ratio is not None:  # not sorted, so grouped by np.unique
        values, ratio_group = np.unique(ratio, return_inverse=True)
        ratios = np.array(["," + "%.17g" % v for v in values.tolist()], dtype=object)
    labels = np.array([dispersion.mode_label(m) + "," for m in full.tolist()], dtype=object)
    path = _outfile(cfg, "resonances.csv")
    with open(path, "w", encoding="utf-8") as fh:
        header = "n,k,l,delta,abs_delta" + (",bound_ratio" if ratio is not None else "")
        fh.write(header + "\n")
        for start in range(0, order.size, _CSV_ROWS):
            part = slice(start, start + _CSV_ROWS)
            rows = order[part]
            cells = (labels[n[rows]] + labels[k[rows]] + labels[l[rows]]
                     + signed[group[part] + len(text) * negative[rows]] + absolute[group[part]])
            if ratio is not None:
                cells += ratios[ratio_group[rows]]
            fh.write("".join((cells + "\n").tolist()))
    print(f"resonances: {model.kind} nmax={cfg.nmax}: {abs_d.size} triads -> {path}")
    print(f"resonances: {detail}")
    if alarm:
        print("resonances: NO-RESONANCE ASSERTION VIOLATED", file=sys.stderr)
        return EXIT_ALARM
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(cfg):
    spectrum = cfg.spectrum(gated=False)
    rows = cov.prediction_table(spectrum, cfg.law.kurtosis, cfg.model, cfg.times)
    path = _outfile(cfg, "predictions.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,mode,l1,lambda_sq,g_total,envelope,warnings\n")
        for t, mode, size, lam2, g, env, flagged in rows:
            fh.write(",".join([
                f"{t:.17g}", dispersion.mode_label(mode), str(size),
                f"{lam2:.17g}", f"{g:.17g}", f"{env:.17g}",
                "truncated-2n" if flagged else ""]) + "\n")
    print(f"predict: wrote {len(cfg.times)} time slice(s) -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def cmd_covariance(cfg):
    if len(cfg.times) != 1:
        raise ConfigError(f"covariance takes one time in run.t, got {len(cfg.times)}")
    ensemble = cfg.ensemble(gated=True)
    t = cfg.times[0]
    grid = solver.padded_length(cfg.nmax)
    work = cfg.samples * solver.step_count(t, cfg.dt) * 4 * grid ** cfg.model.dimension
    if work > cfg.budget:
        raise ConfigError(
            f"estimated work {work:.3g} exceeds run.budget {cfg.budget:.3g} "
            "(samples x steps x stages x grid points)")
    try:
        report = cov.mc_covariance(
            ensemble, cfg.model, cfg.epsilon, t, cfg.dt,
            workers=cfg.workers, batch_size=cfg.batch)
    except cov.TooFewSamplesError as exc:
        print(f"covariance: REPORT INVALID ({exc})", file=sys.stderr)
        return EXIT_INVALID_REPORT
    csv_path = _outfile(cfg, "covariance.csv")
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    json_path = _outfile(cfg, "covariance.json")
    json_path.write_text(report.to_json(), encoding="utf-8")
    verdict = cov.compare_prediction(report)
    print(f"covariance: {report.used}/{report.samples} samples used, "
          f"{len(report.excluded)} excluded -> {csv_path}")
    print(f"covariance: fraction of modes with |z| <= 3: {verdict.fraction_within_3:.4f}")
    if not verdict.decay_skipped:
        print(f"covariance: decay slope {verdict.decay_slope:.3f} "
              f"(bound {verdict.decay_bound:.3f}, ok={verdict.decay_ok})")
    print(f"covariance: max off-diagonal |estimate| {report.offdiag_max_abs:.6g} "
          f"(stderr {report.offdiag_max_stderr:.6g})")
    if report.invalid:
        print("covariance: REPORT INVALID (excess solver exclusions)", file=sys.stderr)
        return EXIT_INVALID_REPORT
    return EXIT_OK


# ---------------------------------------------------------------------------
# picard-scan
# ---------------------------------------------------------------------------

def cmd_picard_scan(cfg):
    if cfg.epsilon <= 0:
        raise ConfigError("picard-scan needs run.epsilon > 0")
    ensemble = cfg.ensemble(gated=True)
    u0 = sampling.sample_initial_field(ensemble, 0)
    scan = picard.remainder_growth_scan(u0, cfg.model, cfg.epsilon, cfg.times, cfg.dt)
    path = _outfile(cfg, "picard_scan.csv")
    path.write_text(scan.to_csv(), encoding="utf-8")
    exponent = scan.fitted_exponent
    print(f"picard-scan: {len(scan.rows)} rows -> {path}"
          + (" (truncated at blow-up)" if scan.truncated else ""))
    print(f"picard-scan: fitted growth exponent: "
          + (f"{exponent:.4f}" if exponent is not None else "undefined"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample-diagnostics
# ---------------------------------------------------------------------------

def cmd_sample_diagnostics(cfg):
    if cfg.diagnostics_draws < 10_000:
        raise ConfigError("diagnostics.draws must be at least 10000")
    ensemble = cfg.ensemble(gated=False)
    moments = sampling.moment_report(cfg.law, cfg.diagnostics_draws, seed=cfg.seed)
    s = cfg.diagnostics_s
    s = max(0.0, ensemble.spectrum.effective_s) if s is None else float(s)
    tail = sampling.tail_report(ensemble, cfg.diagnostics_draws, s)
    path = _outfile(cfg, "diagnostics.json")
    payload = {"moments": json.loads(moments.to_json()),
               "tail": json.loads(tail.to_json())}
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"sample-diagnostics: draws={cfg.diagnostics_draws} law={cfg.law.kind} -> {path}")
    print(f"sample-diagnostics: flagged moments: {moments.flagged or 'none'}; "
          f"tail slope: {tail.slope}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _triad_modes_with_delta(model, nmax):
    """`_triads_with_delta` with the triads as (T, dim) mode arrays."""
    n, k, l, d = _triads_with_delta(model, nmax)
    full = dispersion.full_modes(model.dimension, nmax)
    return full[n], full[k], full[l], d


def _check_delta_oracles():
    n, k, l, d = _triad_modes_with_delta(dispersion.BBM, 12)
    ref = dispersion.bbm_delta_factored(n[:, 0], k[:, 0], l[:, 0])
    worst = float(np.max(np.abs(d - ref) / np.abs(ref)))
    n, k, l, d = _triad_modes_with_delta(dispersion.KDV, 12)
    worst = max(worst, float(np.max(np.abs(d + 3.0 * n[:, 0] * k[:, 0] * l[:, 0]))))
    for model in (dispersion.KPI, dispersion.KPII):
        n, k, l, d = _triad_modes_with_delta(model, 5)
        ref = dispersion.kp_delta_factored(model, n, k, l)
        worst = max(worst, float(np.max(np.abs(d - ref) / np.abs(ref))))
        if model.kind == "kpii":
            ratio = np.abs(d) / dispersion.kpii_delta_bound(n, k, l)
            if float(ratio.min()) < 1.0 - 1e-12:
                return False, f"KP-II bound ratio {ratio.min():.3e}"
    return worst <= 1e-12, f"max relative mismatch {worst:.3e}"


def _check_kernels():
    deltas = np.concatenate([[0.0], np.geomspace(1e-9, 1e3, 25)])
    ts = np.array([0.0, 0.3, 2.7])
    worst = 0.0
    for t in ts:
        lhs = sinc_kernel(deltas, t)
        rhs = np.real(-f_kernel(deltas, -t))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        h = 1e-6
        fd = (tilde_f_kernel(deltas, t + h) - tilde_f_kernel(deltas, t - h)) / (2 * h)
        worst_fd = float(np.max(np.abs(fd - lhs) / (1.0 + np.abs(lhs))))
        if worst_fd > 1e-6:
            return False, f"d/dt tilde mismatch {worst_fd:.3e}"
    for func in (f_kernel, sinc_kernel, tilde_f_kernel):
        near = np.abs(func(1e-9, 1.0) - func(0.0, 1.0))
        rel = near / max(abs(func(0.0, 1.0)), 1e-300)
        if rel > 1e-8:
            return False, f"{func.__name__} discontinuous near 0 ({rel:.3e})"
    return worst <= 1e-12, f"max identity defect {worst:.3e}"


def _check_semigroup():
    rng = np.random.default_rng(7)
    ok = True
    detail = []
    for model, dim in ((dispersion.KDV, 1), (dispersion.KPII, 2)):
        f = fld.random_field(dim, 6, rng)
        n0 = fld.sobolev_norm(f, 1.5)
        g1 = fld.apply_semigroup(model, fld.apply_semigroup(model, f, 0.4), 0.6)
        g2 = fld.apply_semigroup(model, f, 1.0)
        defect = float(np.max(np.abs(g1.coeffs - g2.coeffs)))
        drift = abs(fld.sobolev_norm(g2, 1.5) - n0)
        ok = ok and defect < 1e-12 and drift < 1e-12
        detail.append(f"{model.kind}: comp {defect:.1e}, norm drift {drift:.1e}")
    return ok, "; ".join(detail)


def _check_dealias():
    rng = np.random.default_rng(11)
    for dim, nm in ((1, 5), (2, 3)):
        f = fld.random_field(dim, nm, rng)
        sq = solver.dealiased_square(f)
        a = fld.full_array(f)
        worst = 0.0
        for mode in dispersion.mode_list(dim, nm):
            tup = (mode,) if dim == 1 else mode
            total = 0.0 + 0.0j
            for kc in itertools.product(range(-nm, nm + 1), repeat=dim):
                lc = tuple(x - y for x, y in zip(tup, kc))
                if kc[0] == 0 or lc[0] == 0 or any(abs(x) > nm for x in lc):
                    continue
                total += a[tuple(c + nm for c in kc)] * a[tuple(c + nm for c in lc)]
            got = fld.coefficient(sq, mode)
            worst = max(worst, abs(got - total))
        if worst > 1e-13:
            return False, f"dim {dim}: convolution defect {worst:.3e}"
    return True, "exact vs brute-force convolution"


def _check_picard():
    rng = np.random.default_rng(3)
    u0 = fld.random_field(1, 6, rng)
    b1 = picard.first_iterate_closed_form(u0, dispersion.BBM, 0.8)
    b2 = picard.first_iterate_quadrature(u0, dispersion.BBM, 0.8)
    num = np.linalg.norm(b1.coeffs - b2.coeffs)
    den = np.linalg.norm(b1.coeffs)
    rel = num / den if den else num
    return rel <= 1e-9, f"closed vs quadrature relative {rel:.3e}"


def _check_sampler():
    details = []
    ok = True
    for law in (sampling.complex_gaussian(), sampling.random_phase()):
        rep = sampling.moment_report(law, 50_000, seed=12345)
        ok = ok and rep.passed
        abs4 = rep.values["abs4"].real
        if law.kind == "random-phase":
            ok = ok and abs4 == 1.0
        else:
            ok = ok and abs(abs4 - 2.0) <= 4.0 * rep.stderrs["abs4"]
        details.append(f"{law.kind}: E|g|^4 = {abs4:.4f}, flags {rep.flagged or 'none'}")
    return ok, "; ".join(details)


def _check_equilibrium():
    cases = [
        (dispersion.BBM, sampling.build_spectrum("bbm-gibbs", None, 12, 1)),
        (dispersion.KDV, sampling.build_spectrum("constant", None, 12, 1)),
        (dispersion.KPII, sampling.build_spectrum("constant", None, 4, 2)),
        (dispersion.KPI, sampling.build_spectrum("constant", None, 4, 2)),
    ]
    worst = 0.0
    for model, spectrum in cases:
        for mode in dispersion.mode_list(model.dimension, spectrum.nmax):
            terms, corr, _ = cov.g_total_terms(mode, spectrum, 2.0, model, 2.0)
            if terms.size:
                worst = max(worst, float(np.max(np.abs(terms))))
            worst = max(worst, abs(corr))
    return worst <= 1e-14, f"largest per-triad residue {worst:.3e}"


VERIFY_CHECKS = [
    ("delta-oracles", _check_delta_oracles),
    ("kernel-identities", _check_kernels),
    ("semigroup", _check_semigroup),
    ("dealias-convolution", _check_dealias),
    ("picard-equivalence", _check_picard),
    ("sampler-moments", _check_sampler),
    ("equilibrium-cancellation", _check_equilibrium),
]


def verify_all():
    """Run every self-check; returns a list of (name, passed, detail)."""
    results = []
    for name, check in VERIFY_CHECKS:
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed oracle is a failure, not an error
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results


def cmd_verify(cfg):
    results = verify_all()
    width = max(len(name) for name, _, _ in results)
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    if failed:
        print(f"verify: FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_SELFTEST
    print("verify: all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "resonances": cmd_resonances,
    "predict": cmd_predict,
    "covariance": cmd_covariance,
    "picard-scan": cmd_picard_scan,
    "sample-diagnostics": cmd_sample_diagnostics,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wavecorr",
        description="Spectral simulation and covariance statistics for random dispersive waves")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file with flat dotted keys")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="override a config key")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (overrides out.dir)")
    args = parser.parse_args(argv)
    try:
        mapping = load_config(args.config, args.overrides)
        if args.out is not None:
            mapping["out.dir"] = args.out
        cfg = RunConfig.from_mapping(mapping)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
