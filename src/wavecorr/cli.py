"""Batch front-end: configuration, experiment orchestration, report emission.

Configuration is a flat JSON object with dotted keys (the KEYS table gives
each key's default and kind); any key can be overridden on the command line
with --set key=value, and --out names the output directory.  Commands:

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
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dispersion, picard, sampling, solver
from . import covariance as cov
from . import field as fld
from .kernels import f_kernel, tilde_f_kernel

__all__ = ["main", "load_config", "RunConfig", "ConfigError", "verify_all"]

# key: (default, kind, may be null); run.t also takes a list of times
KEYS = {
    "model": ("bbm", str, False),
    "grid.nmax": (16, int, False),
    "spectrum.family": ("sobolev", str, False),
    "spectrum.alpha": (3.0, float, True),
    "law.kind": ("complex-gaussian", str, False),
    "run.epsilon": (0.05, float, False),
    "run.t": (1.0, float, False),
    "run.dt": (2e-3, float, False),
    "run.samples": (256, int, False),
    "run.seed": (1, int, False),
    "run.workers": (1, int, False),
    "run.batch": (128, int, False),
    "run.budget": (2e10, float, False),
}

# |delta| at or below which `resonances` counts a KP-I triad as near-resonant
RESONANCE_THRESHOLD = 0.05

# noise draws behind each `sample-diagnostics` moment and tail estimate
DIAGNOSTIC_DRAWS = 100_000

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_ALARM = 2
EXIT_INVALID_REPORT = 3
EXIT_CONFIG = 64


class ConfigError(ValueError):
    pass


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def _checked(key, value, kind, nullable=False):
    """`value` as a `kind` (int, float or str); ConfigError if it is not one."""
    if value is None and nullable:
        return None
    if kind is str:
        ok = isinstance(value, str)
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
    merged = {key: default for key, (default, _, _) in KEYS.items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            merged[key] = json.loads(raw)
        except json.JSONDecodeError:
            merged[key] = raw
    return merged


@dataclass
class RunConfig:
    """Checked config values by dotted key (`cfg["run.samples"]`), plus the
    model, noise law and list of times resolved from them."""

    values: dict
    model: dispersion.DispersionModel
    law: sampling.NoiseLaw
    times: list

    def __getitem__(self, key):
        return self.values[key]

    @classmethod
    def from_mapping(cls, cfg):
        values = {}
        for key, (_, kind, nullable) in KEYS.items():
            raw = cfg[key]
            many = key == "run.t" and isinstance(raw, (list, tuple))
            values[key] = ([_checked(key, v, kind) for v in raw] if many
                           else _checked(key, raw, kind, nullable))
        try:
            model = dispersion.get_model(values["model"])
            law = sampling.NoiseLaw(values["law.kind"])
        except ValueError as exc:
            raise ConfigError(str(exc))
        if values["grid.nmax"] < 1:
            raise ConfigError("grid.nmax must be a positive integer")
        epsilon = values["run.epsilon"]
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigError(f"run.epsilon must lie in [0, 1], got {epsilon}")
        times = values["run.t"] if isinstance(values["run.t"], list) else [values["run.t"]]
        if any(t < 0 for t in times) or not times:
            raise ConfigError("run.t must be a nonnegative time or list of times")
        if values["run.dt"] <= 0:
            raise ConfigError("run.dt must be positive")
        seed = values["run.seed"]
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"run.seed must lie in [0, 2^64), got {seed}")
        if values["run.samples"] < 2:
            raise ConfigError("run.samples must be at least 2")
        if values["run.workers"] < 1 or values["run.batch"] < 1:
            raise ConfigError("run.workers and run.batch must be positive")
        return cls(values, model, law, times)

    def spectrum(self, gated):
        """Build the profile; dynamics commands enforce the regularity floor."""
        try:
            return sampling.build_spectrum(self["spectrum.family"], self["spectrum.alpha"],
                                           self["grid.nmax"], self.model.dimension,
                                           self.model if gated else None)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def ensemble(self, gated=True):
        return sampling.EnsembleConfig(self.law, self.spectrum(gated), self["run.samples"],
                                       self["run.seed"])

    def check_budget(self, work, counted_as):
        """ConfigError when `work`, counted as `counted_as`, exceeds run.budget.
        Commands call it before they build any array."""
        if work > self["run.budget"]:
            raise ConfigError(f"estimated work {work:.3g} exceeds run.budget "
                              f"{self['run.budget']:.3g} ({counted_as})")

    def check_work(self, samples):
        """check_budget for `samples` solves to the last time, counted as samples x
        steps x 4 stages x padded grid points, plus (2 + times) x stored^2 unordered
        triad pairs: at most 2 stored^2 for max |delta|, stored^2 for G_n or b per time."""
        try:
            steps = solver.step_count(max(self.times), self["run.dt"])
        except ValueError as exc:
            raise ConfigError(f"run.t and run.dt: {exc}")
        grid = solver.padded_length(self["grid.nmax"]) ** self.model.dimension
        triads = (2 + len(self.times)) * self.stored_count ** 2
        self.check_budget(samples * steps * 4 * grid + triads,
                          "samples x steps x stages x grid points + triad pairs")

    @property
    def stored_count(self):
        """Stored modes of the lattice, counted without building it."""
        return math.prod(dispersion.stored_shape(self.model.dimension, self["grid.nmax"]))


def _outfile(out, name):
    out.mkdir(parents=True, exist_ok=True)
    return out / name


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
    # run lengths, not a cumsum of `starts`, which would first copy it to
    # int64; int32 groups halve the command's largest index array
    group = np.repeat(np.arange(first.size, dtype=np.int32), np.diff(first, append=values.size))
    return ["%.17g" % v for v in values[first].tolist()], group


def _triad_deltas(model, nmax):
    """Every triad's signed delta and its flat full-box indices (n, k, l)."""
    n, k, l = dispersion.enumerate_triads(model.dimension, nmax)
    om = dispersion.omega_full(model, nmax).ravel()
    return om[k] + om[l] - om[n], n, k, l


def _lemma_verdict(model, nmax, d, n, k, l):
    """The model's no-resonance lemma over triads with signed delta `d`:
    (violated, detail or None, KP-II bound ratio or None).

    KP-II: |delta| >= 3|n1 k1 l1|.  BBM: delta equals its factored rational
    form.  KdV: delta = -3 n1 k1 l1.  KP-I has no lemma.  The detail is None
    where `min |delta|` alone describes the catalog.
    """
    if model.kind == "kpi":
        return False, None, None
    first = dispersion.full_modes(model.dimension, nmax)[:, 0].astype(float)
    n1, k1, l1 = first[n], first[k], first[l]
    # comparisons are written so that a nan delta violates the lemma
    if model.kind == "kpii":
        ratio = np.abs(d) / dispersion.kpii_delta_bound(n1[:, None], k1[:, None], l1[:, None])
        least = float(ratio.min()) if ratio.size else math.nan
        if ratio.size and not least >= 1.0 - 1e-12:
            return True, f"lemma bound violated: min ratio {least:.17g}", ratio
        return False, f"min |delta|/(3|n1 k1 l1|) = {least:.17g}", ratio
    if model.kind == "bbm":
        ref = dispersion.bbm_delta_factored(n1, k1, l1)
        worst = float(np.max(np.abs(d - ref) / np.abs(ref), initial=0.0))
        what = "relative mismatch to the rational form"
    else:
        worst = float(np.max(np.abs(d + 3.0 * n1 * k1 * l1), initial=0.0))
        what = "|delta + 3 n1 k1 l1|"
    violated = not worst <= 1e-12
    return violated, f"lemma violated: {what} {worst:.3e}" if violated else None, None


def cmd_resonances(cfg, out):
    model, nmax = cfg.model, cfg["grid.nmax"]
    if nmax > 32:
        raise ConfigError("resonance enumeration is budgeted for grid.nmax <= 32")
    d, n, k, l = _triad_deltas(model, nmax)
    alarm, detail, ratio = _lemma_verdict(model, nmax, d, n, k, l)
    # delta is needed only as its sign bit and |delta|, which takes its memory
    negative = np.signbit(d)
    abs_d = np.abs(d, out=d)
    if detail is None:
        detail = f"min |delta| = {float(abs_d.min()) if abs_d.size else math.nan:.17g}"
    if model.kind == "kpi":
        near = int(np.sum(abs_d <= RESONANCE_THRESHOLD))
        detail += f"; {near} triads within threshold {RESONANCE_THRESHOLD:g}"

    # Rows go by (|delta|, n, k, l) in lexicographic label order.  Flat
    # full-box indices are row-major over the labels, so they order as the
    # labels do; triads arrive with n ascending and k ascending within each
    # n, and l follows from (n, k).  A stable sort on |delta| alone therefore
    # gives that order.
    order = np.argsort(abs_d, kind="stable")
    text, group = _formatted_once(abs_d[order])
    # freed before the write loop, whose many small objects can then reuse it
    del d, abs_d
    # the signed cell is the |delta| text behind a "-" wherever the sign bit
    # is set, which keeps "-0" for -0.0
    signed = np.array([t + "," for t in text] + ["-" + t + "," for t in text], dtype=object)
    absolute = np.array(text, dtype=object)
    if ratio is not None:  # not sorted, so grouped by np.unique
        values, ratio_group = np.unique(ratio, return_inverse=True)
        ratios = np.array(["," + "%.17g" % v for v in values.tolist()], dtype=object)
    full = dispersion.full_modes(model.dimension, nmax)
    labels = np.array([dispersion.mode_label(m) + "," for m in full.tolist()], dtype=object)
    path = _outfile(out, "resonances.csv")
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
    print(f"resonances: {model.kind} nmax={nmax}: {order.size} triads -> {path}")
    print(f"resonances: {detail}")
    if alarm:
        print("resonances: NO-RESONANCE ASSERTION VIOLATED", file=sys.stderr)
        return EXIT_ALARM
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(cfg, out):
    # each stored mode has about half as many unordered triads as active modes
    cfg.check_budget(len(cfg.times) * cfg.stored_count ** 2,
                     "times x stored modes x active modes / 2")
    spectrum = cfg.spectrum(gated=False)
    dim, nmax = spectrum.dimension, spectrum.nmax
    size = dispersion.mode_l1(dim, nmax).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        values, flagged = cov.g_table(spectrum, cfg.law.kurtosis, cfg.model, cfg.times)
        envelopes = [cov.decay_envelope(cfg.model, size, spectrum.effective_s, t)
                     for t in cfg.times]
    if not (np.isfinite(values).all() and np.isfinite(envelopes).all()):
        raise ConfigError("G_n or its decay envelope is not finite for this spectrum and run.t")
    flagged = set(flagged)
    # (mode, l1, lambda_sq) cells and the warnings cell of each stored mode
    cells = [(f"{dispersion.mode_label(m)},{n},{lam2:.17g}", "truncated-2n" if m in flagged else "")
             for m, n, lam2 in zip(dispersion.mode_list(dim, nmax), size.tolist(),
                                   spectrum.lambda_sq.ravel().tolist())]
    path = _outfile(out, "predictions.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,mode,l1,lambda_sq,g_total,envelope,warnings\n")
        for t, g_t, env in zip(cfg.times, values.reshape(len(cfg.times), -1), envelopes):
            fh.writelines(f"{t:.17g},{mode},{g:.17g},{e:.17g},{note}\n"
                          for (mode, note), g, e in zip(cells, g_t.tolist(), env.tolist()))
    print(f"predict: wrote {len(cfg.times)} time slice(s) -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def cmd_covariance(cfg, out):
    if len(cfg.times) != 1:
        raise ConfigError(f"covariance takes one time in run.t, got {len(cfg.times)}")
    cfg.check_work(cfg["run.samples"])
    ensemble = cfg.ensemble(gated=True)
    try:
        report = cov.mc_covariance(
            ensemble, cfg.model, cfg["run.epsilon"], cfg.times[0], cfg["run.dt"],
            workers=cfg["run.workers"], batch_size=cfg["run.batch"])
    except cov.TooFewSamplesError as exc:
        print(f"covariance: REPORT INVALID ({exc})", file=sys.stderr)
        return EXIT_INVALID_REPORT
    csv_path = _outfile(out, "covariance.csv")
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    json_path = _outfile(out, "covariance.json")
    json_path.write_text(report.to_json(), encoding="utf-8")
    verdict = cov.compare_prediction(report)
    print(f"covariance: {report.used}/{report.samples} samples used, "
          f"{len(report.excluded)} excluded -> {csv_path}")
    print(f"covariance: fraction of modes with |z| <= 3: {verdict.fraction_within_3:.4f}")
    if verdict.decay_slope is not None:
        print(f"covariance: decay slope {verdict.decay_slope:.3f} "
              f"(bound {verdict.decay_bound:.3f}, ok={verdict.decay_ok})")
    if report.invalid:
        print("covariance: REPORT INVALID (excess solver exclusions)", file=sys.stderr)
        return EXIT_INVALID_REPORT
    return EXIT_OK


# ---------------------------------------------------------------------------
# picard-scan
# ---------------------------------------------------------------------------

def cmd_picard_scan(cfg, out):
    cfg.check_work(1)
    ensemble = cfg.ensemble(gated=True)
    u0 = sampling.sample_initial_field(ensemble, 0)
    try:
        scan = picard.remainder_growth_scan(
            u0, cfg.model, cfg["run.epsilon"], cfg.times, cfg["run.dt"])
    except ValueError as exc:  # an epsilon of 0, or one whose square underflows
        raise ConfigError(str(exc))
    path = _outfile(out, "picard_scan.csv")
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

def cmd_sample_diagnostics(cfg, out):
    draws = DIAGNOSTIC_DRAWS
    cfg.check_budget(draws * cfg.stored_count, "draws x stored modes")
    ensemble = cfg.ensemble(gated=False)
    moments = sampling.moment_report(cfg.law, draws, seed=cfg["run.seed"])
    try:
        tail = sampling.tail_report(ensemble, draws, max(0.0, ensemble.spectrum.effective_s))
    except ValueError as exc:  # a datum norm that is not finite
        raise ConfigError(str(exc))
    path = _outfile(out, "diagnostics.json")
    payload = {"moments": moments.record(), "tail": tail.record()}
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"sample-diagnostics: draws={draws} law={cfg.law.kind} -> {path}")
    tail_text = (f"tail slope: {tail.slope}" if tail.ladder
                 else "no tail: the datum norm is constant")
    print(f"sample-diagnostics: flagged moments: {moments.flagged or 'none'}; {tail_text}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check_delta_oracles():
    for model, nmax in ((dispersion.BBM, 12), (dispersion.KDV, 12), (dispersion.KPII, 5)):
        alarm, detail, _ = _lemma_verdict(model, nmax, *_triad_deltas(model, nmax))
        if alarm:
            return False, f"{model.kind}: {detail}"
    worst = 0.0
    full = dispersion.full_modes(2, 5)
    for model in (dispersion.KPI, dispersion.KPII):
        d, n, k, l = _triad_deltas(model, 5)
        ref = dispersion.kp_delta_factored(model, full[n], full[k], full[l])
        worst = max(worst, float(np.max(np.abs(d - ref) / np.abs(ref))))
    return worst <= 1e-12, f"BBM, KdV, KP-II lemmas hold; KP factored forms to {worst:.3e}"


def _check_kernels():
    deltas = np.concatenate([[0.0], np.geomspace(1e-9, 1e3, 25)])
    h = 1e-6
    worst = 0.0
    for t in (0.0, 0.3, 2.7):
        # d/dt tilde_F(delta, t) = sin(delta t)/delta = Re(-F(delta, -t))
        rate = np.real(-f_kernel(deltas, -t))
        fd = (tilde_f_kernel(deltas, t + h) - tilde_f_kernel(deltas, t - h)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - rate) / (1.0 + np.abs(rate)))))
    for func in (f_kernel, tilde_f_kernel):
        near = np.abs(func(1e-9, 1.0) - func(0.0, 1.0))
        rel = near / max(abs(func(0.0, 1.0)), 1e-300)
        if rel > 1e-8:
            return False, f"{func.__name__} discontinuous near 0 ({rel:.3e})"
    return worst <= 1e-6, f"max d/dt tilde_F defect {worst:.3e}"


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
    worst = 0.0
    for dim, nm in ((1, 5), (2, 3)):
        f = fld.random_field(dim, nm, rng)
        a = fld.full_array(f).ravel()
        exact = dispersion.triad_sums(dim, nm, np.zeros(a.size), np.ones_like,
                                      lambda n, k, l, one: a[k] * a[l] * one)
        got = solver.dealiased_square(f).coeffs.ravel()
        worst = max(worst, float(np.max(np.abs(got - exact))))
    return worst <= 1e-13, f"max defect vs the exact triad sums {worst:.3e}"


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
        _, terms, corr = cov.g_terms(spectrum, 2.0, model, 2.0)
        worst = max(worst, float(np.max(np.abs(terms), initial=0.0)),
                    float(np.max(np.abs(corr), initial=0.0)))
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


def cmd_verify(cfg, out):
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
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_mapping(load_config(args.config, args.overrides))
        return COMMANDS[args.command](cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
