"""Second-order covariance corrections and the coupled Monte Carlo estimator.

The analytic side evaluates the correction G_n(lambda, t) whose rate is

    dG_n/dt = 4 phi(n) sum_(k+l=n) sinc(delta, t) *
                 (phi(n)|l_k|^2|l_l|^2 - phi(k)|l_n|^2|l_l|^2 - phi(l)|l_n|^2|l_k|^2)
            + (E|g|^4 - 2) * (2 [n=2q] sinc(d_q, t) phi(n)^2 |l_q|^4
                              - 4 sinc(d_2n, t) phi(2n) phi(n) |l_n|^4)

with the time-integrated form obtained by replacing the sinc kernel with
its integral.  Sums run over triads inside the data truncation; when 2n
falls outside, the truncated dynamics genuinely lack that interaction and
the dropped term is flagged.

The Monte Carlo side estimates (E|u_n(eps;t)|^2 - |lambda_n|^2)/eps^2 with
common-random-number coupling against the exact free evolution: since the
semigroup preserves moduli, the per-sample coupled statistic is simply
|v_n(t)|^2 - |v_n(0)|^2, whose variance is O(eps^2) instead of O(1).  The
estimator is exactly zero at eps = 0 and t = 0.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from . import dispersion
from .field import SpectralField, full_array
from .kernels import sinc_kernel, tilde_f_kernel
from .sampling import sample_coeff_batch
from .solver import evolve_array

__all__ = [
    "TruncationWarning", "TheoryWindowWarning",
    "g_rate", "g_total", "g_total_terms", "g_table",
    "kinetic_residual", "decay_envelope", "prediction_table",
    "CovarianceReport", "mc_covariance", "ComparisonVerdict", "compare_prediction",
]


class TruncationWarning(UserWarning):
    """A kurtosis interaction partner (2n) falls outside the truncation."""


class TheoryWindowWarning(UserWarning):
    """The requested horizon exceeds the weakly nonlinear window ~ 1/(10 eps)."""


# ---------------------------------------------------------------------------
# Analytic evaluation of G.
# ---------------------------------------------------------------------------

def _full_tables(spectrum, model):
    """omega, phi and |lambda|^2 on the flat full box."""
    nmax = spectrum.nmax
    return (dispersion.omega_full(model, nmax).ravel(),
            dispersion.phi_full(model, nmax).ravel(),
            full_array(SpectralField(nmax, spectrum.lambda_sq)).real.ravel())


def _bracket(ph, lam2, n, k, l):
    """The equilibrium bracket of the triads (n, k, l), flat full-box indices."""
    return ph[n] * lam2[k] * lam2[l] - ph[k] * lam2[n] * lam2[l] - ph[l] * lam2[n] * lam2[k]


def _g_parts(spectrum, kurtosis, model, t, kernel, modes):
    """Pieces of G (or of its rate, by `kernel`) at the (M, dim) int `modes`.

    Returns (weight, correction, dropped): `weight(n, k, l)` gives the
    per-triad main terms of a block of flat triad indices, `correction` the
    kurtosis term with shape t.shape + (M,), and `dropped` marks the modes
    whose doubled mode 2n falls outside the truncation while that term is
    live.
    """
    dim, nmax = spectrum.dimension, spectrum.nmax
    if model.dimension != dim:
        raise ValueError(f"spectrum dimension {dim} does not match model {model.kind}")
    om, ph, lam2 = _full_tables(spectrum, model)
    t = np.asarray(t, dtype=float)[..., None]

    def weight(n, k, l):
        delta = om[k] + om[l] - om[n]
        return 4.0 * ph[n] * kernel(delta, t) * _bracket(ph, lam2, n, k, l)

    if kurtosis == 2.0:
        return weight, np.zeros(t.shape[:-1] + (len(modes),)), np.zeros(len(modes), dtype=bool)
    n = dispersion.flat_index(dim, nmax, modes)
    even = np.all(modes % 2 == 0, axis=-1)
    q = dispersion.flat_index(dim, nmax, modes // 2)
    inside = np.all(np.abs(2 * modes) <= nmax, axis=-1)
    twice = dispersion.flat_index(dim, nmax, np.where(inside[:, None], 2 * modes, modes))
    half_term = 2.0 * kernel(2.0 * om[q] - om[n], t) * ph[n] ** 2 * lam2[q] ** 2
    twice_term = 4.0 * kernel(om[twice] - 2.0 * om[n], t) * ph[twice] * ph[n] * lam2[n] ** 2
    correction = np.where(even, half_term, 0.0) - np.where(inside, twice_term, 0.0)
    return weight, correction * (kurtosis - 2.0), ~inside


def _g_values(spectrum, kurtosis, model, t, kernel, modes):
    """G (or its rate) at `modes`, shape t.shape + (M,), and the dropped mask."""
    weight, correction, dropped = _g_parts(spectrum, kurtosis, model, t, kernel, modes)
    sums = dispersion.triad_sums(spectrum.dimension, spectrum.nmax, weight, modes)
    return sums + correction, dropped


def _single_mode(spectrum, n):
    """One mode label as a (1, dim) int array, rejected outside the active truncation."""
    nmax = spectrum.nmax
    mode = np.array([dispersion.box_index(spectrum.dimension, nmax, n)]) - nmax
    if mode[0, 0] == 0:
        raise ValueError(f"mode {n!r} has zero first component (outside the active lattice)")
    return mode


def _g_eval(n, spectrum, kurtosis, model, t, kernel, warn):
    values, dropped = _g_values(spectrum, kurtosis, model, t, kernel, _single_mode(spectrum, n))
    if dropped[0] and warn:
        warnings.warn(
            f"mode {n!r}: doubled mode outside the truncation, kurtosis term dropped",
            TruncationWarning, stacklevel=3)
    return float(values[0])


def g_rate(n, spectrum, kurtosis, model, t, warn=True):
    """dG_n/dt at time t (vanishes identically at t = 0)."""
    return _g_eval(n, spectrum, kurtosis, model, t, sinc_kernel, warn)


def g_total(n, spectrum, kurtosis, model, t, warn=True):
    """G_n(lambda, t); the time integral of g_rate, zero at t = 0."""
    return _g_eval(n, spectrum, kurtosis, model, t, tilde_f_kernel, warn)


def g_total_terms(n, spectrum, kurtosis, model, t):
    """Per-triad contributions to G_n plus (kurtosis correction, dropped flag)."""
    mode = _single_mode(spectrum, n)
    weight, correction, dropped = _g_parts(spectrum, kurtosis, model, t, tilde_f_kernel, mode)
    flat = dispersion.flat_index(spectrum.dimension, spectrum.nmax, mode)
    terms = [weight(*block) for block in
             dispersion.triad_blocks(spectrum.dimension, spectrum.nmax, flat)]
    return (np.concatenate(terms) if terms else np.empty(0)), float(correction[0]), bool(dropped[0])


def g_table(spectrum, kurtosis, model, t, rate=False):
    """G over every stored mode; returns (values, list of flagged modes).

    `t` is a time or a 1-d array of times; values have shape
    t.shape + stored_shape.
    """
    kernel = sinc_kernel if rate else tilde_f_kernel
    dim, nmax = spectrum.dimension, spectrum.nmax
    values, dropped = _g_values(spectrum, kurtosis, model, t, kernel,
                                dispersion.stored_modes(dim, nmax))
    labels = dispersion.mode_list(dim, nmax)
    return (values.reshape(np.shape(t) + dispersion.stored_shape(dim, nmax)),
            [labels[m] for m in np.flatnonzero(dropped)])


def kinetic_residual(spectrum, model, resonance_threshold):
    """Near-resonant triad sum of the equilibrium bracket, per stored mode.

    Kurtosis 2 is assumed (the bracket then closes in the |lambda|^2 alone).
    For BBM and KP-II any threshold below the truncation's smallest divisor
    makes every sum empty, hence exactly zero.
    """
    dim, nmax = spectrum.dimension, spectrum.nmax
    om, ph, lam2 = _full_tables(spectrum, model)

    def weight(n, k, l):
        near = np.abs(om[k] + om[l] - om[n]) <= resonance_threshold
        return np.where(near, _bracket(ph, lam2, n, k, l), 0.0)

    sums = dispersion.triad_sums(dim, nmax, weight, dispersion.stored_modes(dim, nmax))
    return sums.reshape(dispersion.stored_shape(dim, nmax))


def _decay_exponent(model, s):
    """Power of the l1 size |n| in the decay envelope of G_n at regularity s."""
    if model.kind == "bbm":
        return -(2.0 + 2.0 * s if s >= 1.0 else 4.0 * s)
    if model.kind == "kpi":
        return 2.0 - 2.0 * s
    return -2.0 * s


def decay_envelope(model, n_l1, s, t):
    """Shape of the decay bound on |G_n| (constant-free envelope)."""
    envelope = np.asarray(n_l1, dtype=float) ** _decay_exponent(model, s)
    return float(t) ** 2 * envelope if model.kind == "kpi" else envelope


def prediction_table(spectrum, kurtosis, model, times):
    """Rows (t, mode, l1 size, |lambda_n|^2, G_n, envelope, flagged).

    One row per time of the 1-d `times` and stored mode, times outermost.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    dim, nmax = spectrum.dimension, spectrum.nmax
    values, flagged = g_table(spectrum, kurtosis, model, times)
    flagged_set = set(flagged)
    size = dispersion.mode_l1(dim, nmax).reshape(-1)
    lam2 = spectrum.lambda_sq.reshape(-1)
    modes = dispersion.mode_list(dim, nmax)
    rows = []
    for t, g in zip(times, values.reshape(times.size, -1)):
        env = decay_envelope(model, size, spectrum.effective_s, t)
        rows += [(float(t), mode, int(size[m]), float(lam2[m]), float(g[m]), float(env[m]),
                  mode in flagged_set) for m, mode in enumerate(modes)]
    return rows


# ---------------------------------------------------------------------------
# Coupled Monte Carlo estimation.
# ---------------------------------------------------------------------------

def _batch_moments(x):
    """(count, mean, sum of squared deviations) along axis 0."""
    count = x.shape[0]
    mean = x.mean(axis=0)
    m2 = np.sum(np.abs(x - mean) ** 2, axis=0)
    return count, mean, m2


def _merge_moments(acc, update):
    """Chan's parallel combination of (count, mean, M2) accumulators."""
    c1, m1, s1 = acc
    c2, m2, s2 = update
    if c1 == 0:
        return update
    count = c1 + c2
    delta = m2 - m1
    mean = m1 + delta * (c2 / count)
    s = s1 + s2 + np.abs(delta) ** 2 * (c1 * c2 / count)
    return count, mean, s


_OFFDIAG_MODES = 64  # stored modes probed for off-diagonal correlation


def _offdiag_pairs(dim, nmax):
    """Flat stored-mode index pairs probed for off-diagonal correlation.

    Conjugated products run over m < n, unconjugated over m <= n (the latter
    probe E(u_m u_n), i.e. pairs across the two half-lattices), both in
    row-major (m, n) order.  Modes are taken in increasing l1 size, up to
    _OFFDIAG_MODES of them.
    """
    size = dispersion.mode_l1(dim, nmax).reshape(-1)
    order = np.sort(np.argsort(size, kind="stable")[:_OFFDIAG_MODES])
    herm = np.triu_indices(order.size, k=1)
    plain = np.triu_indices(order.size, k=0)
    return order[herm[0]], order[herm[1]], order[plain[0]], order[plain[1]]


def _covariance_batch(task):
    """One batch of coupled solves; returns mergeable partial statistics."""
    (ensemble, model, epsilon, t, dt, start, stop, pairs) = task
    indices = list(range(start, stop))
    a = sample_coeff_batch(ensemble, indices)
    final, _, alive, blow = evolve_array(model, epsilon, a, dt, t)
    a_flat = a.reshape(a.shape[0], -1)
    v_flat = final.reshape(final.shape[0], -1)
    keep = np.asarray(alive).reshape(-1)
    excluded = [(indices[i], float(np.asarray(blow).reshape(-1)[i]))
                for i in np.nonzero(~keep)[0]]
    a_flat, v_flat = a_flat[keep], v_flat[keep]
    if a_flat.shape[0] == 0:
        return None, None, None, excluded

    diag = np.abs(v_flat) ** 2 - np.abs(a_flat) ** 2
    hm, hn, pm, pn = pairs
    herm = (np.conj(v_flat[:, hm]) * v_flat[:, hn]
            - np.conj(a_flat[:, hm]) * a_flat[:, hn])
    plain = v_flat[:, pm] * v_flat[:, pn] - a_flat[:, pm] * a_flat[:, pn]
    return (_batch_moments(diag), _batch_moments(herm),
            _batch_moments(plain), excluded)


@dataclass
class CovarianceReport:
    """Per-mode coupled estimates of the eps^2-normalized covariance correction."""

    model_kind: str
    epsilon: float
    t: float
    dt: float
    seed: int
    law_kind: str
    kurtosis: float
    spectrum_family: str
    spectrum_alpha: Optional[float]
    effective_s: float
    nmax: int
    dimension: int
    samples: int
    used: int
    excluded: list
    invalid: bool
    modes: list
    lambda_sq: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    g_pred: np.ndarray
    zscores: np.ndarray
    offdiag_pairs: int
    offdiag_max_abs: float
    offdiag_max_stderr: float
    offdiag_argmax: tuple
    truncation_flags: list = dataclass_field(default_factory=list)

    def to_csv(self):
        lines = ["mode,lambda_sq,g_pred,mc_estimate,stderr,zscore"]
        for i, mode in enumerate(self.modes):
            lines.append(",".join([
                dispersion.mode_label(mode),
                f"{self.lambda_sq[i]:.17g}", f"{self.g_pred[i]:.17g}",
                f"{self.estimates[i]:.17g}", f"{self.stderrs[i]:.17g}",
                f"{self.zscores[i]:.17g}"]))
        return "\n".join(lines) + "\n"

    def to_json(self):
        label = dispersion.mode_label
        return json.dumps({
            "model": self.model_kind, "epsilon": self.epsilon, "t": self.t,
            "dt": self.dt, "seed": self.seed, "law": self.law_kind,
            "kurtosis": self.kurtosis,
            "spectrum": {"family": self.spectrum_family,
                         "alpha": self.spectrum_alpha,
                         "effective_s": self.effective_s, "nmax": self.nmax},
            "samples": self.samples, "used": self.used,
            "excluded": [{"index": i, "time": bt} for i, bt in self.excluded],
            "invalid": self.invalid,
            "truncation_flagged_modes": [label(m) for m in self.truncation_flags],
            "offdiagonal": {"pairs": self.offdiag_pairs,
                            "max_abs": self.offdiag_max_abs,
                            "max_abs_stderr": self.offdiag_max_stderr,
                            "argmax": list(map(label, self.offdiag_argmax[:2]))
                                      + [self.offdiag_argmax[2]]},
            "records": [{
                "mode": label(mode),
                "lambda_sq": self.lambda_sq[i], "g_pred": self.g_pred[i],
                "estimate": self.estimates[i], "stderr": self.stderrs[i],
                "zscore": self.zscores[i]} for i, mode in enumerate(self.modes)],
        }, indent=2, default=float)


def mc_covariance(ensemble, model, epsilon, t, dt, *, workers=1, batch_size=128):
    """Coupled-ensemble estimate of the covariance correction at time t.

    Deterministic given (ensemble, batch_size): batches are fixed slices of
    the sample index range and their statistics merge in index order, so the
    result is independent of the worker count.  Samples whose solve loses
    finiteness are excluded and reported; more than 1% exclusions marks the
    report invalid.
    """
    spectrum = ensemble.spectrum
    if model.dimension != spectrum.dimension:
        raise ValueError(f"spectrum dimension does not match model {model.kind}")
    if epsilon > 0 and t > 1.0 / (10.0 * epsilon):
        warnings.warn(
            f"t={t:g} exceeds the weakly nonlinear window 1/(10 eps)={1/(10*epsilon):g}; "
            "the second-order prediction degrades",
            TheoryWindowWarning, stacklevel=2)

    pairs = _offdiag_pairs(spectrum.dimension, spectrum.nmax)
    tasks = [(ensemble, model, epsilon, t, dt, start,
              min(start + batch_size, ensemble.samples), pairs)
             for start in range(0, ensemble.samples, batch_size)]
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_covariance_batch, tasks, chunksize=1)
    else:
        results = [_covariance_batch(task) for task in tasks]

    diag_acc = (0, 0.0, 0.0)
    herm_acc = (0, 0.0, 0.0)
    plain_acc = (0, 0.0, 0.0)
    excluded = []
    for diag, herm, plain, dead in results:
        excluded.extend(dead)
        if diag is not None:
            diag_acc = _merge_moments(diag_acc, diag)
            herm_acc = _merge_moments(herm_acc, herm)
            plain_acc = _merge_moments(plain_acc, plain)

    used = diag_acc[0]
    if used < 2:
        raise RuntimeError("fewer than two usable samples; cannot form errors")
    scale = 1.0 / epsilon ** 2 if epsilon > 0 else 1.0
    mean_d = np.asarray(diag_acc[1])
    sd_d = np.sqrt(np.asarray(diag_acc[2]) / (used - 1))
    estimates = mean_d * scale
    stderrs = sd_d / math.sqrt(used) * scale

    g_values, flagged = g_table(spectrum, ensemble.law.kurtosis, model, t)
    g_flat = g_values.reshape(-1)
    zero_err = stderrs == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (estimates - g_flat) / stderrs
    z[zero_err & (estimates == g_flat)] = 0.0
    z[zero_err & (estimates != g_flat)] = np.inf

    hm, hn, pm, pn = pairs
    off_mean = np.concatenate([np.asarray(herm_acc[1]), np.asarray(plain_acc[1])])
    off_sd = np.sqrt(np.concatenate([np.asarray(herm_acc[2]), np.asarray(plain_acc[2])]) / (used - 1))
    off_abs = np.abs(off_mean)
    arg = int(np.argmax(off_abs)) if off_abs.size else 0
    labels = dispersion.mode_list(spectrum.dimension, spectrum.nmax)
    if off_abs.size:
        if arg < hm.size:
            pair_label = (labels[hm[arg]], labels[hn[arg]], "conjugated")
        else:
            j = arg - hm.size
            pair_label = (labels[pm[j]], labels[pn[j]], "plain")
        max_abs = float(off_abs[arg])
        max_stderr = float(off_sd[arg] / math.sqrt(used))
    else:
        pair_label = (None, None, "none")
        max_abs = 0.0
        max_stderr = 0.0

    invalid = len(excluded) > 0.01 * ensemble.samples
    return CovarianceReport(
        model_kind=model.kind, epsilon=epsilon, t=t, dt=dt, seed=ensemble.seed,
        law_kind=ensemble.law.kind, kurtosis=ensemble.law.kurtosis,
        spectrum_family=spectrum.family, spectrum_alpha=spectrum.alpha,
        effective_s=spectrum.effective_s, nmax=spectrum.nmax,
        dimension=spectrum.dimension, samples=ensemble.samples, used=used,
        excluded=excluded, invalid=invalid, modes=labels,
        lambda_sq=spectrum.lambda_sq.reshape(-1).copy(),
        estimates=estimates, stderrs=stderrs, g_pred=g_flat.copy(), zscores=z,
        offdiag_pairs=int(hm.size + pm.size), offdiag_max_abs=max_abs,
        offdiag_max_stderr=max_stderr, offdiag_argmax=pair_label,
        truncation_flags=flagged)


# ---------------------------------------------------------------------------
# Prediction comparison.
# ---------------------------------------------------------------------------

@dataclass
class ComparisonVerdict:
    n_modes: int
    fraction_within_3: float
    decay_slope: Optional[float] = None
    decay_bound: Optional[float] = None
    decay_ok: Optional[bool] = None
    decay_skipped: bool = True
    shells: int = 0

    @property
    def passed(self):
        ok = self.fraction_within_3 >= 0.95
        if not self.decay_skipped and self.decay_ok is not None:
            ok = ok and self.decay_ok
        return ok


_MIN_SHELLS = 4  # shells (l1 sizes with a nonzero value) a decay fit needs


def fit_decay_slope(mode_l1, values):
    """Log-log slope of the per-shell max of |values| against the l1 size."""
    sizes = np.asarray(mode_l1, dtype=float).reshape(-1)
    mags = np.abs(np.asarray(values, dtype=float).reshape(-1))
    shells = {}
    for size, mag in zip(sizes, mags):
        shells[size] = max(shells.get(size, 0.0), mag)
    pts = [(s, m) for s, m in sorted(shells.items()) if m > 0.0 and s > 0.0]
    if len(pts) < _MIN_SHELLS:
        return None, len(pts)
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    return float(np.polyfit(xs, ys, 1)[0]), len(pts)


def compare_prediction(report, decay_fit=False, s=None):
    """Z-score summary of a report, optionally with the decay-envelope fit.

    `s` is the declared datum regularity used for the envelope exponent;
    by default it sits half a unit inside the profile's summability
    supremum (the supremum itself is not attained).
    """
    finite = np.isfinite(report.zscores)
    within = np.abs(np.where(finite, report.zscores, np.inf)) <= 3.0
    verdict = ComparisonVerdict(
        n_modes=len(report.modes),
        fraction_within_3=float(np.mean(within)) if len(report.modes) else 1.0)
    if decay_fit:
        model = dispersion.MODELS[report.model_kind]
        size = dispersion.mode_l1(report.dimension, report.nmax)
        slope, shells = fit_decay_slope(size, report.g_pred)
        verdict.shells = shells
        if slope is None:
            verdict.decay_skipped = True
        else:
            declared = report.effective_s - 0.5 if s is None else float(s)
            verdict.decay_skipped = False
            verdict.decay_slope = slope
            verdict.decay_bound = _decay_exponent(model, declared) + 0.5
            verdict.decay_ok = slope <= verdict.decay_bound
    return verdict
