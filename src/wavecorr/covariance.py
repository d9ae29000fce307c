"""Second-order covariance corrections and the coupled Monte Carlo estimator.

The analytic side evaluates the correction

    G_n(lambda, t) = 4 phi(n) sum_(k+l=n) tilde_F(delta, t) *
                 (phi(n)|l_k|^2|l_l|^2 - phi(k)|l_n|^2|l_l|^2 - phi(l)|l_n|^2|l_k|^2)
            + (E|g|^4 - 2) * (2 [n=2q] tilde_F(2 omega(q) - omega(n), t) phi(n)^2 |l_q|^4
                              - 4 tilde_F(omega(2n) - 2 omega(n), t) phi(2n) phi(n) |l_n|^4)

with tilde_F(delta, t) = (1 - cos(delta t))/delta^2, so G_n vanishes at
t = 0.  Sums run over triads inside the data truncation; when 2n falls
outside, the truncated dynamics genuinely lack that interaction and the
dropped term is flagged.  `g_table` sums G_n for every stored mode and
`g_terms` returns the terms it sums.

The Monte Carlo side estimates (E|u_n(eps;t)|^2 - |lambda_n|^2)/eps^2 with
common-random-number coupling against the exact free evolution: since the
semigroup preserves moduli, the per-sample coupled statistic is simply
|v_n(t)|^2 - |v_n(0)|^2, whose variance is O(eps^2) instead of O(1).  The
estimator is exactly zero at eps = 0 and t = 0.  Only the diagonal is
estimated: the datum law is translation invariant and the flow commutes
with translations, so E(conj(u_m) u_n) and E(u_m u_n) vanish exactly for
distinct stored modes m, n at every eps and t.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from . import dispersion
from .field import SpectralField, full_array
from .kernels import tilde_f_kernel
from .sampling import EnsembleConfig, sample_coeff_batch
from .solver import evolve_array

__all__ = [
    "TheoryWindowWarning", "TooFewSamplesError", "g_table", "g_terms",
    "decay_envelope",
    "CovarianceReport", "mc_covariance", "ComparisonVerdict", "compare_prediction",
]


class TheoryWindowWarning(UserWarning):
    """The requested horizon exceeds the weakly nonlinear window ~ 1/(10 eps)."""


class TooFewSamplesError(RuntimeError):
    """Fewer than two samples survived the solves; no standard error can be formed."""


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


def _g_parts(spectrum, kurtosis, model, t):
    """Pieces of G at the times `t` over the stored modes.

    Returns (om, kernel, weight, correction, dropped): the flat full-box
    omega table, `kernel(delta)` the tilde_F values of a block of triads,
    `weight(n, k, l, kern)` their main terms from those values (the two as
    `dispersion.triad_sums` takes them), `correction` the kurtosis
    term with shape t.shape + (M,), and `dropped` the modes whose doubled
    mode 2n falls outside the truncation while that term is live.
    """
    dim, nmax = spectrum.dimension, spectrum.nmax
    if model.dimension != dim:
        raise ValueError(f"spectrum dimension {dim} does not match model {model.kind}")
    om, ph, lam2 = _full_tables(spectrum, model)
    modes = dispersion.stored_modes(dim, nmax)
    t = np.asarray(t, dtype=float)[..., None]
    kernel = functools.partial(tilde_f_kernel, t=t)

    def weight(n, k, l, kern):
        return 4.0 * ph[n] * kern * _bracket(ph, lam2, n, k, l)

    if kurtosis == 2.0:
        flags = np.zeros(len(modes), dtype=bool)
        return om, kernel, weight, np.zeros(t.shape[:-1] + flags.shape), flags
    n = dispersion.flat_index(dim, nmax, modes)
    even = np.all(modes % 2 == 0, axis=-1)
    q = dispersion.flat_index(dim, nmax, modes // 2)
    inside = np.all(np.abs(2 * modes) <= nmax, axis=-1)
    twice = dispersion.flat_index(dim, nmax, np.where(inside[:, None], 2 * modes, modes))
    half_term = 2.0 * tilde_f_kernel(2.0 * om[q] - om[n], t) * ph[n] ** 2 * lam2[q] ** 2
    twice_term = (4.0 * tilde_f_kernel(om[twice] - 2.0 * om[n], t)
                  * ph[twice] * ph[n] * lam2[n] ** 2)
    correction = np.where(even, half_term, 0.0) - np.where(inside, twice_term, 0.0)
    return om, kernel, weight, correction * (kurtosis - 2.0), ~inside


def g_table(spectrum, kurtosis, model, t):
    """G over every stored mode; returns (values, list of flagged modes).

    `t` is a time or a 1-d array of times; values have shape
    t.shape + stored_shape.  A mode is flagged when its kurtosis term needs
    the doubled mode 2n and 2n falls outside the truncation.  For KP each
    tilde_F value serves a triad and its mirror (`dispersion.triad_sums`).
    """
    dim, nmax = spectrum.dimension, spectrum.nmax
    om, kernel, weight, correction, dropped = _g_parts(spectrum, kurtosis, model, t)
    values = dispersion.triad_sums(dim, nmax, om, kernel, weight) + correction
    labels = dispersion.mode_list(dim, nmax)
    return (values.reshape(np.shape(t) + dispersion.stored_shape(dim, nmax)),
            [labels[m] for m in np.flatnonzero(dropped)])


def g_terms(spectrum, kurtosis, model, t):
    """The terms g_table sums; returns (owner, terms, correction).

    `terms` holds the main term of every unordered triad of every stored
    mode in `triad_blocks` order, shape t.shape + (triads,), counted twice
    where k != l (the term is symmetric in k and l); `owner` gives the
    storage position of each triad's mode n, and `correction` each stored
    mode's kurtosis term, shape t.shape + (M,).  Summing the terms per owner
    and adding the correction gives g_table's values.
    """
    dim, nmax = spectrum.dimension, spectrum.nmax
    om, kernel, weight, correction, _ = _g_parts(spectrum, kurtosis, model, t)
    flat = dispersion.flat_index(dim, nmax, dispersion.stored_modes(dim, nmax))
    empty = (np.empty(0, dtype=np.intp),) * 3
    n, k, l = map(np.concatenate, zip(*dispersion.triad_blocks(dim, nmax, flat), empty))
    terms = weight(n, k, l, kernel(om[k] + om[l] - om[n]))
    return np.searchsorted(flat, n), terms * np.where(k == l, 1.0, 2.0), correction


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
    return np.float64(t) ** 2 * envelope if model.kind == "kpi" else envelope


# ---------------------------------------------------------------------------
# Coupled Monte Carlo estimation.
# ---------------------------------------------------------------------------

def _batch_moments(x):
    """(count, mean, sum of squared deviations) along axis 0."""
    count = x.shape[0]
    if count == 0:
        return 0, 0.0, 0.0
    mean = x.mean(axis=0)
    m2 = np.sum(np.abs(x - mean) ** 2, axis=0)
    return count, mean, m2


def _merge_moments(acc, update):
    """Chan's parallel combination of (count, mean, M2) accumulators."""
    c1, m1, s1 = acc
    c2, m2, s2 = update
    if c2 == 0:
        return acc
    if c1 == 0:
        return update
    count = c1 + c2
    delta = m2 - m1
    mean = m1 + delta * (c2 / count)
    s = s1 + s2 + np.abs(delta) ** 2 * (c1 * c2 / count)
    return count, mean, s


def _covariance_batch(ensemble, model, epsilon, t, dt, batch_size, start):
    """One batch of coupled solves, from sample `start`; mergeable partial statistics.

    Returns (moments of the per-mode coupled statistic, excluded (index,
    blow-up time) pairs, (category, text) of each warning raised).
    Warnings are recorded rather than shown, so that the caller sees them
    whether the batch ran in its process or in a pool worker.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a = sample_coeff_batch(ensemble, range(start, min(start + batch_size, ensemble.samples)))
        final, _, alive, blow = evolve_array(model, epsilon, a, dt, t)
    excluded = [(start + int(i), float(blow[i])) for i in np.flatnonzero(~alive)]
    a = a[alive].reshape(-1, ensemble.spectrum.table.size)
    v = final[alive].reshape(a.shape)
    return (_batch_moments(np.abs(v) ** 2 - np.abs(a) ** 2), excluded,
            [(w.category, str(w.message)) for w in caught])


@dataclass
class CovarianceReport:
    """Per-mode coupled estimates of the eps^2-normalized covariance correction."""

    ensemble: EnsembleConfig
    model: dispersion.DispersionModel
    epsilon: float
    t: float
    dt: float
    used: int
    excluded: list
    invalid: bool
    estimates: np.ndarray
    stderrs: np.ndarray
    g_pred: np.ndarray
    zscores: np.ndarray
    truncation_flags: list = dataclass_field(default_factory=list)

    @property
    def samples(self):
        return self.ensemble.samples

    def _records(self):
        """(mode, lambda_sq, g_pred, estimate, stderr, zscore) per stored mode."""
        spectrum = self.ensemble.spectrum
        return zip(dispersion.mode_list(spectrum.dimension, spectrum.nmax),
                   spectrum.lambda_sq.reshape(-1), self.g_pred, self.estimates,
                   self.stderrs, self.zscores)

    def to_csv(self):
        lines = ["mode,lambda_sq,g_pred,mc_estimate,stderr,zscore"]
        for mode, *values in self._records():
            lines.append(",".join([dispersion.mode_label(mode)]
                                  + [f"{x:.17g}" for x in values]))
        return "\n".join(lines) + "\n"

    def to_json(self):
        label = dispersion.mode_label
        spectrum, law = self.ensemble.spectrum, self.ensemble.law
        keys = ("lambda_sq", "g_pred", "estimate", "stderr", "zscore")
        return json.dumps({
            "model": self.model.kind, "epsilon": self.epsilon, "t": self.t,
            "dt": self.dt, "seed": self.ensemble.seed, "law": law.kind,
            "kurtosis": law.kurtosis,
            "spectrum": {"family": spectrum.family, "alpha": spectrum.alpha,
                         "effective_s": spectrum.effective_s, "nmax": spectrum.nmax},
            "samples": self.samples, "used": self.used,
            "excluded": [{"index": i, "time": bt} for i, bt in self.excluded],
            "invalid": self.invalid,
            "truncation_flagged_modes": [label(m) for m in self.truncation_flags],
            "records": [{"mode": label(mode), **dict(zip(keys, values))}
                        for mode, *values in self._records()],
        }, indent=2, default=float)


def mc_covariance(ensemble, model, epsilon, t, dt, *, workers=1, batch_size=128):
    """Coupled-ensemble estimate of each stored mode's covariance correction at time t.

    Deterministic given (ensemble, batch_size): batches are fixed slices of
    the sample index range and their statistics merge in index order, so the
    result is independent of the worker count.  Each distinct warning the
    batches raise is issued once, in batch order.  Samples whose solve loses
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

    batch = functools.partial(_covariance_batch, ensemble, model, epsilon, t, dt, batch_size)
    starts = range(0, ensemble.samples, batch_size)
    if workers > 1 and len(starts) > 1:
        with multiprocessing.Pool(min(workers, len(starts))) as pool:
            results = pool.map(batch, starts, chunksize=1)
    else:
        results = list(map(batch, starts))

    acc = (0, 0.0, 0.0)
    excluded = []
    for moments, dead, _ in results:
        acc = _merge_moments(acc, moments)
        excluded += dead
    for category, text in dict.fromkeys(w for _, _, raised in results for w in raised):
        warnings.warn(text, category, stacklevel=2)

    used, mean, m2 = acc
    if used < 2:
        raise TooFewSamplesError("fewer than two usable samples; cannot form errors")
    scale = 1.0 / epsilon ** 2 if epsilon > 0 else 1.0
    estimates = mean * scale
    stderrs = np.sqrt(m2 / (used - 1)) / math.sqrt(used) * scale

    g_values, flagged = g_table(spectrum, ensemble.law.kurtosis, model, t)
    g_flat = g_values.reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (estimates - g_flat) / stderrs  # a zero stderr gives a signed infinity
    z[(stderrs == 0.0) & (estimates == g_flat)] = 0.0
    return CovarianceReport(
        ensemble=ensemble, model=model, epsilon=epsilon, t=t, dt=dt, used=used,
        excluded=excluded, invalid=len(excluded) > 0.01 * ensemble.samples,
        estimates=estimates, stderrs=stderrs, g_pred=g_flat, zscores=z,
        truncation_flags=flagged)


# ---------------------------------------------------------------------------
# Prediction comparison.
# ---------------------------------------------------------------------------

@dataclass
class ComparisonVerdict:
    fraction_within_3: float
    decay_slope: Optional[float] = None
    decay_bound: Optional[float] = None
    decay_ok: Optional[bool] = None


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


def compare_prediction(report):
    """Z-score summary of a report, with the decay-envelope fit of its G_n.

    The envelope exponent takes the datum regularity half a unit inside the
    profile's summability supremum (the supremum itself is not attained).
    """
    within = np.abs(report.zscores) <= 3.0  # false for nan
    verdict = ComparisonVerdict(fraction_within_3=float(np.mean(within)))
    spectrum = report.ensemble.spectrum
    slope, _ = fit_decay_slope(dispersion.mode_l1(spectrum.dimension, spectrum.nmax),
                               report.g_pred)
    if slope is not None:
        verdict.decay_slope = slope
        verdict.decay_bound = _decay_exponent(report.model, spectrum.effective_s - 0.5) + 0.5
        verdict.decay_ok = slope <= verdict.decay_bound
    return verdict
