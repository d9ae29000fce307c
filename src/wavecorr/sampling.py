"""Random initial data: noise laws, spectrum profiles, and diagnostics.

The datum is u0(x) = sum_n g_n lambda_n e^(i n.x) with one independent draw
g_n per stored mode (the mirror half follows by conjugation).  Supported
laws: the standard complex Gaussian (E|g|^4 = 2), and random-phase noise
e^(i Theta) with Theta uniform (|g| = 1, E|g|^4 = 1).  Both laws have mean
zero, unit second absolute moment, vanishing E(g^2), and full rotational
symmetry.

Streams are counter-mode (Philox) keyed by (master seed, sample index), so
any subset of the ensemble can be regenerated in any order; mode draws are
consumed in lexicographic order within a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dispersion

__all__ = [
    "NoiseLaw", "complex_gaussian", "random_phase",
    "SpectrumProfile", "build_spectrum",
    "EnsembleConfig", "sample_stream", "draw_noise",
    "sample_initial_field", "sample_coeff_batch",
    "MomentReport", "moment_report", "TailReport", "tail_report",
    "REGULARITY_FLOOR",
]

# Minimal Sobolev regularity demanded of the datum, per model.  kdv inherits
# the two-dimensional requirement through the transverse-independent embedding.
REGULARITY_FLOOR = {"bbm": 0.375, "kdv": 2.0, "kpii": 2.0, "kpi": 3.0}


# ---------------------------------------------------------------------------
# Noise laws.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseLaw:
    """Unit-variance complex mode law; kurtosis means E|g|^4."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("complex-gaussian", "random-phase"):
            raise ValueError(f"unknown noise law {self.kind!r}")

    @property
    def kurtosis(self):
        return 2.0 if self.kind == "complex-gaussian" else 1.0


def complex_gaussian():
    return NoiseLaw("complex-gaussian")


def random_phase():
    return NoiseLaw("random-phase")


# ---------------------------------------------------------------------------
# Spectrum profiles.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumProfile:
    """Real nonnegative amplitudes lambda_n over the stored half-lattice."""

    family: str
    alpha: Optional[float]
    nmax: int
    dimension: int
    table: np.ndarray

    def __post_init__(self):
        if self.nmax < 1:
            raise ValueError(f"nmax must be a positive integer, got {self.nmax}")
        arr = np.asarray(self.table, dtype=float)
        if arr.shape != dispersion.stored_shape(self.dimension, self.nmax):
            raise ValueError("profile table does not match the stored lattice shape")
        with np.errstate(over="ignore"):
            squares_finite = np.all(np.isfinite(arr * arr))
        if np.any(arr < 0) or not squares_finite:
            raise ValueError("profile amplitudes must be nonnegative, with finite squares")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    @property
    def lambda_sq(self):
        return self.table ** 2

    @property
    def effective_s(self):
        """Supremum s with sum |n|^(2s) |lambda_n|^2 finite on the full lattice."""
        margin = 0.5 if self.dimension == 1 else 1.0
        if self.family == "sobolev":
            return float(self.alpha) - margin
        if self.family == "bbm-gibbs":
            return 0.5
        if self.family == "constant":
            return -margin
        weighted = np.abs(self.table) * dispersion.mode_l1(self.dimension, self.nmax) ** 2
        return float("inf") if weighted.max(initial=0.0) == 0.0 else -margin


def build_spectrum(family, alpha, nmax, dimension, model=None):
    """Construct a profile; with `model` given, enforce its regularity floor.

    sobolev family: lambda_n = (1 + |n|_2^2)^(-alpha/2) (Euclidean size inside
    the profile; summability checks still use the l1 size).
    bbm-gibbs: lambda_k = 1/sqrt(1+k^2), one-dimensional only.
    constant: lambda_n = 1, the KP-family equilibrium since phi(n)/n1 = 1.
    """
    if family == "sobolev":
        if alpha is None:
            raise ValueError("sobolev profile needs a decay exponent alpha")
        grids = dispersion.mode_grids(dimension, nmax)
        size_sq = sum(g.astype(float) ** 2 for g in grids)
        with np.errstate(over="ignore"):  # an overflow is refused by SpectrumProfile
            table = (1.0 + size_sq) ** (-float(alpha) / 2.0)
    elif family == "bbm-gibbs":
        if dimension != 1:
            raise ValueError("bbm-gibbs profile is one-dimensional")
        k = dispersion.mode_grids(1, nmax)[0].astype(float)
        table = 1.0 / np.sqrt(1.0 + k * k)
        alpha = None
    elif family == "constant":
        table = np.ones(dispersion.stored_shape(dimension, nmax))
        alpha = None
    else:
        raise ValueError(f"unknown spectrum family {family!r}")
    profile = SpectrumProfile(family, alpha, nmax, dimension, table)
    if model is not None:
        if model.dimension != dimension:
            raise ValueError(f"profile dimension {dimension} does not match {model.kind}")
        floor = REGULARITY_FLOOR[model.kind]
        if profile.effective_s <= floor:
            raise ValueError(
                f"spectrum regularity s={profile.effective_s:g} does not exceed the "
                f"{model.kind} requirement s > {floor:g}"
                + (f" (need alpha > {floor + (0.5 if dimension == 1 else 1.0):g})"
                   if family == "sobolev" else ""))
    return profile


# ---------------------------------------------------------------------------
# Ensembles and sampling.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleConfig:
    """Noise law + spectrum + sample count + master seed."""

    law: NoiseLaw
    spectrum: SpectrumProfile
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be positive")


def sample_stream(seed, index):
    """Independent, reproducible stream for (master seed, sample index)."""
    if not 0 <= seed < 2 ** 64:  # the 64-bit Philox key would alias it
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    key = np.array([np.uint64(seed), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


def draw_noise(law, rng, count):
    """`count` draws of g in a fixed order (re/im pairs, or one phase each)."""
    if law.kind == "complex-gaussian":
        z = rng.standard_normal(2 * count)
        return (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)
    theta = rng.random(count) * (2.0 * np.pi)
    return np.exp(1j * theta)


def sample_initial_field(config, index):
    """Datum number `index`: coefficients g_n lambda_n on the stored lattice."""
    from .field import SpectralField

    if not 0 <= index < config.samples:
        raise ValueError(f"sample index {index} outside 0..{config.samples - 1}")
    return SpectralField(config.spectrum.nmax, sample_coeff_batch(config, [index])[0])


def sample_coeff_batch(config, indices):
    """Stacked coefficient arrays for the given sample indices."""
    spec = config.spectrum
    shape = dispersion.stored_shape(spec.dimension, spec.nmax)
    count = int(np.prod(shape))
    out = np.empty((len(indices),) + shape, dtype=complex)
    for row, index in enumerate(indices):
        g = draw_noise(config.law, sample_stream(config.seed, index), count)
        out[row] = g.reshape(shape) * spec.table
    return out


# ---------------------------------------------------------------------------
# Statistical self-diagnostics.
# ---------------------------------------------------------------------------

_ZERO_MOMENTS = ("g", "g2", "g3", "g4", "abs2_g")

# Stream indices reserved for diagnostics, outside any ensemble's 0..M-1 range.
_MOMENT_STREAM = 0xFFFFFFFFFFFFFFFE
_TAIL_STREAM = 0xFFFFFFFFFFFFFFFF


@dataclass
class MomentReport:
    law_kind: str
    kurtosis: float
    draws: int
    values: dict
    stderrs: dict
    flagged: list

    def record(self):
        """The report as a JSON-ready dict."""
        table = {k: {"value": [self.values[k].real, self.values[k].imag],
                     "stderr": self.stderrs[k]} for k in self.values}
        return {"law": self.law_kind, "draws": self.draws, "kurtosis": self.kurtosis,
                "moments": table, "flagged": self.flagged}

    @property
    def passed(self):
        return not self.flagged


def moment_report(law, draws, seed=0):
    """Empirical moments of g with standard errors; flags the mandated zeros.

    A zero-moment is flagged when its empirical mean exceeds 4 standard
    errors in modulus.
    """
    if draws < 10_000:
        raise ValueError("moment diagnostics need at least 1e4 draws")
    g = draw_noise(law, sample_stream(seed, _MOMENT_STREAM), draws)
    samples = {
        "g": g,
        "g2": g * g,
        "g3": g ** 3,
        "g4": g ** 4,
        "abs2": (np.abs(g) ** 2).astype(complex),
        "abs4": (np.abs(g) ** 4).astype(complex),
        "abs2_g": np.abs(g) ** 2 * g,
    }
    values, stderrs = {}, {}
    for name, x in samples.items():
        mean = complex(np.mean(x))
        var = float(np.mean(np.abs(x) ** 2) - abs(mean) ** 2)
        values[name] = mean
        stderrs[name] = math.sqrt(max(var, 0.0) / draws)
    flagged = [name for name in _ZERO_MOMENTS
               if abs(values[name]) > 4.0 * stderrs[name] and abs(values[name]) > 0]
    return MomentReport(law.kind, law.kurtosis, draws, values, stderrs, flagged)


@dataclass
class TailReport:
    law_kind: str
    draws: int
    s: float
    rms_analytic: float
    median: float
    ladder: list          # rows (R, frequency, exceedances, used_in_fit)
    slope: Optional[float]
    omitted: int

    def record(self):
        """The report as a JSON-ready dict."""
        return {
            "law": self.law_kind, "draws": self.draws, "s": self.s,
            "rms_analytic": self.rms_analytic, "median": self.median,
            "ladder": [{"R": r, "frequency": f, "count": c, "used": u}
                       for (r, f, c, u) in self.ladder],
            "slope": self.slope, "omitted_rungs": self.omitted}


_TAIL_QUANTILES = (0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999)
_MIN_EXCEEDANCES = 10
_TAIL_BATCH = 1 << 20  # noise draws per block of datum norms; bounds the draw arrays


def tail_report(config, draws, s):
    """Exceedance ladder of the H^s datum norm and the log P vs R^2 slope.

    The Gaussian-type tail makes the fitted slope strictly negative; rungs
    with fewer than 10 exceedances are omitted from the fit and counted.  A
    norm constant to rounding (unit-modulus noise, or a zero spectrum) has
    no tail: the ladder is empty and the slope None.
    """
    if draws < 10_000:
        raise ValueError("tail diagnostics need at least 1e4 draws")
    spec = config.spectrum
    rng = sample_stream(config.seed, _TAIL_STREAM)
    norms = np.empty(draws)
    done = 0
    # |n|^(2s) may overflow where lambda_n^2 underflows (inf * 0); such a
    # norm is refused below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        weight = dispersion.mode_l1(spec.dimension, spec.nmax).ravel() ** (2.0 * s)
        rms = math.sqrt(2.0 * float(np.sum(weight * spec.table.ravel() ** 2)))
        count = weight.size
        while done < draws:
            m = min(max(1, _TAIL_BATCH // count), draws - done)
            g = draw_noise(config.law, rng, m * count).reshape(m, count)
            norms[done:done + m] = np.sqrt(
                2.0 * np.sum(weight * np.abs(g * spec.table.ravel()) ** 2, axis=1))
            done += m
    if not (math.isfinite(rms) and np.isfinite(norms).all()):
        raise ValueError(f"the H^{s:g} datum norm is not finite in floating point")

    median = float(np.median(norms))
    ladder, fit_r, fit_p = [], [], []
    omitted = 0
    largest = float(norms.max())
    quantiles = () if largest - float(norms.min()) <= 1e-12 * largest else _TAIL_QUANTILES
    for q in quantiles:
        r = float(np.quantile(norms, q))
        exceed = int(np.sum(norms >= r))
        freq = exceed / draws
        used = exceed >= _MIN_EXCEEDANCES and freq < 1.0
        ladder.append((r, freq, exceed, used))
        if used:
            fit_r.append(r * r)
            fit_p.append(math.log(freq))
        else:
            omitted += 1
    slope = float(np.polyfit(fit_r, fit_p, 1)[0]) if len(fit_r) >= 2 else None
    return TailReport(config.law.kind, draws, s, rms, median, ladder, slope, omitted)
