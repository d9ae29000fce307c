"""Every vectorised triad sum against a brute-force double loop over (k, l).

The vectorised sums add the same float64 terms in another order, so the
tolerance is set from the dtype beforehand: relative 1e-12 plus 1e-15 of
the largest magnitude in the table.
"""

import itertools

import numpy as np
import pytest

from wavecorr import covariance as cov
from wavecorr import dispersion as dsp
from wavecorr import field as fld
from wavecorr import picard as pic
from wavecorr import sampling as smp
from wavecorr.kernels import f_kernel, sinc_kernel, tilde_f_kernel

CASES = [(dsp.KDV, 8), (dsp.BBM, 8), (dsp.KPII, 4), (dsp.KPI, 4)]
IDS = [model.kind for model, _ in CASES]
REL, FLOOR = 1e-12, 1e-15


@pytest.fixture(autouse=True, params=["one-block", "many-blocks"])
def block_size(request, monkeypatch):
    # a few output modes per block, so the per-mode reductions span many blocks
    if request.param == "many-blocks":
        monkeypatch.setattr(dsp, "_TRIAD_BLOCK", 40)


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bound = REL * np.abs(want) + FLOOR * np.max(np.abs(want))
    assert np.all(np.abs(got - want) <= bound)


def label(model, mode):
    return mode[0] if model.dimension == 1 else mode


def triads(nmax, n):
    """Every (k, l) with k + l = n, both active and inside the box."""
    for k in itertools.product(range(-nmax, nmax + 1), repeat=len(n)):
        l = tuple(a - b for a, b in zip(n, k))
        if k[0] and l[0] and max(map(abs, l)) <= nmax:
            yield k, l


def stored(model, nmax):
    return [m if isinstance(m, tuple) else (m,) for m in dsp.mode_list(model.dimension, nmax)]


class Loop:
    """Scalar evaluations of omega, phi and |lambda|^2 for one configuration."""

    def __init__(self, model, spectrum):
        self.model, self.spec = model, spectrum

    def om(self, m):
        return dsp.omega(self.model, label(self.model, m))

    def ph(self, m):
        return dsp.phi(self.model, label(self.model, m))

    def lam2(self, m):
        if m[0] < 0:
            m = tuple(-c for c in m)
        return self.spec.lambda_sq[(m[0] - 1,) + tuple(c + self.spec.nmax for c in m[1:])]

    def delta(self, n, k, l):
        return self.om(k) + self.om(l) - self.om(n)

    def bracket(self, n, k, l):
        return (self.ph(n) * self.lam2(k) * self.lam2(l)
                - self.ph(k) * self.lam2(n) * self.lam2(l)
                - self.ph(l) * self.lam2(n) * self.lam2(k))

    def g(self, n, kurtosis, t, kernel):
        total = 0.0
        for k, l in triads(self.spec.nmax, n):
            total += 4.0 * self.ph(n) * kernel(self.delta(n, k, l), t) * self.bracket(n, k, l)
        corr = 0.0
        if all(c % 2 == 0 for c in n):
            q = tuple(c // 2 for c in n)
            corr += 2.0 * kernel(2.0 * self.om(q) - self.om(n), t) * self.ph(n) ** 2 * self.lam2(q) ** 2
        twice = tuple(2 * c for c in n)
        if max(map(abs, twice)) <= self.spec.nmax:
            corr -= (4.0 * kernel(self.om(twice) - 2.0 * self.om(n), t)
                     * self.ph(twice) * self.ph(n) * self.lam2(n) ** 2)
        return total + (kurtosis - 2.0) * corr


def setup(model, nmax):
    spec = smp.build_spectrum("sobolev", 2.0, nmax, model.dimension)
    return spec, Loop(model, spec)


@pytest.mark.parametrize("model,nmax", CASES, ids=IDS)
@pytest.mark.parametrize("kurtosis", [2.0, 1.0])
# the loop drops the kurtosis term of modes whose 2n leaves the box as well
@pytest.mark.filterwarnings("ignore::wavecorr.covariance.TruncationWarning")
def test_g_against_loop(model, nmax, kurtosis):
    spec, loop = setup(model, nmax)
    modes = stored(model, nmax)
    times = np.array([0.4, 1.3])
    want = np.array([[loop.g(n, kurtosis, t, tilde_f_kernel) for n in modes] for t in times])
    shape = dsp.stored_shape(model.dimension, nmax)
    table, _ = cov.g_table(spec, kurtosis, model, times[1])
    assert_close(table, want[1].reshape(shape))
    table, _ = cov.g_table(spec, kurtosis, model, times)
    assert_close(table, want.reshape((2,) + shape))
    for kernel, single in ((tilde_f_kernel, cov.g_total), (sinc_kernel, cov.g_rate)):
        got = [single(label(model, n), spec, kurtosis, model, times[1]) for n in modes]
        assert_close(got, [loop.g(n, kurtosis, times[1], kernel) for n in modes])
        # the other half-lattice: n -> -n
        neg = [tuple(-c for c in n) for n in modes]
        got = [single(label(model, n), spec, kurtosis, model, times[0]) for n in neg]
        assert_close(got, [loop.g(n, kurtosis, times[0], kernel) for n in neg])


@pytest.mark.parametrize("model,nmax", CASES, ids=IDS)
def test_g_terms_against_loop(model, nmax):
    spec, loop = setup(model, nmax)
    n = stored(model, nmax)[1]
    terms, corr, _ = cov.g_total_terms(label(model, n), spec, 2.0, model, 0.9)
    want = [4.0 * loop.ph(n) * tilde_f_kernel(loop.delta(n, k, l), 0.9) * loop.bracket(n, k, l)
            for k, l in triads(nmax, n)]
    assert_close(np.sort(terms), np.sort(want))
    assert corr == 0.0


@pytest.mark.parametrize("model,nmax", CASES, ids=IDS)
def test_closed_form_b_against_loop(model, nmax):
    u0 = fld.random_field(model.dimension, nmax, np.random.default_rng(5))
    dense = fld.full_array(u0)
    _, loop = setup(model, nmax)
    t = 0.7
    want = []
    for n in stored(model, nmax):
        total = 0.0j
        for k, l in triads(nmax, n):
            a_k = dense[tuple(c + nmax for c in k)]
            a_l = dense[tuple(c + nmax for c in l)]
            total += a_k * a_l * f_kernel(loop.delta(n, k, l), t)
        want.append(-1j * loop.ph(n) * total)
    got = pic.first_iterate_closed_form(u0, model, t).coeffs
    assert_close(got, np.array(want).reshape(got.shape))


@pytest.mark.parametrize("model,nmax", CASES, ids=IDS)
def test_max_delta_against_loop(model, nmax):
    _, loop = setup(model, nmax)
    active = [m for m in itertools.product(range(-nmax, nmax + 1), repeat=model.dimension) if m[0]]
    sizes = [abs(loop.delta(n, k, l)) for n in active for k, l in triads(nmax, n)]
    assert dsp.max_abs_delta(model, nmax) == pytest.approx(max(sizes), rel=1e-15)
