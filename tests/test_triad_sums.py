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
from wavecorr.kernels import f_kernel, tilde_f_kernel

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


def triads(nmax, n):
    """Every (k, l) with k + l = n, both active and inside the box."""
    for k in itertools.product(range(-nmax, nmax + 1), repeat=len(n)):
        l = tuple(a - b for a, b in zip(n, k))
        if k[0] and l[0] and max(map(abs, l)) <= nmax:
            yield k, l


def stored(model, nmax):
    return [m if isinstance(m, tuple) else (m,) for m in dsp.mode_list(model.dimension, nmax)]


class Loop:
    """Scalar reads of omega, phi and |lambda|^2 for one configuration.  The
    omega and phi tables are read when a Loop is built: inject a relation first."""

    def __init__(self, model, spectrum):
        self.spec = spectrum
        self.omega = dsp.omega_full(model, spectrum.nmax)
        self.phi = dsp.phi_full(model, spectrum.nmax)

    def om(self, m):
        return self.omega[tuple(c + self.spec.nmax for c in m)]

    def ph(self, m):
        return self.phi[tuple(c + self.spec.nmax for c in m)]

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

    def term(self, n, k, l, t):
        """The main term of G_n from the triad (n, k, l)."""
        return 4.0 * self.ph(n) * tilde_f_kernel(self.delta(n, k, l), t) * self.bracket(n, k, l)

    def correction(self, n, kurtosis, t):
        """The kurtosis term of G_n; zero when 2n leaves the box, as the truncation has it."""
        corr = 0.0
        if all(c % 2 == 0 for c in n):
            q = tuple(c // 2 for c in n)
            corr += (2.0 * tilde_f_kernel(2.0 * self.om(q) - self.om(n), t)
                     * self.ph(n) ** 2 * self.lam2(q) ** 2)
        twice = tuple(2 * c for c in n)
        if max(map(abs, twice)) <= self.spec.nmax:
            corr -= (4.0 * tilde_f_kernel(self.om(twice) - 2.0 * self.om(n), t)
                     * self.ph(twice) * self.ph(n) * self.lam2(n) ** 2)
        return (kurtosis - 2.0) * corr

    def g(self, n, kurtosis, t):
        total = 0.0
        for k, l in triads(self.spec.nmax, n):
            total += self.term(n, k, l, t)
        return total + self.correction(n, kurtosis, t)


def setup(model, nmax):
    spec = smp.build_spectrum("sobolev", 2.0, nmax, model.dimension)
    return spec, Loop(model, spec)


def kp_odd_in_n2(n1, n2):
    """KP-I's relation plus n2^3: still odd in n, but not even in n2, and
    unlike a drift n2 the added term moves delta."""
    return n1 * n1 * n1 + (n2 * n2) / n1 + n2 * n2 * n2


# the KP triad sums share each kernel value between a triad and its mirror
# (n1, -n2); these inputs are not mirror-symmetric, so a sum that assumed the
# spectrum or the relation to be would miss the loop
G_CASES = [(model, nmax, None) for model, nmax in CASES] + [
    (dsp.KPII, 4, "tilted"), (dsp.KPI, 4, "tilted"), (dsp.KPI, 4, "odd-in-n2")]
G_IDS = IDS + ["kpii-tilted", "kpi-tilted", "kpi-odd-in-n2"]


def g_setup(model, nmax, variant, monkeypatch):
    """setup(), with a spectrum whose lambda(n1, n2) != lambda(n1, -n2) when
    `variant` is "tilted", or omega odd in n2 injected when "odd-in-n2"."""
    if variant == "odd-in-n2":
        monkeypatch.setitem(dsp._OMEGA, model.kind, kp_odd_in_n2)
        om = dsp.omega_full(model, nmax)
        assert not np.array_equal(om, om[:, ::-1])
    spec, loop = setup(model, nmax)
    if variant == "tilted":
        table = np.random.default_rng(8).uniform(0.5, 1.5, spec.table.shape)
        assert not np.allclose(table, table[:, ::-1])
        spec = smp.SpectrumProfile("tilted", None, nmax, 2, table)
        loop = Loop(model, spec)
    return spec, loop


@pytest.mark.parametrize("model,nmax,variant", G_CASES, ids=G_IDS)
@pytest.mark.parametrize("kurtosis", [2.0, 1.0])
def test_g_against_loop(model, nmax, variant, kurtosis, monkeypatch):
    spec, loop = g_setup(model, nmax, variant, monkeypatch)
    modes = stored(model, nmax)
    times = np.array([0.4, 1.3])
    want = np.array([[loop.g(n, kurtosis, t) for n in modes] for t in times])
    shape = dsp.stored_shape(model.dimension, nmax)
    table, _ = cov.g_table(spec, kurtosis, model, times[1])
    assert_close(table, want[1].reshape(shape))
    table, _ = cov.g_table(spec, kurtosis, model, times)
    assert_close(table, want.reshape((2,) + shape))
    # G is even in n, so the stored half-lattice holds every value
    neg = [loop.g(tuple(-c for c in n), kurtosis, times[0]) for n in modes]
    assert_close(table[0], np.reshape(neg, shape))


@pytest.mark.parametrize("dim,nmax", [(1, 6), (2, 3)])
def test_triad_sums_of_symmetric_weight_against_ordered_loop(dim, nmax):
    # each unordered triad is evaluated once and counted twice off the
    # diagonal k == l, which even n have; the loop sums every ordered triad.
    # A zero omega table is mirror-invariant, so in 2-d every kernel value
    # serves a triad and its mirror (n1, -n2), whose table entry differs.
    box = list(itertools.product(range(-nmax, nmax + 1), repeat=dim))
    where = {m: i for i, m in enumerate(box)}
    rng = np.random.default_rng(dim)
    size = (2,) + (len(box),) * 3
    table = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    table = table + table.transpose(0, 1, 3, 2)
    modes = [m for m in box if m[0] > 0]
    want = np.zeros((2, len(modes)), dtype=complex)
    diagonal = 0
    for i, n in enumerate(modes):
        for k, l in triads(nmax, n):
            want[:, i] += table[:, where[n], where[k], where[l]]
            diagonal += k == l
    assert diagonal > 0

    def weight(n, k, l, one):
        return table[:, n, k, l] * one

    assert_close(dsp.triad_sums(dim, nmax, np.zeros(len(box)), np.ones_like, weight), want)


@pytest.mark.parametrize("model,nmax", CASES, ids=IDS)
def test_triad_sums_weigh_each_triad_once(model, nmax):
    # every unordered triad of a stored mode is weighed once; for KP the
    # kernel sees only the triads of the modes with n2 >= 0, whose values
    # the mirrors (n1, -n2) reuse
    dim = model.dimension
    stored = dsp.flat_index(dim, nmax, dsp.stored_modes(dim, nmax))
    full = dsp.full_modes(dim, nmax)
    kernel_sizes, weighed = [], []

    def kernel(delta):
        kernel_sizes.append(delta.size)
        return np.ones_like(delta)

    def weight(n, k, l, kern):
        weighed.extend(zip(n.tolist(), np.minimum(k, l).tolist(), np.maximum(k, l).tolist()))
        return kern

    dsp.triad_sums(dim, nmax, dsp.omega_full(model, nmax).ravel(), kernel, weight)
    want = [t for block in dsp.triad_blocks(dim, nmax, stored)
            for t in zip(*(a.tolist() for a in block))]
    assert sorted(weighed) == sorted(want)
    assert sum(kernel_sizes) == sum(1 for n, _, _ in want if dim == 1 or full[n, 1] >= 0)


@pytest.mark.parametrize("model,nmax,variant", G_CASES, ids=G_IDS)
def test_g_terms_against_loop(model, nmax, variant, monkeypatch):
    spec, loop = g_setup(model, nmax, variant, monkeypatch)
    modes = stored(model, nmax)
    t = 0.9
    # one term per unordered triad, k <= l (tuples order as flat indices), in
    # triad_blocks order, twice the ordered term off the diagonal
    triples = [(i, n, k, l) for i, n in enumerate(modes) for k, l in triads(nmax, n) if k <= l]
    for kurtosis in (2.0, 1.0):
        owner, terms, corr = cov.g_terms(spec, kurtosis, model, t)
        assert owner.tolist() == [i for i, *_ in triples]
        assert_close(terms, [(1 if k == l else 2) * loop.term(n, k, l, t)
                             for _, n, k, l in triples])
        assert_close(corr, [loop.correction(n, kurtosis, t) for n in modes])
        # per mode, the terms and the correction add up to g_table
        table, _ = cov.g_table(spec, kurtosis, model, t)
        assert_close(np.bincount(owner, terms, len(modes)) + corr, table.ravel())


@pytest.mark.parametrize("model,nmax", CASES, ids=IDS)
def test_closed_form_b_against_loop(model, nmax):
    u0 = fld.random_field(model.dimension, nmax, np.random.default_rng(5))
    dense = fld.full_array(u0)
    _, loop = setup(model, nmax)
    times = np.array([0.7, 1.6])
    want = []
    for t in times:
        for n in stored(model, nmax):
            total = 0.0j
            for k, l in triads(nmax, n):
                a_k = dense[tuple(c + nmax for c in k)]
                a_l = dense[tuple(c + nmax for c in l)]
                total += a_k * a_l * f_kernel(loop.delta(n, k, l), t)
            want.append(-1j * loop.ph(n) * total)
    want = np.reshape(want, times.shape + u0.coeffs.shape)
    assert_close(pic.first_iterate_closed_form(u0, model, times[0]).coeffs, want[0])
    # an array of times gives every time's coefficients from one triad pass
    assert_close(pic.first_iterate_closed_form(u0, model, times), want)


@pytest.mark.parametrize("model,nmax", CASES, ids=IDS)
def test_max_delta_against_loop(model, nmax):
    _, loop = setup(model, nmax)
    active = [m for m in itertools.product(range(-nmax, nmax + 1), repeat=model.dimension) if m[0]]
    sizes = [abs(loop.delta(n, k, l)) for n in active for k, l in triads(nmax, n)]
    assert dsp.max_abs_delta(model, nmax) == pytest.approx(max(sizes), rel=1e-15)
