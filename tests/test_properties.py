"""Property tests: the Hermitian mirror, the semigroup, kernel continuity,
batch-row independence of the stepper, its conserved functionals, and the
Monte Carlo report's independence of the worker count and batch layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecorr import covariance as cov
from wavecorr import dispersion as dsp
from wavecorr import field as fld
from wavecorr import kernels as krn
from wavecorr import sampling as smp
from wavecorr import solver as slv

# derandomized, so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

finite = st.floats(allow_nan=False, allow_infinity=False)
coefficient = st.builds(complex, finite, finite)


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@st.composite
def mode_dicts(draw):
    """{mode: value} with modes of either half-lattice and no mode beside its mirror."""
    dim = draw(st.sampled_from([1, 2]))
    nmax = draw(st.integers(1, 5))
    stored = [tuple(m) for m in dsp.stored_modes(dim, nmax).tolist()]
    chosen = draw(st.lists(st.sampled_from(stored), unique=True, max_size=8))
    modes = {}
    for mode in chosen:
        if draw(st.booleans()):
            mode = tuple(-c for c in mode)
        modes[mode[0] if dim == 1 else mode] = draw(coefficient)
    return dim, nmax, modes


@PROPERTY
@given(mode_dicts())
def test_hermitian_round_trip(case):
    dim, nmax, modes = case
    field = fld.field_from_modes(dim, nmax, modes)
    full = fld.full_array(field)
    for mode, value in modes.items():
        mirror = -mode if dim == 1 else (-mode[0], -mode[1])
        assert fld.coefficient(field, mode) == value
        assert fld.coefficient(field, mirror) == np.conj(value)
        index = tuple(np.atleast_1d(mode) + nmax)
        assert full[index] == value
    # the box is its own conjugate mirror and the n1 = 0 modes vanish
    assert np.array_equal(full, np.conj(full[(slice(None, None, -1),) * dim]))
    assert not np.any(full[nmax])
    # nothing but the given modes and their mirrors is set
    assert np.count_nonzero(field.coeffs) == sum(1 for v in modes.values() if v != 0)


def models_of(dim):
    return st.sampled_from([m for m in dsp.MODELS.values() if m.dimension == dim])


@st.composite
def moderate_fields(draw, nmax_1d=6, nmax_2d=4):
    """A field of either dimension with coefficients of order one or smaller."""
    dim = draw(st.sampled_from([1, 2]))
    nmax = draw(st.integers(1, nmax_1d if dim == 1 else nmax_2d))
    seed = draw(st.integers(0, 2**32 - 1))
    return fld.random_field(dim, nmax, np.random.default_rng(seed))


times = st.floats(-10.0, 10.0, allow_nan=False)


@PROPERTY
@given(moderate_fields(), times, times, st.floats(0.0, 3.0), st.data())
def test_semigroup_group_law_and_norm_invariance(field, t1, t2, s, data):
    model = data.draw(models_of(field.dimension))
    once = fld.apply_semigroup(model, field, t1 + t2)
    twice = fld.apply_semigroup(model, fld.apply_semigroup(model, field, t1), t2)
    scale = np.max(np.abs(field.coeffs))
    # phases reach |omega t| ~ 4e3 rad, whose rounding alone is ~1e-12
    assert np.max(np.abs(once.coeffs - twice.coeffs)) <= 1e-11 * scale
    norm = fld.sobolev_norm(field, s)
    assert fld.sobolev_norm(once, s) == pytest.approx(norm, rel=1e-13)


@PROPERTY
@given(st.floats(1e-3, 1e3), st.booleans(), st.sampled_from([1.0, -1.0]))
def test_kernels_continuous_across_degenerate_phase(t, negative_t, sign):
    t = -t if negative_t else t
    # |delta * t| just below (series branch) and just above the switch; the
    # branches agree to a few ulp (at most 5e-16 relative over a dense t grid)
    below = sign * krn.DEGENERATE_PHASE * (1.0 - 1e-12) / abs(t)
    above = sign * krn.DEGENERATE_PHASE * (1.0 + 1e-12) / abs(t)
    assert abs(below * t) < krn.DEGENERATE_PHASE <= abs(above * t)
    for kernel in (krn.f_kernel, krn.tilde_f_kernel):
        lo, hi = kernel(below, t), kernel(above, t)
        assert abs(lo - hi) <= 4e-15 * abs(hi), kernel.__name__


@PROPERTY
@given(moderate_fields(nmax_1d=5, nmax_2d=3), st.integers(1, 4), st.data())
def test_batch_rows_solve_bitwise_alone(field, rows, data):
    model = data.draw(models_of(field.dimension))
    eps = data.draw(st.floats(0.0, 1.0))
    dt = data.draw(st.floats(1e-3, 5e-2))
    t_final = dt * data.draw(st.integers(1, 4))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows))
    batch = np.stack([field.coeffs] + [
        fld.random_field(field.dimension, field.nmax, np.random.default_rng(seed)).coeffs
        for seed in seeds])
    final, _, alive, _ = slv.evolve_array(model, eps, batch, dt, t_final)
    for row in range(batch.shape[0]):
        alone, _, alive_alone, _ = slv.evolve_array(model, eps, batch[row:row + 1], dt, t_final)
        assert alive[row] == alive_alone[0]
        assert np.array_equal(bits(final[row]), bits(alone[0]))


@PROPERTY
@pytest.mark.parametrize("model", list(dsp.MODELS.values()), ids=list(dsp.MODELS))
@given(st.data())
def test_solves_conserve_the_functional(model, data):
    # H^1 for BBM, L^2 for KdV and KP: exact for the truncated flow, so only
    # the RK4 error remains, far below the bound at this step
    nmax = data.draw(st.integers(1, 6 if model.dimension == 1 else 4))
    seed = data.draw(st.integers(0, 2**32 - 1))
    field = fld.random_field(model.dimension, nmax, np.random.default_rng(seed))
    eps = data.draw(st.floats(0.05, 0.5))
    dt = 0.05 / max(1.0, dsp.max_abs_delta(model, nmax))
    final, _, alive, _ = slv.evolve_array(model, eps, field.coeffs, dt,
                                          dt * data.draw(st.integers(1, 8)))
    before = slv.conserved_functional(model, field)
    after = slv.conserved_functional(model, field.with_coeffs(final))
    assert alive
    assert abs(after - before) <= 1e-8 * before


# each example starts a process pool, so few of them
@settings(derandomize=True, deadline=None, max_examples=5)
@given(st.integers(4, 40), st.integers(0, 2**64 - 1), st.sampled_from([4, 8]), st.data())
def test_mc_report_independent_of_workers_and_batches(samples, seed, nmax, data):
    batch = data.draw(st.integers(1, samples // 2))  # at least two batches, so the pool runs
    ensemble = smp.EnsembleConfig(smp.complex_gaussian(),
                                  smp.build_spectrum("sobolev", 3.0, nmax, 1), samples, seed)

    def report(workers, batch_size):
        return cov.mc_covariance(ensemble, dsp.BBM, 0.05, 0.5, 0.05,
                                 workers=workers, batch_size=batch_size)

    serial, pooled = report(1, batch), report(2, batch)
    assert serial.to_csv() == pooled.to_csv()
    assert serial.to_json() == pooled.to_json()
    # another batch layout merges the same per-sample statistics in another
    # order: equal up to rounding (measured at most 1e-15 relative)
    whole = report(1, samples)
    assert serial.used == whole.used == samples
    assert np.array_equal(serial.g_pred, whole.g_pred)
    scale = np.max(np.abs(whole.estimates))
    assert np.all(np.abs(serial.estimates - whole.estimates) <= 1e-12 * scale)
    assert np.all(np.abs(serial.stderrs - whole.stderrs) <= 1e-12 * whole.stderrs)
