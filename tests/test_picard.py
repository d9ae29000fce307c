"""Picard iterate oracles and remainder extraction."""

import numpy as np
import pytest

from wavecorr import dispersion as dsp
from wavecorr import field as fld
from wavecorr import picard as pic
from wavecorr.kernels import f_kernel
from wavecorr.solver import StepAccuracyWarning, evolve_array


def smooth_field(dim, nmax, seed, rate=0.8, scale=1.0):
    rng = np.random.default_rng(seed)
    shape = dsp.stored_shape(dim, nmax)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return fld.SpectralField(nmax, scale * np.exp(-rate * dsp.mode_l1(dim, nmax)) * z / np.sqrt(2))


class TestClosedForm:
    def test_time_zero_vanishes(self):
        u0 = smooth_field(1, 6, seed=1)
        b = pic.first_iterate_closed_form(u0, dsp.BBM, 0.0)
        assert np.all(b.coeffs == 0.0)

    def test_single_pair_kdv(self):
        # datum on +-1 only; the one triad feeding mode 2 is (1,1) with
        # delta = 1 + 1 - 8 = -6, so b_2 = -2i F(-6, t)
        u0 = fld.field_from_modes(1, 4, {1: 1.0})
        for t in (0.3, 1.7):
            b = pic.first_iterate_closed_form(u0, dsp.KDV, t)
            expected = -2.0j * f_kernel(-6.0, t)
            assert fld.coefficient(b, 2) == pytest.approx(expected, rel=1e-14)
            assert fld.coefficient(b, 1) == 0.0
            assert fld.coefficient(b, 3) == 0.0

    def test_hermitian_output(self):
        u0 = smooth_field(2, 4, seed=2)
        b = pic.first_iterate_closed_form(u0, dsp.KPII, 0.9)
        assert fld.coefficient(b, (-2, 1)) == pytest.approx(
            np.conj(fld.coefficient(b, (2, -1))), rel=1e-14)

    @pytest.mark.parametrize("model", [dsp.KDV, dsp.BBM, dsp.KPII, dsp.KPI])
    def test_quadrature_agreement(self, model):
        nm = 8 if model.dimension == 1 else 5
        u0 = smooth_field(model.dimension, nm, seed=3, rate=1.0)
        t = 0.8
        panels = 8 * pic.default_panels(model, nm, t)
        b1 = pic.first_iterate_closed_form(u0, model, t)
        b2 = pic.first_iterate_quadrature(u0, model, t, panels)
        rel = np.linalg.norm(b1.coeffs - b2.coeffs) / np.linalg.norm(b1.coeffs)
        assert rel < 1e-10


class TestQuadrature:
    def test_time_zero(self):
        u0 = smooth_field(1, 6, seed=4)
        b = pic.first_iterate_quadrature(u0, dsp.KDV, 0.0)
        assert np.all(b.coeffs == 0.0)

    def test_fourth_order_in_panels(self):
        u0 = smooth_field(1, 6, seed=5)
        t = 1.2
        ref = pic.first_iterate_closed_form(u0, dsp.KDV, t)
        errs = []
        for panels in (600, 1200):
            b = pic.first_iterate_quadrature(u0, dsp.KDV, t, panels)
            errs.append(np.linalg.norm(b.coeffs - ref.coeffs))
        ratio = errs[0] / errs[1]
        assert 10.0 <= ratio <= 24.0  # Simpson: halving the width gains ~16x

    def test_panel_floor(self):
        u0 = smooth_field(1, 6, seed=5)
        with pytest.raises(ValueError):
            pic.first_iterate_quadrature(u0, dsp.KDV, 1.0, panels=2)

    def test_near_resonant_secular_growth(self):
        # datum concentrated on the Pell triad (1,14)+(7,1)=(8,15) where
        # |delta| = 1/56: F is within 10% of t for t <= 50 << 56
        u0 = fld.field_from_modes(2, 16, {(1, 14): 1.0, (7, 1): 1.0})
        times = [10.0, 20.0, 50.0]
        slopes = []
        for t in times:
            b = pic.first_iterate_quadrature(u0, dsp.KPI, t, panels=int(400 * t))
            slopes.append(fld.sobolev_norm(b, 0.0) / t)
        assert max(slopes) / min(slopes) < 1.1


class TestFirstHarmonic:
    def test_solver_grows_the_harmonic_at_first_order(self):
        # single-mode datum: the 2n harmonic of the solve matches eps * b_2n
        # up to O(eps^2) or better, checked by halving eps (here the gap is
        # actually O(eps^3): no pair of populated modes can feed 2n at
        # second order, so the halving ratio is ~8)
        u0 = fld.field_from_modes(1, 4, {1: 0.8})
        t = 0.6
        b2 = fld.coefficient(pic.first_iterate_closed_form(u0, dsp.KDV, t), 2)
        gaps = []
        for eps in (0.2, 0.1):
            v = u0.with_coeffs(evolve_array(dsp.KDV, eps, u0.coeffs, 1e-3, t)[0])
            v2 = fld.coefficient(v, 2)
            assert abs(v2 - eps * b2) < 0.1 * abs(eps * b2)
            gaps.append(abs(v2 - eps * b2))
        assert gaps[0] / gaps[1] >= 3.5


class TestRemainder:
    def test_zero_datum(self):
        _, c, _ = pic.remainders(fld.field_from_modes(1, 6, {}), dsp.BBM, 0.1, [1.0], dt=2e-3)
        assert np.all(c == 0.0)

    def test_decomposition_reconstructs_solution(self):
        u0 = smooth_field(1, 8, seed=6)
        eps = np.array([0.2, 0.1])
        times, c, blow = pic.remainders(u0, dsp.BBM, eps, [1.0], dt=2e-3)
        assert c.shape == (1, 2, 8) and times.tolist() == [1.0] and np.all(blow == np.inf)
        b = pic.first_iterate_closed_form(u0, dsp.BBM, 1.0).coeffs
        for row, e in enumerate(eps):
            final = evolve_array(dsp.BBM, e, u0.coeffs, 2e-3, 1.0)[0]
            rebuilt = u0.coeffs + e * b + e ** 2 * c[0, row]
            assert np.max(np.abs(rebuilt - final)) < 1e-15

    def test_epsilon_consistency(self):
        # c(eps) - c(eps/2) shrinks linearly in eps (Richardson with eps/4)
        u0 = smooth_field(1, 8, seed=7)
        _, (c,), _ = pic.remainders(u0, dsp.BBM, [0.2, 0.1, 0.05], [1.0], dt=2e-3)
        d1 = np.linalg.norm(c[0] - c[1])
        d2 = np.linalg.norm(c[1] - c[2])
        k_est = d2 / 0.05
        assert d1 <= 1.3 * k_est * 0.2

    def test_blow_up_reports_time(self):
        # the row at eps 1 dies and reads NaN from its blow-up time on; the row at
        # a tiny eps stays finite at every time
        u0 = smooth_field(1, 8, seed=7, rate=0.0, scale=1e8)
        with pytest.warns(StepAccuracyWarning):
            times, c, blow = pic.remainders(u0, dsp.KDV, [1.0, 1e-12], [0.5, 10.0], dt=0.5)
        assert 0.0 < blow[0] <= 10.0 and blow[1] == np.inf
        assert np.all(np.isnan(c[times >= blow[0], 0]))
        assert not np.any(np.isnan(c[times < blow[0], 0])) and np.all(np.isfinite(c[:, 1]))

    def test_requires_positive_epsilon(self):
        # NaN fails the guard too, rather than reading as a blow-up
        for eps in (0.0, -0.1, np.nan, [0.1, 0.0], [0.1, np.nan]):
            with pytest.raises(ValueError, match="epsilon > 0"):
                pic.remainders(smooth_field(1, 4, 8), dsp.BBM, eps, [1.0], dt=2e-3)

    def test_bbm_remainder_stable_under_grid_refinement(self):
        # same smooth datum embedded in two truncations: the scaled H^1 size
        # of c(1) is finite and moves only at truncation-error level
        base = smooth_field(1, 6, seed=13, rate=1.5)
        sizes = {}
        for nmax in (8, 12):
            wide = np.zeros(nmax, dtype=complex)
            wide[:6] = base.coeffs
            u0 = fld.SpectralField(nmax, wide)
            _, (c,), _ = pic.remainders(u0, dsp.BBM, 0.05, [1.0], dt=2e-3)
            sizes[nmax] = fld.sobolev_norm(u0.with_coeffs(c), 1.0) / fld.sobolev_norm(u0, 1.0) ** 3
        assert np.isfinite(sizes[8]) and sizes[8] > 0
        assert sizes[12] == pytest.approx(sizes[8], rel=1e-4)


class TestGrowthScan:
    def test_zero_grid(self):
        scan = pic.remainder_growth_scan(smooth_field(1, 6, 9), dsp.BBM, 0.1, [0.0], dt=2e-3)
        assert scan.rows == [(0.0, 0.0)]
        assert scan.fitted_exponent is None
        assert not scan.truncated

    def test_csv_columns(self):
        scan = pic.remainder_growth_scan(smooth_field(1, 6, 9), dsp.BBM, 0.1,
                                         [0.5, 1.0], dt=5e-3)
        lines = scan.to_csv().strip().splitlines()
        assert lines[0] == "t,norm,model,epsilon,nmax"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "bbm"

    def test_blow_up_truncates_with_flag(self):
        rough = fld.field_from_modes(1, 8, {k: 1e7 for k in range(1, 9)})
        with pytest.warns(StepAccuracyWarning):
            scan = pic.remainder_growth_scan(rough, dsp.KDV, 1.0, [0.5, 4.0, 8.0], dt=0.5)
        assert scan.truncated
        assert len(scan.rows) < 3

    def test_negative_step_rejected(self):
        # the KP-I Pell datum: a negative step would otherwise become one
        # step per snapshot interval and give wrong norms without an error
        u0 = fld.field_from_modes(2, 16, {(1, 14): 0.15, (7, 1): 0.15})
        with pytest.raises(ValueError, match="dt must be a positive finite number"):
            pic.remainder_growth_scan(u0, dsp.KPI, 0.05, [0.5, 1.0], dt=-1)

    def test_nan_time_rejected(self):
        # a NaN grid time is an error, not a silently missing row
        with pytest.raises(ValueError, match="nan"):
            pic.remainder_growth_scan(smooth_field(1, 6, 9), dsp.KDV, 0.1, [np.nan, 1.0],
                                      dt=1e-2)

    def test_time_zero_row_is_exactly_zero(self):
        scan = pic.remainder_growth_scan(smooth_field(1, 6, 9), dsp.BBM, 0.1, [0.5, 0.0],
                                         dt=5e-3)
        assert [t for t, _ in scan.rows] == [0.0, 0.5]
        assert scan.rows[0][1] == 0.0 and scan.rows[1][1] > 0.0
        times, c, _ = pic.remainders(smooth_field(1, 6, 9), dsp.BBM, [0.1, 0.05], [0.0], dt=5e-3)
        assert times.tolist() == [0.0] and c.shape == (1, 2, 6) and not np.any(c)

    def test_no_resonance_sup_attained_early(self):
        # BBM and KP-II: sup over [0,100] of ||b(t)|| moves < 5% between the
        # first and second half of the window (no secular growth)
        for model, nm in ((dsp.BBM, 8), (dsp.KPII, 5)):
            u0 = smooth_field(model.dimension, nm, seed=10, rate=1.0)
            grid = np.linspace(0.5, 100.0, 80)
            norms = np.array([fld.sobolev_norm(
                pic.first_iterate_closed_form(u0, model, t), 1.0) for t in grid])
            first = norms[grid <= 50.0].max()
            second = norms[grid > 50.0].max()
            assert abs(second - first) / first < 0.05
