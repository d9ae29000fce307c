"""Spectral field invariants and linear operators."""

import numpy as np
import pytest

from wavecorr import dispersion as dsp
from wavecorr import field as fld


class TestInvariants:
    def test_hermitian_mirror(self):
        f = fld.field_from_modes(1, 4, {2: 1.0 + 2.0j})
        assert fld.coefficient(f, 2) == 1.0 + 2.0j
        assert fld.coefficient(f, -2) == 1.0 - 2.0j

    def test_negative_mode_input_sets_mirror(self):
        f = fld.field_from_modes(2, 3, {(-1, 2): 3.0 - 1.0j})
        assert fld.coefficient(f, (1, -2)) == 3.0 + 1.0j

    def test_zero_first_component_is_zero(self):
        f = fld.field_from_modes(2, 3, {(1, 1): 1.0})
        assert fld.coefficient(f, (0, 2)) == 0.0

    def test_zero_column_modes_carry_no_data(self):
        with pytest.raises(ValueError):
            fld.field_from_modes(2, 3, {(0, 1): 1.0})

    @pytest.mark.parametrize("dim,mode", [(1, 2.5), (1, -2.7), (2, (1, 0.5)), (2, (1.5, 1))])
    def test_non_integral_mode_rejected_by_field_from_modes(self, dim, mode):
        with pytest.raises(ValueError, match="integer lattice"):
            fld.field_from_modes(dim, 4, {mode: 1.0})

    @pytest.mark.parametrize("dim,mode", [(1, 2.7), (1, -1.5), (2, (2, 0.5)), (2, (0.5, 1))])
    def test_non_integral_mode_rejected_by_coefficient(self, dim, mode):
        f = fld.random_field(dim, 4, np.random.default_rng(1))
        with pytest.raises(ValueError, match="integer lattice"):
            fld.coefficient(f, mode)

    def test_integral_float_labels_are_modes(self):
        f = fld.field_from_modes(2, 3, {(2.0, -1.0): 1.0 + 1.0j})
        assert fld.coefficient(f, (2, -1)) == fld.coefficient(f, (2.0, -1.0)) == 1.0 + 1.0j

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fld.SpectralField(4, np.zeros(5, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf), complex(np.nan, 0.0)])
    def test_non_finite_rejected(self, bad):
        coeffs = np.zeros(dsp.stored_shape(2, 2), dtype=complex)
        coeffs[0, 1] = bad
        coeffs[1, 4] = bad
        with pytest.raises(ValueError, match="non-finite coefficients: 2 of 10"):
            fld.SpectralField(2, coeffs)

    def test_coeffs_immutable(self):
        f = fld.field_from_modes(1, 4, {})
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_full_array_consistency(self):
        rng = np.random.default_rng(5)
        f = fld.random_field(2, 3, rng)
        dense = fld.full_array(f)
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                assert dense[n1 + 3, n2 + 3] == fld.coefficient(f, (n1, n2))


class TestSobolevNorm:
    def test_zero_field(self):
        assert fld.sobolev_norm(fld.field_from_modes(2, 5, {}), 2.0) == 0.0

    def test_single_pair_example(self):
        # |n|_l1 = 2, both half-lattice copies: sqrt(2 * 2^2 * 1) = 2 sqrt(2)
        f = fld.field_from_modes(2, 3, {(1, 1): 1.0})
        assert fld.sobolev_norm(f, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)

    def test_s0_is_coefficient_l2(self):
        rng = np.random.default_rng(1)
        f = fld.random_field(1, 8, rng)
        expected = np.sqrt(2.0 * np.sum(np.abs(f.coeffs) ** 2))
        assert fld.sobolev_norm(f, 0.0) == pytest.approx(expected, rel=1e-15)


class TestSemigroup:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(2)
        f = fld.random_field(1, 6, rng)
        g = fld.apply_semigroup(dsp.KDV, f, 0.0)
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for model in (dsp.BBM, dsp.KPI):
            f = fld.random_field(model.dimension, 5, rng)
            t = float(rng.uniform(-4, 4))
            for s in (0.0, 1.0, 2.5):
                assert fld.sobolev_norm(fld.apply_semigroup(model, f, t), s) == \
                    pytest.approx(fld.sobolev_norm(f, s), rel=1e-14)

    def test_single_mode_phase(self):
        # omega(1) = 1 for KdV: time pi rotates the coefficient to -1
        f = fld.field_from_modes(1, 2, {1: 1.0})
        g = fld.apply_semigroup(dsp.KDV, f, np.pi)
        assert fld.coefficient(g, 1) == pytest.approx(-1.0, abs=1e-15)

    def test_composition(self):
        rng = np.random.default_rng(4)
        f = fld.random_field(2, 4, rng)
        g1 = fld.apply_semigroup(dsp.KPII, fld.apply_semigroup(dsp.KPII, f, 0.7), 1.6)
        g2 = fld.apply_semigroup(dsp.KPII, f, 2.3)
        assert np.max(np.abs(g1.coeffs - g2.coeffs)) < 1e-13


def apply_j(model, field):
    """Coefficientwise multiplication by i phi(n), the nonlinearity multiplier J."""
    return field.with_coeffs(field.coeffs * (1j * dsp.phi_grid(model, field.nmax)))


class TestApplyJ:
    def test_zero_field(self):
        f = fld.field_from_modes(1, 4, {})
        assert np.all(apply_j(dsp.KDV, f).coeffs == 0.0)

    def test_kdv_is_spectral_derivative(self):
        rng = np.random.default_rng(6)
        f = fld.random_field(1, 6, rng)
        g = apply_j(dsp.KDV, f)
        n = np.arange(1, 7)
        assert np.allclose(g.coeffs, 1j * n * f.coeffs, rtol=0, atol=0)

    def test_output_stays_real_valued(self):
        # odd multiplier: the dense inverse transform has no imaginary part
        rng = np.random.default_rng(7)
        f = fld.random_field(1, 6, rng)
        dense = fld.full_array(apply_j(dsp.BBM, f))
        phys = np.fft.ifft(np.fft.ifftshift(dense)) * dense.size
        assert np.max(np.abs(phys.imag)) < 1e-13
