"""Spectral field invariants, linear operators, and snapshot IO."""

import io
import struct

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
        f = fld.zero_field(1, 4)
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
        assert fld.sobolev_norm(fld.zero_field(2, 5), 2.0) == 0.0

    def test_single_pair_example(self):
        # |n|_l1 = 2, both half-lattice copies: sqrt(2 * 2^2 * 1) = 2 sqrt(2)
        f = fld.field_from_modes(2, 3, {(1, 1): 1.0})
        assert fld.sobolev_norm(f, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)

    def test_s0_is_coefficient_l2(self):
        rng = np.random.default_rng(1)
        f = fld.random_field(1, 8, rng)
        expected = np.sqrt(2.0 * np.sum(np.abs(f.coeffs) ** 2))
        assert fld.sobolev_norm(f, 0.0) == pytest.approx(expected, rel=1e-15)
        assert fld.l2_norm(f) == fld.sobolev_norm(f, 0.0)


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


class TestApplyJ:
    def test_zero_field(self):
        f = fld.zero_field(1, 4)
        assert np.all(fld.apply_j(dsp.KDV, f).coeffs == 0.0)

    def test_kdv_is_spectral_derivative(self):
        rng = np.random.default_rng(6)
        f = fld.random_field(1, 6, rng)
        g = fld.apply_j(dsp.KDV, f)
        n = np.arange(1, 7)
        assert np.allclose(g.coeffs, 1j * n * f.coeffs, rtol=0, atol=0)

    def test_output_stays_real_valued(self):
        # odd multiplier: the dense inverse transform has no imaginary part
        rng = np.random.default_rng(7)
        f = fld.random_field(1, 6, rng)
        dense = fld.full_array(fld.apply_j(dsp.BBM, f))
        phys = np.fft.ifft(np.fft.ifftshift(dense)) * dense.size
        assert np.max(np.abs(phys.imag)) < 1e-13


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        f = fld.random_field(2, 4, rng)
        path = tmp_path / "state.snap"
        fld.write_snapshot(path, dsp.KPI, 1.25, f)
        model, t, g = fld.read_snapshot(path)
        assert model is dsp.KPI
        assert t == 1.25
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_truncated_payload_rejected(self):
        buf = io.BytesIO()
        size = fld.write_snapshot(buf, dsp.KDV, 0.5, fld.field_from_modes(1, 2, {1: 1.0}))
        with pytest.raises(ValueError, match=f"should have {size} bytes, got {size - 8}"):
            fld.read_snapshot(io.BytesIO(buf.getvalue()[:-8]))
        with pytest.raises(ValueError, match="has 10 bytes, fewer than its 20-byte header"):
            fld.read_snapshot(io.BytesIO(buf.getvalue()[:10]))

    def test_trailing_bytes_rejected(self):
        buf = io.BytesIO()
        size = fld.write_snapshot(buf, dsp.KDV, 0.5, fld.field_from_modes(1, 2, {1: 1.0}))
        with pytest.raises(ValueError, match=f"should have {size} bytes, got {size + 3}"):
            fld.read_snapshot(io.BytesIO(buf.getvalue() + b"xyz"))

    def test_huge_header_reports_exact_byte_count(self):
        # 16 * nmax * (2 nmax + 1) overflows int64 for this nmax
        nmax = 2**32 - 1
        header = struct.pack("<4sII d", b"kpi ", 2, nmax, 0.0)
        expected = 20 + 16 * nmax * (2 * nmax + 1)
        with pytest.raises(ValueError, match=f"should have {expected} bytes, got 20"):
            fld.read_snapshot(io.BytesIO(header))

    def test_non_finite_payload_rejected(self):
        buf = io.BytesIO()
        fld.write_snapshot(buf, dsp.KDV, 0.5, fld.field_from_modes(1, 3, {1: 1.0, 2: 2.0}))
        raw = bytearray(buf.getvalue())
        raw[20 + 8 * 3:20 + 8 * 4] = np.array([np.nan], dtype="<f8").tobytes()  # Im of mode 2
        with pytest.raises(ValueError, match="non-finite coefficients: 1 of 3"):
            fld.read_snapshot(io.BytesIO(bytes(raw)))

    def test_layout_is_little_endian_with_header(self):
        f = fld.field_from_modes(1, 2, {1: 1.0 + 2.0j, 2: -0.5j})
        buf = io.BytesIO()
        fld.write_snapshot(buf, dsp.KDV, 0.5, f)
        raw = buf.getvalue()
        assert raw[:4] == b"kdv "
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert np.frombuffer(raw, dtype="<f8", offset=12, count=1)[0] == 0.5
        payload = np.frombuffer(raw, dtype="<f8", offset=20)
        assert payload.tolist() == [1.0, 2.0, 0.0, -0.5]
