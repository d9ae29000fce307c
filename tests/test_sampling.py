"""Noise laws, spectrum profiles, ensembles, and statistical diagnostics."""

import numpy as np
import pytest

from wavecorr import dispersion as dsp
from wavecorr import field as fld
from wavecorr import sampling as smp


class TestNoiseLaws:
    @pytest.mark.parametrize("law", [smp.complex_gaussian(), smp.random_phase(),
                                     smp.random_phase((0.5, 1.5))])
    def test_first_two_moments(self, law):
        g = smp.draw_noise(law, smp.sample_stream(99, 0), 200_000)
        m = g.size
        assert abs(np.mean(g)) < 4.0 / np.sqrt(m)
        assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, abs=4.0 / np.sqrt(m))
        assert abs(np.mean(g * g)) < 4.0 / np.sqrt(m)

    def test_kurtosis_values(self):
        assert smp.complex_gaussian().kurtosis == 2.0
        assert smp.random_phase().kurtosis == 1.0
        law = smp.random_phase((1.0, 3.0))
        g = smp.draw_noise(law, smp.sample_stream(1, 0), 400_000)
        assert np.mean(np.abs(g) ** 4) == pytest.approx(law.kurtosis, rel=0.01)

    def test_law_from_kurtosis(self):
        assert smp.law_from_kurtosis("complex-gaussian", None).kind == "complex-gaussian"
        assert smp.law_from_kurtosis("random-phase", 1.0).amplitude_range is None
        law = smp.law_from_kurtosis("random-phase", 1.4)
        assert law.kurtosis == pytest.approx(1.4, abs=1e-9)
        with pytest.raises(ValueError):
            smp.law_from_kurtosis("complex-gaussian", 1.0)
        with pytest.raises(ValueError):
            smp.law_from_kurtosis("random-phase", 1.9)

    def test_rotational_invariance_of_phase_law(self):
        # multiplying by a fixed phase leaves the law unchanged; compare moments
        law = smp.random_phase()
        g = smp.draw_noise(law, smp.sample_stream(5, 0), 100_000)
        rotated = g * np.exp(0.7j)
        for k in (1, 2, 3):
            assert abs(np.mean(g ** k) - np.mean(rotated ** k)) < 6.0 / np.sqrt(g.size)


class TestSpectrumProfiles:
    def test_bbm_gibbs_values(self):
        spec = smp.build_spectrum("bbm-gibbs", None, 8, 1)
        assert spec.table[1] == pytest.approx(1.0 / np.sqrt(5.0), rel=1e-15)  # k = 2

    def test_constant_is_kp_equilibrium(self):
        spec = smp.build_spectrum("constant", None, 4, 2)
        assert np.all(spec.table == 1.0)
        n1 = dsp.mode_grids(2, 4)[0]
        ratio = spec.lambda_sq * n1 / dsp.phi_grid(dsp.KPII, 4)
        assert np.allclose(ratio, 1.0, rtol=0, atol=0)

    def test_sobolev_profile_value(self):
        spec = smp.build_spectrum("sobolev", 4.0, 3, 2)
        # n = (1, 1): (1 + 2)^(-2) = 1/9 with the Euclidean size inside the profile
        assert spec.table[0, 3 + 1] == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_regularity_gate(self):
        with pytest.raises(ValueError, match="s > 2"):
            smp.build_spectrum("sobolev", 2.0, 8, 2, model=dsp.KPII)
        with pytest.raises(ValueError, match="s > 3"):
            smp.build_spectrum("sobolev", 3.5, 8, 2, model=dsp.KPI)
        with pytest.raises(ValueError, match="s > 0.375"):
            smp.build_spectrum("sobolev", 0.8, 8, 1, model=dsp.BBM)
        smp.build_spectrum("sobolev", 3.0, 8, 1, model=dsp.BBM)
        smp.build_spectrum("bbm-gibbs", None, 8, 1, model=dsp.BBM)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_lattice_rejected(self, dim):
        # nmax = 0 stores no mode at all; the triad sums would divide by zero
        with pytest.raises(ValueError, match="nmax"):
            smp.custom_spectrum(np.zeros(dsp.stored_shape(dim, 0)), 0, dim)
        with pytest.raises(ValueError, match="nmax"):
            smp.build_spectrum("sobolev", 3.0, 0, dim)

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            smp.build_spectrum("bbm-gibbs", None, 8, 2)
        with pytest.raises(ValueError):
            smp.build_spectrum("constant", None, 8, 2, model=dsp.BBM)


class TestEnsembles:
    def make(self, samples=64, nmax=6, seed=1234):
        spec = smp.build_spectrum("sobolev", 2.0, nmax, 1)
        return smp.EnsembleConfig(smp.complex_gaussian(), spec, samples, seed)

    def test_reproducibility(self):
        ens = self.make()
        a = smp.sample_initial_field(ens, 3)
        b = smp.sample_initial_field(ens, 3)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = smp.sample_initial_field(ens, 4)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_order_independence(self):
        ens = self.make()
        batch = smp.sample_coeff_batch(ens, [5, 1, 3])
        singles = [smp.sample_initial_field(ens, i).coeffs for i in (5, 1, 3)]
        assert np.array_equal(batch, np.stack(singles))

    def test_fields_satisfy_invariants(self):
        ens = self.make()
        f = smp.sample_initial_field(ens, 0)
        assert fld.coefficient(f, -2) == np.conj(fld.coefficient(f, 2))
        assert np.isfinite(fld.sobolev_norm(f, 1.5))

    def test_mode_variance_matches_spectrum(self):
        ens = self.make(samples=4096, nmax=6, seed=777)
        coeffs = smp.sample_coeff_batch(ens, range(4096))
        emp = np.mean(np.abs(coeffs) ** 2, axis=0)
        lam2 = ens.spectrum.lambda_sq
        # |u_n|^2 has variance lam2^2 for gaussian g; 4 standard errors
        stderr = lam2 / np.sqrt(4096)
        assert np.all(np.abs(emp - lam2) <= 4.0 * stderr)

    def test_mode_independence(self):
        # every pair m < n of distinct stored modes, within 5 empirical standard
        # errors: E(conj(g_m) g_n) = E(g_m g_n) = 0, and for the Gaussian
        # E(|g_m|^2 |g_n|^2) = 1 (random-phase draws have |g| = 1 exactly)
        draws = 4096
        for law in (smp.complex_gaussian(), smp.random_phase()):
            for dim, nmax in ((1, 6), (2, 3)):
                spec = smp.build_spectrum("sobolev", 3.0, nmax, dim)
                ens = smp.EnsembleConfig(law, spec, draws, 555)
                g = (smp.sample_coeff_batch(ens, range(draws)) / spec.table).reshape(draws, -1)
                m, n = np.triu_indices(g.shape[1], k=1)
                products = [np.conj(g[:, m]) * g[:, n], g[:, m] * g[:, n]]
                if law.kind == "complex-gaussian":
                    products.append(np.abs(g[:, m]) ** 2 * np.abs(g[:, n]) ** 2 - 1.0)
                for x in products:
                    z = np.abs(x.mean(axis=0)) / (x.std(axis=0, ddof=1) / np.sqrt(draws))
                    assert np.max(z) <= 5.0, (law.kind, dim, float(np.max(z)))

    def test_gibbs_energy_mean_counts_modes(self):
        spec = smp.build_spectrum("bbm-gibbs", None, 12, 1)
        ens = smp.EnsembleConfig(smp.complex_gaussian(), spec, 2048, 31)
        coeffs = smp.sample_coeff_batch(ens, range(2048))
        k = np.arange(1, 13)
        energy = np.sum((1.0 + k * k) * np.abs(coeffs) ** 2, axis=1)
        # each term is unit-mean; per-sample sum has mean nmax and variance nmax
        assert np.mean(energy) == pytest.approx(12.0, abs=4.0 * np.sqrt(12.0 / 2048.0))

    def test_zero_spectrum_gives_zero_field(self):
        spec = smp.custom_spectrum(np.zeros(6), 6, 1)
        ens = smp.EnsembleConfig(smp.complex_gaussian(), spec, 4, 0)
        assert np.all(smp.sample_initial_field(ens, 0).coeffs == 0.0)

    def test_seed_outside_64_bits_raises(self):
        # Philox takes a 64-bit key: 2^64 would alias seed 0, and -1 seed 2^64 - 1
        assert smp.sample_coeff_batch(self.make(seed=2 ** 64 - 1), [0]).shape == (1, 6)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed must lie in"):
                smp.sample_coeff_batch(self.make(seed=seed), [0])

    def test_single_coefficient_draw(self):
        law = smp.complex_gaussian()
        g = smp.draw_noise(law, smp.sample_stream(8, 2), 1)[0]
        again = smp.draw_noise(law, smp.sample_stream(8, 2), 1)[0]
        assert isinstance(g, complex)
        assert g == again


class TestMomentReport:
    def test_gaussian_moments(self):
        rep = smp.moment_report(smp.complex_gaussian(), 100_000, seed=2024)
        assert rep.passed
        assert rep.values["abs2"].real == pytest.approx(1.0, abs=4 * rep.stderrs["abs2"])
        assert rep.values["abs4"].real == pytest.approx(2.0, abs=4 * rep.stderrs["abs4"])
        assert abs(rep.values["g4"]) <= 4 * rep.stderrs["g4"]

    def test_phase_law_unit_modulus_is_exact(self):
        rep = smp.moment_report(smp.random_phase(), 20_000, seed=9)
        assert rep.values["abs4"] == 1.0
        assert rep.stderrs["abs4"] == 0.0
        assert rep.passed

    def test_minimum_draws_enforced(self):
        with pytest.raises(ValueError):
            smp.moment_report(smp.complex_gaussian(), 100)

    def test_seed_outside_64_bits_raises(self):
        assert smp.moment_report(smp.random_phase(), 10_000, seed=2 ** 64 - 1).passed
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed must lie in"):
                smp.moment_report(smp.random_phase(), 10_000, seed=seed)

    def test_json_shape(self):
        import json
        rep = smp.moment_report(smp.random_phase(), 10_000, seed=1)
        data = json.loads(json.dumps(rep.record()))
        assert data["law"] == "random-phase"
        assert set(data["moments"]) == {"g", "g2", "g3", "g4", "abs2", "abs4", "abs2_g"}


class TestTailReport:
    def make(self, nmax=8, seed=17):
        spec = smp.build_spectrum("sobolev", 2.0, nmax, 1)
        return smp.EnsembleConfig(smp.complex_gaussian(), spec, 2, seed)

    def test_slope_negative_and_median_bracketed(self):
        ens = self.make()
        rep = smp.tail_report(ens, 50_000, s=1.0)
        assert rep.slope is not None and rep.slope < 0.0
        assert 0.5 * rep.rms_analytic <= rep.median <= 2.0 * rep.rms_analytic

    def test_zero_spectrum_all_frequencies_zero(self):
        spec = smp.custom_spectrum(np.zeros(4), 4, 1)
        ens = smp.EnsembleConfig(smp.complex_gaussian(), spec, 2, 0)
        rep = smp.tail_report(ens, 20_000, s=1.0)
        assert rep.ladder == [] and rep.omitted == 0
        assert rep.slope is None

    def test_constant_norm_has_no_tail(self):
        # unit-modulus noise gives every datum the same H^s norm up to rounding
        spec = smp.build_spectrum("sobolev", 2.0, 8, 1)
        rep = smp.tail_report(smp.EnsembleConfig(smp.random_phase(), spec, 2, 17), 20_000, s=1.0)
        assert rep.median == pytest.approx(rep.rms_analytic, rel=1e-12)
        assert rep.ladder == [] and rep.omitted == 0
        assert rep.slope is None

    def test_rung_accounting(self):
        ens = self.make()
        rep = smp.tail_report(ens, 12_000, s=0.5)
        used = sum(1 for row in rep.ladder if row[3])
        assert used + rep.omitted == len(rep.ladder)

    def test_minimum_draws_enforced(self):
        with pytest.raises(ValueError):
            smp.tail_report(self.make(), 500, s=1.0)
