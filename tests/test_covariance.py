"""Analytic G evaluation and the coupled Monte Carlo estimator."""

import json
import multiprocessing
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from wavecorr import covariance as cov
from wavecorr import dispersion as dsp
from wavecorr import field as fld
from wavecorr import sampling as smp
from wavecorr.kernels import f_kernel


def sobolev(alpha, nmax, dim=1):
    return smp.build_spectrum("sobolev", alpha, nmax, dim)


def g_rate(spectrum, model, t, monkeypatch):
    """dG/dt over the stored modes: g_table with tilde_F swapped for its time
    derivative sin(delta t)/delta = Re(-F(delta, -t)), as G is linear in the kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(cov, "tilde_f_kernel", lambda delta, t: np.real(-f_kernel(delta, -t)))
        return cov.g_table(spectrum, 2.0, model, t)[0]


class TestGEvaluator:
    def test_rate_and_total_vanish_at_time_zero(self, monkeypatch):
        spec = sobolev(3.0, 8)
        values, _ = cov.g_table(spec, 2.0, dsp.BBM, 0.0)
        assert np.all(values == 0.0)
        assert np.all(g_rate(spec, dsp.BBM, 0.0, monkeypatch) == 0.0)

    def test_gibbs_spectrum_cancels_per_triad(self):
        spec = smp.build_spectrum("bbm-gibbs", None, 16, 1)
        _, terms, corr = cov.g_terms(spec, 2.0, dsp.BBM, np.array([0.5, 2.0, 10.0]))
        assert terms.shape[0] == 3 and np.max(np.abs(terms)) <= 1e-14
        assert np.all(corr == 0.0)

    def test_constant_spectrum_cancels_for_kp(self):
        spec = smp.build_spectrum("constant", None, 5, 2)
        for model in (dsp.KPI, dsp.KPII):
            values, _ = cov.g_table(spec, 2.0, model, 3.0)
            assert np.max(np.abs(values)) <= 1e-14

    def test_derivative_matches_rate(self, monkeypatch):
        spec = sobolev(3.0, 8)
        h = 1e-5
        for t in (0.4, 1.9):
            values, _ = cov.g_table(spec, 2.0, dsp.BBM, np.array([t + h, t - h]))
            fd = (values[0] - values[1]) / (2 * h)
            rate = g_rate(spec, dsp.BBM, t, monkeypatch)
            assert np.max(np.abs(fd - rate) / (1 + np.abs(rate))) < 1e-6

    def test_total_matches_simpson_of_rate(self, monkeypatch):
        spec = sobolev(3.0, 6)
        t, panels = 1.3, 600
        taus = np.linspace(0.0, t, 2 * panels + 1)
        w = np.full(taus.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (t / panels) / 6.0
        values, _ = cov.g_table(spec, 2.0, dsp.BBM, t)
        assert w @ g_rate(spec, dsp.BBM, taus, monkeypatch) == pytest.approx(values, abs=1e-8)

    def test_kurtosis_term_changes_even_modes(self):
        spec = sobolev(3.0, 8)
        base, _ = cov.g_table(spec, 2.0, dsp.KDV, 1.0)
        phase, _ = cov.g_table(spec, 1.0, dsp.KDV, 1.0)
        assert phase[1] != pytest.approx(base[1], rel=1e-12)  # mode 2

    def test_truncation_warning_for_doubled_mode(self):
        # the modes behind predict's truncated-2n warning
        spec = sobolev(3.0, 4)
        assert cov.g_table(spec, 1.0, dsp.KDV, 1.0)[1] == [3, 4]
        assert cov.g_table(spec, 2.0, dsp.KDV, 1.0)[1] == []


class TestEnvelope:
    def test_shapes(self):
        n = np.array([1.0, 2.0, 4.0])
        assert np.allclose(cov.decay_envelope(dsp.BBM, n, 2.0, 1.0), n ** -6.0)
        assert np.allclose(cov.decay_envelope(dsp.BBM, n, 0.5, 1.0), n ** -2.0)
        assert np.allclose(cov.decay_envelope(dsp.KPII, n, 2.5, 1.0), n ** -5.0)
        assert np.allclose(cov.decay_envelope(dsp.KPI, n, 3.0, 2.0), 4.0 * n ** -4.0)

    def test_decay_fit_shell_guard(self):
        slope, shells = cov.fit_decay_slope(np.array([1.0, 2.0]), np.array([1.0, 0.1]))
        assert slope is None and shells == 2


class TestMcCovariance:
    def make_ensemble(self, samples=128, nmax=8, seed=1717):
        return smp.EnsembleConfig(smp.complex_gaussian(),
                                  smp.build_spectrum("sobolev", 3.0, nmax, 1),
                                  samples, seed)

    def test_zero_epsilon_estimates_exactly_zero(self):
        rep = cov.mc_covariance(self.make_ensemble(16), dsp.BBM, 0.0, 1.0, 1e-2)
        assert np.all(rep.estimates == 0.0)
        assert np.all(rep.stderrs == 0.0)

    def test_zero_stderr_keeps_the_sign_of_z(self):
        # at eps = 0 each estimate and stderr is exactly 0, so z = -sign(G_n) inf
        rep = cov.mc_covariance(self.make_ensemble(16, nmax=4), dsp.BBM, 0.0, 1.0, 1e-2)
        assert np.any(rep.g_pred > 0) and np.any(rep.g_pred < 0)
        assert np.array_equal(rep.zscores, np.where(rep.g_pred > 0, -np.inf, np.inf))

    def test_zero_time_estimates_exactly_zero(self):
        rep = cov.mc_covariance(self.make_ensemble(16), dsp.BBM, 0.1, 0.0, 1e-2)
        assert np.all(rep.estimates == 0.0)

    def test_negative_epsilon_is_normalized(self):
        # the eps^2 coefficient is even in eps, so a solve at -eps estimates G_n too
        rep = cov.mc_covariance(self.make_ensemble(256), dsp.BBM, -0.05, 1.0, 1e-2)
        assert cov.compare_prediction(rep).fraction_within_3 >= 0.95

    @pytest.mark.parametrize("eps", [1e-300, -1e-160, float("nan"), float("inf")])
    def test_epsilon_without_a_normal_square_raises(self, eps):
        with pytest.raises(ValueError, match="finite epsilon"):
            cov.mc_covariance(self.make_ensemble(8), dsp.BBM, eps, 1.0, 1e-2)

    def test_worker_count_invariance(self):
        ens = self.make_ensemble(96)
        r1 = cov.mc_covariance(ens, dsp.BBM, 0.1, 0.5, 5e-3, workers=1, batch_size=32)
        r2 = cov.mc_covariance(ens, dsp.BBM, 0.1, 0.5, 5e-3, workers=2, batch_size=32)
        assert np.array_equal(r1.estimates, r2.estimates)
        assert np.array_equal(r1.stderrs, r2.stderrs)
        assert r1.to_csv() == r2.to_csv()

    def test_pool_starts_no_idle_workers(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items, chunksize=1):
                return list(map(func, items))

        monkeypatch.setattr(cov.multiprocessing, "Pool", SerialPool)
        ens = self.make_ensemble(32)
        serial = cov.mc_covariance(ens, dsp.BBM, 0.1, 0.2, 1e-2, batch_size=16)
        pooled = cov.mc_covariance(ens, dsp.BBM, 0.1, 0.2, 1e-2, workers=3, batch_size=16)
        assert cov.mc_covariance(ens, dsp.BBM, 0.1, 0.2, 1e-2, workers=2,
                                 batch_size=8).used == 32
        assert sizes == [2, 2]  # 2 batches for 3 workers, then 4 batches for 2
        assert pooled.to_csv() == serial.to_csv()

    # a fresh interpreter per start method: the batch function and its bound
    # arguments are pickled to the workers, and their warnings back
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_start_method(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        script = tmp_path / "pool.py"
        script.write_text(textwrap.dedent("""
            import multiprocessing, sys, warnings
            import numpy as np
            from wavecorr import covariance as cov, dispersion as dsp, sampling as smp

            def run(workers):
                spec = smp.build_spectrum("sobolev", 3.0, 16, 1)
                ens = smp.EnsembleConfig(smp.complex_gaussian(), spec, 8, 1717)
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always")
                    # KdV nmax=16 at dt=2e-3: both batches raise the step warning
                    rep = cov.mc_covariance(ens, dsp.KDV, 0.1, 0.1, 2e-3,
                                            workers=workers, batch_size=4)
                return rep, [(r.category.__name__, str(r.message)) for r in rec]

            if __name__ == "__main__":
                multiprocessing.set_start_method(sys.argv[1])
                (serial, seen), (pooled, relayed) = run(1), run(2)
                assert np.array_equal(serial.estimates, pooled.estimates)
                assert np.array_equal(serial.stderrs, pooled.stderrs)
                assert [w for w, _ in seen] == ["StepAccuracyWarning"]
                assert relayed == seen, relayed
            """))
        proc = subprocess.run([sys.executable, str(script), method],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_zscores_reasonable_on_small_run(self):
        rep = cov.mc_covariance(self.make_ensemble(512), dsp.BBM, 0.05, 1.0, 5e-3,
                                batch_size=128)
        verdict = cov.compare_prediction(rep)
        assert verdict.fraction_within_3 >= 0.95

    def test_kurtosis_correction_is_live_in_the_estimator(self):
        # random-phase noise (E|g|^4 = 1): the coupled estimates fit the
        # kurtosis-1 prediction and visibly reject the kurtosis-2 one
        import warnings as _warnings
        spec = smp.build_spectrum("sobolev", 1.5, 16, 1, model=dsp.BBM)
        ens = smp.EnsembleConfig(smp.random_phase(), spec, 2048, 314159)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", cov.TheoryWindowWarning)
            rep = cov.mc_covariance(ens, dsp.BBM, 0.2, 2.0, 2e-3,
                                    workers=2, batch_size=256)
        assert np.max(np.abs(rep.zscores)) <= 3.0
        g_wrong, _ = cov.g_table(spec, 2.0, dsp.BBM, 2.0)
        z_wrong = (rep.estimates - g_wrong.reshape(-1)) / rep.stderrs
        assert np.max(np.abs(z_wrong)) > 4.0

    def test_all_samples_lost_raises(self):
        # a datum scale that explodes every trajectory
        spec = smp.SpectrumProfile("custom-table", None, 4, 1, np.full(4, 1e8))
        ens = smp.EnsembleConfig(smp.complex_gaussian(), spec, 8, 5)
        with pytest.raises(RuntimeError):
            cov.mc_covariance(ens, dsp.KDV, 1.0, 5.0, 0.5)

    def test_partial_exclusions_reported_and_invalidate(self, monkeypatch):
        # kill the first trajectory of the first batch; with 32 samples that
        # is >1% exclusions, so the report must be flagged invalid
        real = cov.evolve_array

        def lossy(model, eps, coeffs, dt, t, **kw):
            final, snaps, alive, blow = real(model, eps, coeffs, dt, t, **kw)
            alive = alive.copy()
            blow = blow.copy()
            if not lossy.done:
                alive[0] = False
                blow[0] = 0.5 * t
                lossy.done = True
            return final, snaps, alive, blow

        lossy.done = False
        monkeypatch.setattr(cov, "evolve_array", lossy)
        rep = cov.mc_covariance(self.make_ensemble(32), dsp.BBM, 0.1, 0.5, 1e-2)
        assert rep.used == 31
        assert rep.excluded == [(0, 0.25)]
        assert rep.invalid
        assert json.loads(rep.to_json())["excluded"] == [{"index": 0, "time": 0.25}]
        assert '"index": 0,' in rep.to_json()

    def test_theory_window_warning(self):
        with pytest.warns(cov.TheoryWindowWarning):
            cov.mc_covariance(self.make_ensemble(8), dsp.BBM, 0.5, 10.0, 0.1)

    def test_csv_and_json_are_consistent(self):
        rep = cov.mc_covariance(self.make_ensemble(32), dsp.BBM, 0.1, 0.5, 1e-2)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "mode,lambda_sq,g_pred,mc_estimate,stderr,zscore"
        assert len(lines) == 1 + 8
        payload = json.loads(rep.to_json())
        assert payload["samples"] == 32
        assert len(payload["records"]) == 8
        row1 = lines[1].split(",")
        assert float(row1[3]) == payload["records"][0]["estimate"]

    def test_csv_roundtrips_17_digits(self):
        rep = cov.mc_covariance(self.make_ensemble(32), dsp.BBM, 0.1, 0.5, 1e-2)
        row = rep.to_csv().strip().splitlines()[1].split(",")
        assert float(row[3]) == rep.estimates[0]


class TestExactExpectationOracle:
    """Quadrature expectations over the random datum, no Monte Carlo noise.

    On a two-mode lattice the expectation over the datum law is an ordinary
    integral: Gauss-Hermite in the four real Gaussian coordinates, or a
    uniform phase grid (exact for band-limited integrands) for the
    random-phase law.  With three active modes under the random-phase law,
    translations fix one phase in 1-d and two in 2-d, where the modes are a
    triad k + l = n with k and l independent: the expectation is then an
    average over the two remaining phases (1-d) or the triad phase
    theta_n - theta_k - theta_l (2-d).  Richardson extrapolation in eps
    strips the cubic and quartic remainders, exposing the eps^2 coefficient
    of the coupled statistic, which must equal the analytic correction.
    Every datum row at every eps is one row of a single solve.
    """

    t = 1.0
    eps = np.array([0.1, 0.05, 0.025])
    nmax, dt = 2, 5e-3
    lam = np.array([0.9, 0.6])

    def _extrapolate(self, model, a, weights, dt):
        """Richardson's eps^2 coefficient of sum_r weights[r] (|v|^2 - |a|^2)(a[r])."""
        from wavecorr.solver import evolve_array
        final, _, alive, _ = evolve_array(model, self.eps[:, None],
                                          np.broadcast_to(a, self.eps.shape + a.shape), dt, self.t)
        assert bool(np.all(alive))
        stat = np.moveaxis(np.abs(final) ** 2 - np.abs(a) ** 2, 1, -1) @ weights
        d1, d2, d3 = (s / e ** 2 for s, e in zip(stat, self.eps))
        return (d1 - 6.0 * d2 + 8.0 * d3) / 3.0

    def _gauss_expectation(self, pts=10):
        from numpy.polynomial.hermite_e import hermegauss
        x, w = hermegauss(pts)
        w = w / np.sqrt(2.0 * np.pi)
        X = np.stack(np.meshgrid(x, x, x, x, indexing="ij"), axis=-1).reshape(-1, 4)
        W = (w[:, None, None, None] * w[None, :, None, None]
             * w[None, None, :, None] * w[None, None, None, :]).reshape(-1)
        a = np.stack([(X[:, 0] + 1j * X[:, 1]) / np.sqrt(2.0) * self.lam[0],
                      (X[:, 2] + 1j * X[:, 3]) / np.sqrt(2.0) * self.lam[1]], axis=-1)
        return self._extrapolate(dsp.BBM, a, W, self.dt)

    def _phase_expectation(self, pts=24):
        th = 2.0 * np.pi * np.arange(pts) / pts
        t1, t2 = np.meshgrid(th, th, indexing="ij")
        a = np.stack([np.exp(1j * t1.ravel()) * self.lam[0],
                      np.exp(1j * t2.ravel()) * self.lam[1]], axis=-1)
        return self._extrapolate(dsp.BBM, a, np.full(len(a), 1.0 / len(a)), self.dt)

    @pytest.mark.parametrize("kurtosis,expectation",
                             [(2.0, "_gauss_expectation"), (1.0, "_phase_expectation")])
    def test_g_formula_matches_exact_expectation(self, kurtosis, expectation):
        # mode 2 doubles to 4, outside nmax=2: the two-mode dynamics lack that term too
        spec = smp.SpectrumProfile("custom-table", None, self.nmax, 1, self.lam)
        g_pred, _ = cov.g_table(spec, kurtosis, dsp.BBM, self.t)
        extrapolated = getattr(self, expectation)()
        assert np.max(np.abs(extrapolated - g_pred) / np.abs(g_pred)) < 1e-4

    # the largest error over the stored modes, relative to the largest |G_n|, read
    # 1.1e-5 (KdV), 2.5e-7 (BBM), 4.2e-6 (KP-II) and 3.3e-5 (KP-I)
    @pytest.mark.parametrize("model,dt", [(dsp.KDV, 1e-3), (dsp.BBM, 2e-3),
                                          (dsp.KPII, 1e-3), (dsp.KPI, 1e-3)],
                             ids=["kdv", "bbm", "kpii", "kpi"])
    def test_three_active_modes_match_g(self, model, dt):
        dim, nmax = model.dimension, 8
        modes = [1, 2, 3] if dim == 1 else [(1, 2), (2, -1), (3, 1)]
        amplitudes = np.array([0.5, 0.4, 0.3])
        th = 2.0 * np.pi * np.arange(6) / 6
        free = [th, th] if dim == 1 else [th]
        phases = np.stack(np.meshgrid(*[0.0] * (3 - len(free)), *free, indexing="ij"),
                          axis=-1).reshape(-1, 3)
        a = np.stack([fld.field_from_modes(dim, nmax, dict(zip(modes, amplitudes * np.exp(1j * p))))
                      .coeffs for p in phases])
        spec = smp.SpectrumProfile("custom-table", None, nmax, dim, np.abs(a[0]))
        g_pred, _ = cov.g_table(spec, 1.0, model, self.t)
        extrapolated = self._extrapolate(model, a, np.full(len(a), 1.0 / len(a)), dt)
        assert np.max(np.abs(extrapolated - g_pred)) < 1e-4 * np.max(np.abs(g_pred))


class TestComparePrediction:
    def test_all_zero_case_passes(self):
        ens = smp.EnsembleConfig(smp.complex_gaussian(),
                                 smp.build_spectrum("bbm-gibbs", None, 8, 1), 16, 3)
        rep = cov.mc_covariance(ens, dsp.BBM, 0.0, 1.0, 1e-2)
        rep.g_pred = np.zeros_like(rep.g_pred)
        rep.zscores = np.where(rep.stderrs == 0,
                               np.where(rep.estimates == rep.g_pred, 0.0, np.inf),
                               rep.zscores)
        verdict = cov.compare_prediction(rep)
        assert verdict.fraction_within_3 == 1.0

    def test_decay_fit_against_explicit_regularity(self):
        ens = smp.EnsembleConfig(smp.complex_gaussian(),
                                 smp.build_spectrum("sobolev", 3.0, 16, 1), 16, 3)
        rep = cov.mc_covariance(ens, dsp.BBM, 0.05, 1.0, 5e-3)
        verdict = cov.compare_prediction(rep)  # declared s = 2.5 - 0.5
        assert verdict.decay_slope is not None
        assert verdict.decay_bound == -5.5
        assert verdict.decay_ok

    def test_decay_fit_skipped_when_too_few_shells(self):
        ens = smp.EnsembleConfig(smp.complex_gaussian(),
                                 smp.build_spectrum("sobolev", 3.0, 4, 1), 16, 3)
        rep = cov.mc_covariance(ens, dsp.BBM, 0.0, 1.0, 1e-2)
        rep.g_pred = np.zeros_like(rep.g_pred)  # no positive magnitudes at all
        verdict = cov.compare_prediction(rep)
        assert verdict.decay_slope is None
