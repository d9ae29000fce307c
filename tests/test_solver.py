"""Dealiased products, the interaction-picture right-hand side, and RK4."""

import itertools
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wavecorr import dispersion as dsp
from wavecorr import field as fld
from wavecorr import solver as slv


def steep_field(dim, nmax, seed, rate=0.8, scale=1.0):
    rng = np.random.default_rng(seed)
    shape = dsp.stored_shape(dim, nmax)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return fld.SpectralField(nmax, scale * np.exp(-rate * dsp.mode_l1(dim, nmax)) * z / np.sqrt(2))


def brute_square(f):
    """Direct convolution sum over the truncated lattice."""
    nm, dim = f.nmax, f.dimension
    dense = fld.full_array(f)
    out = {}
    for mode in dsp.mode_list(dim, nm):
        tup = (mode,) if dim == 1 else mode
        total = 0.0 + 0.0j
        for kc in itertools.product(range(-nm, nm + 1), repeat=dim):
            lc = tuple(a - b for a, b in zip(tup, kc))
            if kc[0] == 0 or lc[0] == 0 or any(abs(c) > nm for c in lc):
                continue
            total += dense[tuple(c + nm for c in kc)] * dense[tuple(c + nm for c in lc)]
        out[mode] = total
    return out


class TestDealiasedSquare:
    def test_two_cosine_example(self):
        # (2 cos x)^2 = 2 + 2 cos 2x: mode 2 coefficient 1; the constant is
        # not representable and is annihilated by J anyway
        f = fld.field_from_modes(1, 4, {1: 1.0})
        sq = slv.dealiased_square(f)
        assert fld.coefficient(sq, 2) == pytest.approx(1.0, abs=1e-14)
        assert fld.coefficient(sq, 1) == pytest.approx(0.0, abs=1e-14)
        assert fld.coefficient(sq, 3) == pytest.approx(0.0, abs=1e-14)

    def test_zero_field(self):
        assert np.all(slv.dealiased_square(fld.field_from_modes(2, 3, {})).coeffs == 0.0)

    # 3*nmax + 1 is itself 5-smooth at nmax = 3, 5, 8, where the padded grid
    # has its minimum length; the top mode's square (mode 2*nmax) must not
    # wrap onto a stored mode, which it would on 3*nmax points
    @pytest.mark.parametrize("dim,nmax,modes", [
        *(pytest.param(1, n, None, id=f"1-{n}") for n in range(1, 11)),
        *(pytest.param(2, n, None, id=f"2-{n}") for n in range(1, 9)),
        pytest.param(1, 5, {5: 1.0}, id="1-5-top-mode")])
    def test_convolution_oracle(self, dim, nmax, modes):
        if modes is None:
            f, tol = steep_field(dim, nmax, seed=10, rate=0.3), 1e-13
        else:
            f, tol = fld.field_from_modes(dim, nmax, modes), 1e-14
        sq = slv.dealiased_square(f)
        ref = brute_square(f)
        worst = max(abs(fld.coefficient(sq, mode) - ref[mode]) for mode in ref)
        assert worst < tol

    def test_padding_removes_aliasing(self):
        # modes 3+4 = 7 would wrap to -2 on an unpadded 9-point grid
        f = fld.field_from_modes(1, 4, {3: 1.0, 4: 1.0})
        exact = slv.dealiased_square(f)
        assert fld.coefficient(exact, 2) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("nmax", [1, 2, 3, 4])
    def test_2d_batch_rows_bitwise_and_contiguous(self, nmax):
        batch = np.stack([steep_field(2, nmax, seed=30 + s, rate=0.3).coeffs
                          for s in range(6)]).reshape((2, 3) + dsp.stored_shape(2, nmax))
        out = slv._squarer(2, nmax, (2, 3))(batch, 1.0)
        assert out.shape == batch.shape and out.flags.c_contiguous
        for i, j in itertools.product(range(2), range(3)):
            alone = slv.dealiased_square(fld.SpectralField(nmax, batch[i, j]))
            assert alone.coeffs.flags.c_contiguous
            assert np.array_equal(out[i, j], alone.coeffs)

    @pytest.mark.parametrize("dim,nmax", [(1, 8), (2, 4)])
    def test_squarer_writes_each_square_into_its_buffers(self, dim, nmax):
        # the second call's square overwrites the first's: no call allocates its result
        square = slv._squarer(dim, nmax, (3,))
        results = []
        for call in range(2):
            batch = np.stack([steep_field(dim, nmax, seed=40 + 3 * call + s, rate=0.3).coeffs
                              for s in range(3)])
            results.append(square(batch, 1.0))
            for row, out in zip(batch, results[-1]):
                alone = slv.dealiased_square(fld.SpectralField(nmax, row))
                assert np.array_equal(out, alone.coeffs)
        assert np.shares_memory(*results)


class TestNonlinearRhs:
    def test_zero_epsilon(self):
        f = steep_field(1, 6, seed=1)
        out = slv.interaction_rhs(dsp.KDV, 6)(0.0, 0.3, f.coeffs)
        assert np.all(out == 0.0)

    def test_time_zero_matches_minus_eps_j_square(self):
        f = steep_field(2, 3, seed=2)
        got = slv.interaction_rhs(dsp.KPII, 3)(0.25, 0.0, f.coeffs)
        ref = 1j * dsp.phi_grid(dsp.KPII, 3) * slv.dealiased_square(f).coeffs
        assert np.max(np.abs(got + 0.25 * ref)) < 1e-14

    @pytest.mark.parametrize("model", [dsp.KDV, dsp.KPI], ids=["kdv", "kpi"])
    def test_time_per_row_matches_scalar_calls(self, model):
        # picard's Simpson quadrature passes one time per batch row
        dim = model.dimension
        nm = 5 if dim == 1 else 3
        rhs = slv.interaction_rhs(model, nm)
        v = np.stack([steep_field(dim, nm, seed=40 + s, rate=0.3).coeffs for s in range(4)])
        t = np.array([0.0, 0.15, 0.7, 2.5]).reshape((-1,) + (1,) * dim)
        rows, shared = rhs(0.3, t, v), rhs(0.3, t, v[1])
        for r in range(4):
            assert np.array_equal(rows[r], rhs(0.3, t[r].item(), v[r]))
            assert np.array_equal(shared[r], rhs(0.3, t[r].item(), v[1]))

    @pytest.mark.parametrize("model", [dsp.KDV, dsp.BBM, dsp.KPII, dsp.KPI])
    def test_modewise_triad_sum(self, model):
        # -i eps phi(n) sum_(k+l=n) v_k v_l e^(i delta t), summed by brute force
        dim = model.dimension
        nm = 4 if dim == 1 else 3
        f = steep_field(dim, nm, seed=3, rate=0.3)
        eps, t = 0.7, 0.4
        out = f.with_coeffs(slv.interaction_rhs(model, nm)(eps, t, f.coeffs))
        dense = fld.full_array(f)
        om, ph = dsp.omega_full(model, nm), dsp.phi_full(model, nm)
        worst = 0.0
        for mode in dsp.mode_list(dim, nm):
            tup = (mode,) if dim == 1 else mode
            total = 0.0 + 0.0j
            for kc in itertools.product(range(-nm, nm + 1), repeat=dim):
                lc = tuple(a - b for a, b in zip(tup, kc))
                if kc[0] == 0 or lc[0] == 0 or any(abs(c) > nm for c in lc):
                    continue
                k, l, n = (tuple(c + nm for c in m) for m in (kc, lc, tup))
                d = om[k] + om[l] - om[n]
                total += dense[k] * dense[l] * np.exp(1j * d * t)
            expected = -1j * eps * ph[tuple(c + nm for c in tup)] * total
            worst = max(worst, abs(fld.coefficient(out, mode) - expected))
        assert worst < 1e-12


def solve(model, eps, u0, dt, t_final, **kwargs):
    """The interaction-picture field v at t_final of one trajectory from `u0`."""
    final, _, alive, _ = slv.evolve_array(model, eps, u0.coeffs, dt, t_final, **kwargs)
    assert alive
    return u0.with_coeffs(final)


def classical_rk4(model, eps, coeffs, dt, t_start, times):
    """RK4 through interaction_rhs with exp(i omega t) at every stage time.

    The same segments and steps as `evolve_array`: returns v at each of
    `times` (increasing, after t_start).
    """
    rhs = slv.interaction_rhs(model, coeffs.shape[0])
    v, t_seg, out = coeffs.astype(complex), t_start, []
    for target in times:
        nsteps = slv.step_count(target - t_seg, dt)
        h = (target - t_seg) / nsteps
        for i in range(nsteps):
            t = t_seg + i * h
            k1 = rhs(eps, t, v)
            k2 = rhs(eps, t + 0.5 * h, v + (0.5 * h) * k1)
            k3 = rhs(eps, t + 0.5 * h, v + (0.5 * h) * k2)
            k4 = rhs(eps, t + h, v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(v)
        t_seg = target
    return out


class TestEvolve:
    # the stepper takes its phases by recurrence from exps taken once per segment; the
    # scheme is still classical RK4 at the stage times, to rounding
    @pytest.mark.parametrize("model,nmax", [(dsp.KDV, 4), (dsp.BBM, 4), (dsp.KPI, 3),
                                            (dsp.KPII, 3)], ids=["kdv", "bbm", "kpi", "kpii"])
    def test_matches_classical_rk4(self, model, nmax):
        u0 = steep_field(model.dimension, nmax, seed=17, rate=0.3)
        t_start, times, dt = 0.3, (0.95, 1.6), 1e-3  # 650 + 650 steps
        _, snaps, alive, _ = slv.evolve_array(model, 0.5, u0.coeffs, dt, times[-1],
                                              snapshot_times=times, t_start=t_start)
        assert alive and [t for t, _ in snaps] == list(times)
        for (_, got), ref in zip(snaps, classical_rk4(model, 0.5, u0.coeffs, dt,
                                                      t_start, times)):
            assert np.max(np.abs(ref - u0.coeffs)) > 1e-3  # the nonlinearity acts
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_free_evolution_is_exact(self):
        f = steep_field(1, 8, seed=4)
        v = solve(dsp.KDV, 0.0, f, 0.01, 0.7)
        assert np.array_equal(v.coeffs, f.coeffs)
        ref = fld.apply_semigroup(dsp.KDV, f, 0.7)
        assert np.allclose(fld.apply_semigroup(dsp.KDV, v, 0.7).coeffs, ref.coeffs,
                           rtol=0, atol=0)

    def test_rk4_order(self):
        u0 = steep_field(1, 12, seed=5, rate=0.6, scale=4.0)
        ref = solve(dsp.BBM, 1.0, u0, 5e-4, 0.5).coeffs
        errs = []
        for dt in (2e-2, 1e-2):
            v = solve(dsp.BBM, 1.0, u0, dt, 0.5).coeffs
            errs.append(np.linalg.norm(v - ref))
        order = np.log2(errs[0] / errs[1])
        assert 3.5 <= order <= 4.5

    def test_requested_times_hit_exactly(self):
        u0 = steep_field(1, 6, seed=6)
        final, snaps, _, _ = slv.evolve_array(dsp.BBM, 0.5, u0.coeffs, 1e-2, 1.0,
                                              snapshot_times=(0.0, 0.35, 1.0))
        times = [t for t, _ in snaps]
        assert times == [0.0, 0.35, 1.0]
        assert np.array_equal(snaps[0][1], u0.coeffs)
        assert np.array_equal(snaps[-1][1], final)

    def test_segmented_solve_consistent(self):
        u0 = steep_field(1, 6, seed=12)
        plain = solve(dsp.BBM, 1.0, u0, 1e-2, 1.0)
        snapped = solve(dsp.BBM, 1.0, u0, 1e-2, 1.0, snapshot_times=(0.4,))
        assert np.max(np.abs(plain.coeffs - snapped.coeffs)) < 1e-9

    def test_blow_up_reports_time(self):
        u0 = steep_field(1, 8, seed=7, rate=0.0, scale=1e8)
        with pytest.warns(slv.StepAccuracyWarning):
            _, _, alive, blow = slv.evolve_array(dsp.KDV, 1.0, u0.coeffs, 0.5, 10.0)
        assert not alive
        assert 0.0 < blow <= 10.0

    # a dead row is zeroed, but an eps whose multiplier is not finite turns that zero
    # back into nan at every step: the blow-up time stays the first one
    @pytest.mark.parametrize("eps", [np.inf, 1e308])
    def test_blow_up_time_is_the_first(self, eps):
        batch = np.stack([steep_field(1, 4, seed=s).coeffs for s in (24, 25)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", slv.StepAccuracyWarning)
            _, _, alive, blow = slv.evolve_array(dsp.KDV, eps, batch, 0.1, 0.5)
        assert not alive.any()
        assert blow.tolist() == [0.1, 0.1]

    def test_validation(self):
        u0 = steep_field(1, 4, seed=13)
        slv.evolve_array(dsp.KDV, 0.0, u0.coeffs, 2.0, 1.0)  # one shortened step
        slv.evolve_array(dsp.KDV, 0.0, u0.coeffs, 0.1, 0.0)
        for dt in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be a positive finite number"):
                slv.evolve_array(dsp.KDV, 0.0, u0.coeffs, dt, 1.0)
        with pytest.raises(ValueError, match="precedes t_start"):
            slv.evolve_array(dsp.KDV, 0.0, u0.coeffs, 0.1, -1.0)
        with pytest.raises(ValueError, match="precedes t_start"):
            slv.evolve_array(dsp.KDV, 0.0, u0.coeffs, 0.1, 0.5, t_start=1.0)
        batch = np.stack([u0.coeffs] * 2)
        for eps, rows in (([0.1, 0.2, 0.3], "(3,)"), ([[0.1], [0.2]], "(2, 1)")):
            with pytest.raises(ValueError, match=re.escape(f"eps of shape {rows} does not "
                                                           "broadcast to the batch shape (2,)")):
                slv.evolve_array(dsp.KDV, eps, batch, 0.1, 1.0)
        with pytest.raises(ValueError, match=re.escape("shape (2,) does not broadcast to the "
                                                       "batch shape ()")):
            slv.evolve_array(dsp.KDV, [0.1, 0.2], u0.coeffs, 0.1, 1.0)

    @pytest.mark.parametrize("t_start,t_final", [(0.0, np.nan), (0.0, np.inf),
                                                 (np.nan, 1.0), (-np.inf, 1.0)])
    def test_non_finite_times_rejected(self, t_start, t_final):
        u0 = steep_field(1, 4, seed=13)
        with pytest.raises(ValueError, match="times must be finite"):
            slv.evolve_array(dsp.KDV, 0.1, u0.coeffs, 0.1, t_final, t_start=t_start)

    def test_nan_snapshot_time_rejected(self):
        u0 = steep_field(1, 4, seed=13)
        with pytest.raises(ValueError, match="snapshot time nan outside"):
            slv.evolve_array(dsp.KDV, 0.1, u0.coeffs, 0.1, 1.0, snapshot_times=[np.nan, 0.5])

    def test_step_count_is_the_steps_taken(self, monkeypatch):
        # 2.1 / 0.3 rounds to 7.000000000000001, which is still 7 steps
        taken, real = [], slv._rk4_step

        def counted(rhs, eps, h, *rest):
            taken.append(h)
            return real(rhs, eps, h, *rest)

        monkeypatch.setattr(slv, "_rk4_step", counted)
        u0 = steep_field(1, 4, seed=13)
        slv.evolve_array(dsp.BBM, 0.1, u0.coeffs, 0.3, 2.1)
        assert len(taken) == slv.step_count(2.1, 0.3) == 7
        assert max(taken) <= 0.3
        slv.evolve_array(dsp.BBM, 0.1, u0.coeffs, 0.3, 0.0)
        assert len(taken) == 7 and slv.step_count(0.0, 0.3) == 0

    def test_step_count_overflow_raises(self):
        for span, dt in ((1.0, 5e-324), (1e308, 2e-3)):
            with pytest.raises(ValueError, match="no finite step count"):
                slv.step_count(span, dt)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="stored lattice"):
            slv.evolve_array(dsp.KPI, 0.1, fld.field_from_modes(1, 4, {}).coeffs, 0.1, 1.0)
        batch = np.stack([steep_field(1, 4, seed=s).coeffs for s in (14, 15, 16)])
        with pytest.raises(ValueError, match="stored lattice"):
            slv.evolve_array(dsp.KPI, 0.1, batch, 0.1, 1.0)

    def test_step_warning_for_coarse_dt(self):
        u0 = steep_field(1, 16, seed=8)
        with pytest.warns(slv.StepAccuracyWarning):
            solve(dsp.KDV, 0.5, u0, 0.05, 0.1)
        with warnings.catch_warnings():  # free evolution has no phase to resolve
            warnings.simplefilter("error", slv.StepAccuracyWarning)
            solve(dsp.KDV, 0.0, u0, 0.05, 0.1)

    def test_step_warning_reads_the_step_taken(self):
        # a span shorter than dt is one step of that span, and 0.99 * 3 / 416
        # resolves KP-II nmax=8
        u0 = steep_field(2, 8, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", slv.StepAccuracyWarning)
            solve(dsp.KPII, 0.1, u0, 1.0, 0.99 * 3.0 / 416.0)

    # KP-II nmax=8: the largest triad divisor is |delta| = 416
    @pytest.mark.parametrize("factor,warns", [(0.99, False), (1.01, True)])
    def test_step_warning_threshold_is_exact(self, factor, warns):
        assert dsp.max_abs_delta(dsp.KPII, 8) == 416.0
        u0 = steep_field(2, 8, seed=9)
        dt = factor * 3.0 / 416.0
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            solve(dsp.KPII, 0.1, u0, dt, dt)
        flagged = [r for r in rec if issubclass(r.category, slv.StepAccuracyWarning)]
        assert len(flagged) == int(warns)
        if warns:
            assert "max |delta| = 416" in str(flagged[0].message)


def solve_faults(dim, nmax, rows, model, eps, dt, t_final, instrumented=False):
    """Minor page faults of one evolve_array call on `rows` sampled data, in a fresh
    interpreter (after the import and the sampling).  `instrumented` first sets
    glibc's mmap threshold to 1 MB and its trim threshold to 1 GB in that
    interpreter, so each block of 1 MB or more that the solve allocates is mapped
    and faulted in fresh, while smaller ones (numpy's ufunc buffers among them)
    reuse the heap."""
    instrument = """
        import ctypes  # -3 is M_MMAP_THRESHOLD, -1 M_TRIM_THRESHOLD
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        assert mallopt(-3, 1 << 20) == 1 and mallopt(-1, 1 << 30) == 1""" if instrumented else ""
    script = f"""if True:{instrument}
        import resource
        from wavecorr import dispersion, sampling, solver
        spec = sampling.build_spectrum("sobolev", 3.0, {nmax}, {dim})
        ens = sampling.EnsembleConfig(sampling.complex_gaussian(), spec, {rows}, 1)
        a = sampling.sample_coeff_batch(ens, range({rows}))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        solver.evolve_array(dispersion.{model}, {eps}, a, {dt}, {t_final})
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


glibc_instrument = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the fault instrument is glibc's")


@glibc_instrument
def test_library_solve_keeps_its_heap_pages():
    # glibc's default allocator, as a library caller gets it: every stage writes
    # into buffers of its solve, so no step hands pages back to the OS and faults
    # them in again (about 40,700 minor faults for this solve when both 1-d FFTs
    # allocated their outputs)
    assert solve_faults(1, 32, 256, "BBM", 0.05, 0.01, 1.0) < 1000


@glibc_instrument
def test_1d_batch_solve_keeps_its_heap_pages():
    # the 1-d FFTs write into buffers of the solve; either transform allocating its
    # 1.6 MB result would fault it in at every stage (about 34,700 faults for these
    # 20 steps, against about 2,700 for the buffers' first touch)
    assert solve_faults(1, 64, 1024, "BBM", 0.05, 0.01, 0.2, instrumented=True) < 10000


@glibc_instrument
def test_2d_batch_solve_keeps_its_heap_pages():
    # every stage of a 2-d batch writes into buffers of its solve; a product that
    # allocated its 1.6 MB grid would fault it in at every stage (about 33,900
    # faults for these 20 steps, against about 1,900 for the buffers' first touch)
    assert solve_faults(2, 12, 128, "KPII", 0.05, 5e-4, 1e-2, instrumented=True) < 6000


class TestConservedFunctional:
    def test_bbm_example(self):
        f = fld.field_from_modes(1, 2, {1: 1.0})
        assert slv.conserved_functional(dsp.BBM, f) == 4.0

    def test_zero_field(self):
        assert slv.conserved_functional(dsp.KPI, fld.field_from_modes(2, 3, {})) == 0.0

    @pytest.mark.parametrize("model,dim", [(dsp.BBM, 1), (dsp.KDV, 1), (dsp.KPII, 2)])
    def test_drift_small_along_trajectory(self, model, dim):
        u0 = steep_field(dim, 8 if dim == 1 else 6, seed=9)
        dt = 1e-3 if dim == 1 else 5e-4
        v = solve(model, 0.5, u0, dt, 0.5)
        e0 = slv.conserved_functional(model, u0)
        e1 = slv.conserved_functional(model, fld.apply_semigroup(model, v, 0.5))
        assert abs(e1 - e0) / e0 < 1e-8

    def test_invariant_equals_interaction_picture_value(self):
        # the semigroup preserves moduli, so the functional reads off v directly
        u0 = steep_field(1, 8, seed=11)
        v = solve(dsp.BBM, 0.5, u0, 1e-2, 1.0)
        assert slv.conserved_functional(dsp.BBM, fld.apply_semigroup(dsp.BBM, v, 1.0)) == \
            pytest.approx(slv.conserved_functional(dsp.BBM, v), rel=1e-14)

    def test_drift_converges_at_fourth_order(self):
        u0 = steep_field(1, 12, seed=5, rate=0.6, scale=4.0)
        e0 = slv.conserved_functional(dsp.BBM, u0)
        dts = (4e-2, 2e-2, 1e-2, 5e-3)
        drifts = []
        for dt in dts:
            v = solve(dsp.BBM, 1.0, u0, dt, 1.0)
            e1 = slv.conserved_functional(dsp.BBM, fld.apply_semigroup(dsp.BBM, v, 1.0))
            drifts.append(abs(e1 - e0) / e0)
        slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
        assert slope >= 3.7


class TestTruncationIndependence:
    def test_doubled_resolution_agrees_for_steep_data(self):
        # datum supported on modes <= 4 with analytic decay: the nmax=8 run
        # matches the nmax=16 run to the integrator tolerance
        rng = np.random.default_rng(5)
        z = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) \
            * np.exp(-2.5 * np.arange(1, 5))
        lo = np.zeros(8, dtype=complex)
        lo[:4] = z
        hi = np.zeros(16, dtype=complex)
        hi[:4] = z
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", slv.StepAccuracyWarning)
            s8 = solve(dsp.KDV, 0.3, fld.SpectralField(8, lo), 1e-3, 0.2)
            s16 = solve(dsp.KDV, 0.3, fld.SpectralField(16, hi), 1e-3, 0.2)
            ref = solve(dsp.KDV, 0.3, fld.SpectralField(8, lo), 5e-4, 0.2)
        trunc = np.max(np.abs(s8.coeffs - s16.coeffs[:8]))
        integ = np.max(np.abs(s8.coeffs - ref.coeffs))
        assert trunc <= max(10.0 * integ, 1e-12)


class TestBatchedCore:
    def test_batch_rows_match_single_runs(self):
        # a scalar eps for the whole batch, and one eps per row of a 2 x 2 batch
        u0a = steep_field(1, 6, seed=20)
        u0b = steep_field(1, 6, seed=21)
        batch = np.stack([u0a.coeffs, u0b.coeffs])
        final, _, alive, _ = slv.evolve_array(dsp.BBM, 0.3, batch, 1e-2, 0.5)
        sa = solve(dsp.BBM, 0.3, u0a, 1e-2, 0.5)
        sb = solve(dsp.BBM, 0.3, u0b, 1e-2, 0.5)
        assert np.array_equal(final[0], sa.coeffs)
        assert np.array_equal(final[1], sb.coeffs)
        assert alive.all()
        eps = np.array([[0.3, 0.7], [0.05, 0.3]])
        final, _, alive, _ = slv.evolve_array(dsp.BBM, eps, np.stack([batch, batch[::-1]]),
                                              1e-2, 0.5)
        assert alive.all()
        for (i, j), u0 in zip(np.ndindex(2, 2), (u0a, u0b, u0b, u0a)):
            assert np.array_equal(final[i, j], solve(dsp.BBM, eps[i, j], u0, 1e-2, 0.5).coeffs)

    # run.batch's default; each stacked row of the 2-d square's products is
    # one GEMM of its own, at every batch size, and takes its own eps
    @pytest.mark.parametrize("model,nmax", [(dsp.KPI, 16), (dsp.KPII, 3)], ids=["kpi", "kpii"])
    def test_2d_batch_of_128_rows_solves_bitwise_alone(self, model, nmax):
        batch = np.stack([steep_field(2, nmax, seed=100 + s, rate=0.3).coeffs
                          for s in range(128)])
        eps = np.linspace(0.1, 0.9, 128)
        final, _, alive, _ = slv.evolve_array(model, eps, batch, 5e-4, 1e-3)
        assert alive.all()
        for row in range(batch.shape[0]):
            alone, _, _, _ = slv.evolve_array(model, eps[row], batch[row], 5e-4, 1e-3)
            assert np.array_equal(final[row], alone), row

    @staticmethod
    def check_dead_row_isolated(model, nmax, seeds):
        # a steep row beside a huge one: the huge row dies, reports its time and is
        # zeroed, and the steep row solves bitwise as it does alone
        good = steep_field(model.dimension, nmax, seed=seeds[0])
        bad = steep_field(model.dimension, nmax, seed=seeds[1], rate=0.0, scale=1e8)
        batch = np.stack([good.coeffs, bad.coeffs])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", slv.StepAccuracyWarning)
            final, _, alive, blow = slv.evolve_array(model, 1.0, batch, 0.05, 1.0)
            single = solve(model, 1.0, good, 0.05, 1.0)
        assert alive.tolist() == [True, False]
        assert np.isfinite(blow[1]) and np.isnan(blow[0])
        assert np.all(final[1] == 0.0)
        assert np.array_equal(final[0], single.coeffs)

    def test_partial_blow_up_isolated(self):
        self.check_dead_row_isolated(dsp.KDV, 6, (22, 23))

    def test_2d_partial_blow_up_isolated(self):
        self.check_dead_row_isolated(dsp.KPII, 3, (26, 27))

    # every array a solve returns is its own, the caller's datum is left as it was,
    # and a snapshot holds the state at its time, not a view of the state that went on
    @pytest.mark.parametrize("model,nmax", [(dsp.BBM, 6), (dsp.KPI, 3)], ids=["bbm", "kpi"])
    def test_returned_arrays_are_independent(self, model, nmax):
        dim = model.dimension
        batch = np.stack([steep_field(dim, nmax, seed=50 + s, rate=0.3).coeffs
                          for s in range(3)])
        datum = batch.copy()
        times = (0.0, 0.05, 0.1)
        final, snaps, alive, blow = slv.evolve_array(model, 0.5, batch, 1e-2, 0.15,
                                                     snapshot_times=times)
        assert np.array_equal(batch, datum)
        assert [t for t, _ in snaps] == list(times)
        for j, (t, got) in enumerate(snaps):
            alone = slv.evolve_array(model, 0.5, datum, 1e-2, t, snapshot_times=times[:j + 1])[0]
            assert np.array_equal(got, alone), t
        assert not np.array_equal(snaps[-1][1], final)
        returned = [final, alive, blow] + [a for _, a in snaps]
        for x, y in itertools.combinations(returned, 2):
            assert not np.shares_memory(x, y)
        assert not any(np.shares_memory(batch, x) for x in returned)
