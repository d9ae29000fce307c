"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full suite finishes in a few minutes on a desktop (the coupled
Monte Carlo confirmation dominates).  Every tolerance is pinned here.
"""

from fractions import Fraction

import numpy as np
import pytest

from wavecorr import covariance as cov
from wavecorr import dispersion as dsp
from wavecorr import field as fld
from wavecorr import picard as pic
from wavecorr import sampling as smp
from wavecorr import solver as slv


def verdict(num, title, passed, detail):
    print(f"[acceptance {num}] {title}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} failed: {detail}"


def decaying_datum(dim, nmax, seed, rate, scale=1.0):
    rng = np.random.default_rng(seed)
    shape = dsp.stored_shape(dim, nmax)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amp = scale * np.exp(-rate * dsp.mode_l1(dim, nmax))
    return fld.SpectralField(nmax, amp * z / np.sqrt(2.0))


def test_1_triad_exactness():
    """Exhaustive triad checks: KP at nmax=8 (2-d), KdV/BBM at nmax=16 (1-d)."""
    def deltas(model, nmax):  # every triad's delta from the flat omega table
        om = dsp.omega_full(model, nmax).ravel()
        n, k, l = dsp.enumerate_triads(model.dimension, nmax)
        return om[k] + om[l] - om[n]

    full = dsp.full_modes(2, 8)
    n2, k2, l2 = (full[i] for i in dsp.enumerate_triads(2, 8))
    d_kpii = deltas(dsp.KPII, 8)
    ratio = np.abs(d_kpii) / dsp.kpii_delta_bound(n2, k2, l2)
    kpii_ok = bool(np.all(ratio >= 1.0 - 1e-12))
    # near-unit ratios re-verified in exact rational arithmetic
    for i in np.nonzero(ratio < 1.0 + 1e-9)[0]:
        exact = dsp.delta_exact(dsp.KPII, tuple(n2[i]), tuple(k2[i]), tuple(l2[i]))
        bound = 3 * abs(int(n2[i][0]) * int(k2[i][0]) * int(l2[i][0]))
        kpii_ok = kpii_ok and abs(exact) >= bound

    d_kpi = deltas(dsp.KPI, 8)
    ref = dsp.kp_delta_factored(dsp.KPI, n2, k2, l2)
    kpi_rel = float(np.max(np.abs(d_kpi - ref) / np.abs(ref)))
    pell_ok = dsp.delta_exact(dsp.KPI, (8, 15), (1, 14), (7, 1)) == Fraction(1, 56)

    full = dsp.full_modes(1, 16)
    n1, k1, l1 = (full[i] for i in dsp.enumerate_triads(1, 16))
    d_bbm = deltas(dsp.BBM, 16)
    mag = np.abs(dsp.bbm_delta_factored(n1[:, 0], k1[:, 0], l1[:, 0]))
    bbm_min = float(np.min(np.abs(d_bbm)))
    bbm_rel = float(np.max(np.abs(np.abs(d_bbm) - mag) / mag))

    passed = (kpii_ok and kpi_rel <= 1e-12 and pell_ok
              and bbm_min > 0.0 and bbm_rel <= 1e-12)
    verdict(1, "triad exactness", passed,
            f"{len(n2)} 2-d + {len(n1)} 1-d triads; KP-II min ratio "
            f"{float(ratio.min()):.3f}, KP-I factored rel {kpi_rel:.2e}, "
            f"BBM min|delta| {bbm_min:.3f} rel {bbm_rel:.2e}, Pell 1/56 exact")


def test_2_picard_oracle_equivalence():
    """Closed-form b against Simpson quadrature, all models, nmax=16."""
    worst = 0.0
    details = []
    for model in (dsp.KDV, dsp.BBM, dsp.KPII, dsp.KPI):
        u0 = decaying_datum(model.dimension, 16, seed=42, rate=1.25)
        for t in (0.1, 1.0, 5.0):
            if model.kind == "bbm":
                panels = max(pic.default_panels(model, 16, t), int(250 * t) + 16)
            else:
                panels = max(16, pic.default_panels(model, 16, t) // 3)
            b_closed = pic.first_iterate_closed_form(u0, model, t)
            b_quad = pic.first_iterate_quadrature(u0, model, t, panels)
            rel = (np.linalg.norm(b_closed.coeffs - b_quad.coeffs)
                   / np.linalg.norm(b_closed.coeffs))
            worst = max(worst, rel)
        details.append(f"{model.kind} {rel:.1e}")
    verdict(2, "Picard oracle equivalence", worst <= 1e-9,
            f"worst relative L2 discrepancy {worst:.2e}; " + ", ".join(details))


def test_3_solver_order():
    """BBM RK4 order in [3.7, 4.3] and conserved-H1 drift <= 1e-8."""
    u0 = decaying_datum(1, 16, seed=7, rate=0.6, scale=8.0)
    ref = slv.evolve_array(dsp.BBM, 1.0, u0.coeffs, 1e-4, 1.0)[0]
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        v = slv.evolve_array(dsp.BBM, 1.0, u0.coeffs, dt, 1.0)[0]
        errs.append(np.linalg.norm(v - ref) / np.linalg.norm(ref))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    v = u0.with_coeffs(slv.evolve_array(dsp.BBM, 1.0, u0.coeffs, 1e-3, 1.0)[0])
    e0 = slv.conserved_functional(dsp.BBM, u0)
    physical = fld.apply_semigroup(dsp.BBM, v, 1.0)
    drift = abs(slv.conserved_functional(dsp.BBM, physical) - e0) / e0

    passed = all(3.7 <= o <= 4.3 for o in orders) and drift <= 1e-8
    verdict(3, "solver order", passed,
            f"observed orders {orders[0]:.3f}, {orders[1]:.3f}; H1 drift {drift:.2e}")


def test_4_remainder_consistency():
    """||c(eps) - c(eps/2)|| halves (factor in [1.6, 2.6]) per eps halving."""
    results = []
    passed = True
    for model, dim, nmax, rate, dt in ((dsp.BBM, 1, 16, 0.5, 2e-3),
                                       (dsp.KPII, 2, 8, 0.8, 1e-3)):
        u0 = decaying_datum(dim, nmax, seed=11, rate=rate)
        c = {eps: pic.decompose(u0, model, eps, 1.0, dt=dt).remainder.coeffs
             for eps in (0.1, 0.05, 0.025, 0.0125)}
        diffs = [float(np.linalg.norm(c[e] - c[e / 2])) for e in (0.1, 0.05, 0.025)]
        ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
        passed = passed and all(1.6 <= r <= 2.6 for r in ratios)
        results.append(f"{model.kind} ratios {ratios[0]:.2f}/{ratios[1]:.2f}")
    verdict(4, "remainder consistency", passed, "; ".join(results))


def test_5_growth_exponents():
    """Fitted t-exponent of ||c||: KP-II in [0.7, 1.3], KP-I in [1.5, 2.5]."""
    grid = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    u_kpii = decaying_datum(2, 8, seed=11, rate=0.8)
    scan2 = pic.remainder_growth_scan(u_kpii, dsp.KPII, 0.05, grid, dt=1e-3)
    e2 = scan2.fitted_exponent

    # smooth datum concentrated on the Pell triad (1,14)+(7,1)=(8,15),
    # whose divisor 1/56 makes the first iterate secular on this window
    u_kpi = fld.field_from_modes(2, 16, {(1, 14): 0.15, (7, 1): 0.15})
    scan1 = pic.remainder_growth_scan(u_kpi, dsp.KPI, 0.05, grid, dt=5e-4)
    e1 = scan1.fitted_exponent

    passed = (e2 is not None and 0.7 <= e2 <= 1.3
              and e1 is not None and 1.5 <= e1 <= 2.5)
    verdict(5, "growth exponents", passed,
            f"KP-II exponent {e2:.3f} (linear), KP-I exponent {e1:.3f} (quadratic)")


def test_6_exact_zero_predictions():
    """Per-triad cancellation <= 1e-14 for the equilibrium spectra."""
    cases = [
        (dsp.BBM, smp.build_spectrum("bbm-gibbs", None, 16, 1)),
        (dsp.KDV, smp.build_spectrum("constant", None, 16, 1)),
        (dsp.KPII, smp.build_spectrum("constant", None, 16, 2)),
        (dsp.KPI, smp.build_spectrum("constant", None, 16, 2)),
    ]
    worst = 0.0
    for model, spectrum in cases:
        _, terms, corr = cov.g_terms(spectrum, 2.0, model, np.array([0.5, 2.0, 10.0]))
        worst = max(worst, float(np.max(np.abs(terms), initial=0.0)),
                    float(np.max(np.abs(corr), initial=0.0)))
    verdict(6, "exact-zero predictions", worst <= 1e-14,
            f"largest per-triad residue {worst:.2e} over 4 models x 3 times")


def test_7_statistical_confirmation():
    """Coupled MC vs the analytic correction (the headline check)."""
    spec = smp.build_spectrum("sobolev", 3.0, 32, 1, model=dsp.BBM)
    ens = smp.EnsembleConfig(smp.complex_gaussian(), spec, 4096, 20240601)
    rep = cov.mc_covariance(ens, dsp.BBM, 0.05, 1.0, 2e-3,
                            workers=2, batch_size=256)
    frac = cov.compare_prediction(rep).fraction_within_3

    gspec = smp.build_spectrum("bbm-gibbs", None, 32, 1, model=dsp.BBM)
    gens = smp.EnsembleConfig(smp.complex_gaussian(), gspec, 4096, 20240601)
    grep = cov.mc_covariance(gens, dsp.BBM, 0.1, 1.0, 2e-3,
                             workers=2, batch_size=256)
    gibbs_ok = bool(np.all(np.abs(grep.estimates) <= 3.0 * grep.stderrs))
    gibbs_worst = float(np.max(np.abs(grep.estimates) / grep.stderrs))

    passed = frac >= 0.95 and gibbs_ok and not rep.invalid and not grep.invalid
    verdict(7, "statistical confirmation", passed,
            f"sobolev run: {100 * frac:.1f}% of modes |z|<=3 (M=4096); "
            f"gibbs run: all couplings within 3 stderr (worst {gibbs_worst:.2f})")


def test_8_decay_envelopes():
    """Log-log slope of |G_n| vs |n| under the model's envelope exponent."""
    spec_b = smp.build_spectrum("sobolev", 3.0, 32, 1)
    vals_b, _ = cov.g_table(spec_b, 2.0, dsp.BBM, 1.0)
    slope_b, shells_b = cov.fit_decay_slope(dsp.mode_l1(1, 32), vals_b)
    bound_b = -(2.0 + 2.0 * 2.0) + 0.5  # declared s = 2 for the alpha = 3 profile

    spec_k = smp.build_spectrum("sobolev", 3.5, 16, 2)
    vals_k, _ = cov.g_table(spec_k, 2.0, dsp.KPII, 1.0)
    slope_k, shells_k = cov.fit_decay_slope(dsp.mode_l1(2, 16), vals_k)
    bound_k = -2.0 * 2.5 + 0.5  # s = 2.5 profile

    passed = (slope_b is not None and slope_b <= bound_b and shells_b >= 4
              and slope_k is not None and slope_k <= bound_k and shells_k >= 4)
    verdict(8, "decay envelopes", passed,
            f"BBM slope {slope_b:.2f} <= {bound_b}, KP-II slope {slope_k:.2f} <= {bound_k}")


def test_9_sampler_statistics():
    """1e6-draw moment checks and the Gaussian-type tail slope."""
    flagged = []
    for law in (smp.complex_gaussian(), smp.random_phase()):
        rep = smp.moment_report(law, 1_000_000, seed=0)
        flagged.extend((law.kind, f) for f in rep.flagged)

    spec = smp.build_spectrum("sobolev", 2.0, 16, 1)
    ens = smp.EnsembleConfig(smp.complex_gaussian(), spec, 2, 0)
    tail = smp.tail_report(ens, 1_000_000, s=1.0)

    passed = not flagged and tail.slope is not None and tail.slope < 0.0
    verdict(9, "sampler statistics", passed,
            f"no flagged moments at 1e6 draws; tail slope {tail.slope:.3f} < 0")
