"""Interaction kernels: closed forms, degenerate branch, mutual identities."""

import warnings

import numpy as np
import pytest

from wavecorr.kernels import f_kernel, tilde_f_kernel

KERNELS = [f_kernel, tilde_f_kernel]


def sinc(delta, t):
    """sin(delta t)/delta, the time derivative of tilde_F, as Re(-F(delta, -t))."""
    return np.real(-f_kernel(delta, -t))


class TestPointValues:
    def test_f_kernel(self):
        assert f_kernel(0.0, 5.0) == 5.0
        assert f_kernel(np.pi, 1.0) == pytest.approx(2j / np.pi, abs=1e-15)
        assert f_kernel(3.7, 0.0) == 0.0

    def test_sinc_kernel(self):
        assert sinc(0.0, 3.0) == 3.0
        assert sinc(np.pi, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_tilde_kernel(self):
        assert tilde_f_kernel(0.0, 2.0) == 2.0
        assert tilde_f_kernel(np.pi, 1.0) == pytest.approx(2.0 / np.pi ** 2, rel=1e-15)


class TestBranches:
    # delta = 0, |delta t| just below and just above 1e-6 for each t, ordinary values
    deltas = np.array([0.0, -0.0, 0.999e-6, -1.001e-6, 0.4999e-6, -0.5001e-6, 1.999e-6,
                       2.001e-6, 0.37, -12.5, 3e3])
    times = np.array([[1.0], [2.0], [0.5], [0.0], [-3.0]])

    @pytest.mark.parametrize("func", KERNELS)
    def test_array_equals_scalar_evaluations(self, func):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = func(self.deltas, self.times)
            want = [[func(d, t) for d in self.deltas] for t in self.times[:, 0]]
        assert got.shape == (self.times.size, self.deltas.size)
        assert np.array_equal(got, np.array(want))
        assert got[0, 0] == func(0.0, 1.0) == (0.5 if func is tilde_f_kernel else 1.0)

    @pytest.mark.parametrize("func", KERNELS)
    def test_scalar_inputs_give_scalars(self, func):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, t in ((0.0, 1.0), (0.999e-6, 1.0), (1.001e-6, 1.0), (2.5, 3.0),
                         (np.float64(0.0), np.array(2.0)), (np.array(-4.0), 0.0)):
                value = func(d, t)
                assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
            assert np.ndim(func(np.array([0.0]), 1.0)) == 1


class TestIdentities:
    deltas = np.concatenate([[0.0], np.geomspace(1e-12, 1e4, 60),
                             -np.geomspace(1e-12, 1e4, 60)])
    times = np.array([0.0, 1e-3, 0.3, 2.0, 17.0])

    def test_sinc_is_real_part_of_reversed_f(self):
        for t in self.times:
            with np.errstate(invalid="ignore"):  # 0/0 at delta = 0, replaced by t
                lhs = np.where(self.deltas == 0.0, t, np.sin(self.deltas * t) / self.deltas)
            rhs = sinc(self.deltas, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, t)

    def test_tilde_derivative_is_sinc(self):
        h = 1e-6
        for t in (0.3, 1.7, 6.0):
            fd = (tilde_f_kernel(self.deltas, t + h)
                  - tilde_f_kernel(self.deltas, t - h)) / (2 * h)
            s = sinc(self.deltas, t)
            assert np.max(np.abs(fd - s) / (1.0 + np.abs(s))) < 1e-6

    def test_tilde_is_integral_of_sinc(self):
        # composite Simpson of sinc over [0, t] as an independent oracle
        t = 1.3
        panels = 2000
        taus = np.linspace(0.0, t, 2 * panels + 1)
        w = np.full(taus.size, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (t / panels) / 6.0
        for delta in (0.0, 0.7, 13.0, 211.0):
            integral = np.sum(w * sinc(delta, taus))
            assert integral == pytest.approx(tilde_f_kernel(delta, t), abs=1e-8)

    def test_tilde_range_bound(self):
        for t in self.times:
            vals = tilde_f_kernel(self.deltas, t)
            with np.errstate(divide="ignore"):
                cap = np.minimum(t ** 2, 2.0 / self.deltas ** 2)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= cap + 1e-12)

    def test_continuity_across_degenerate_branch(self):
        for func in KERNELS:
            for t in (1.0, 5.0):
                center = func(0.0, t)
                for d in (1e-9, -1e-9):
                    assert abs(func(d, t) - center) <= 1e-8 * abs(center)

    def test_branch_seam_is_smooth(self):
        # a kink at the series/exact handover would show up in second differences
        t = 1.0
        deltas = np.linspace(0.9e-6, 1.1e-6, 21)
        for func in KERNELS:
            vals = func(deltas, t)
            second = np.abs(np.diff(vals, n=2))
            assert np.max(second) < 1e-12

    def test_accuracy_in_former_cancellation_band(self):
        # reference via 200-digit-free math: tilde = 2 sin^2(x/2)/delta^2 is exact,
        # compare against the high-precision series at small x
        for x in (3e-6, 1e-5, 1e-4):
            t = 0.3
            delta = x / t
            val = tilde_f_kernel(delta, t)
            series = t * t * (0.5 - x * x / 24.0 + x ** 4 / 720.0)
            assert val == pytest.approx(series, rel=1e-12)
