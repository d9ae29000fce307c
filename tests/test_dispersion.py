"""Dispersion relations, triads, and the factored-formula oracles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from wavecorr import dispersion as dsp


def triad_modes(dim, nmax):
    """`enumerate_triads` as (T, dim) mode arrays n, k, l."""
    full = dsp.full_modes(dim, nmax)
    return tuple(full[i] for i in dsp.enumerate_triads(dim, nmax))


class TestOmegaPhi:
    def test_catalog_values(self):
        assert dsp.omega(dsp.KDV, 2) == 8.0
        assert dsp.omega(dsp.BBM, 1) == -0.5
        assert dsp.omega(dsp.KPII, (2, 1)) == 8.0 - 0.5
        assert dsp.omega(dsp.KPI, (2, 1)) == 8.0 + 0.5
        assert dsp.phi(dsp.KPI, (3, -7)) == 3.0
        assert dsp.phi(dsp.BBM, 2) == pytest.approx(0.4, abs=0)
        assert dsp.phi(dsp.KDV, -1) == -1.0

    def test_oddness(self):
        rng = np.random.default_rng(0)
        for model in dsp.MODELS.values():
            for _ in range(50):
                if model.dimension == 1:
                    n = int(rng.integers(1, 40)) * int(rng.choice([-1, 1]))
                    neg = -n
                else:
                    n = (int(rng.integers(1, 40)) * int(rng.choice([-1, 1])),
                         int(rng.integers(-40, 41)))
                    neg = (-n[0], -n[1])
                assert dsp.omega(model, neg) == pytest.approx(-dsp.omega(model, n), rel=1e-15)
                assert dsp.phi(model, neg) == pytest.approx(-dsp.phi(model, n), rel=1e-15)

    def test_zero_first_component_rejected(self):
        with pytest.raises(ValueError):
            dsp.omega(dsp.KDV, 0)
        with pytest.raises(ValueError):
            dsp.omega(dsp.KPII, (0, 3))
        with pytest.raises(ValueError):
            dsp.phi(dsp.KPI, (0, -1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dsp.omega(dsp.KPII, 3)
        with pytest.raises(ValueError):
            dsp.omega(dsp.KDV, np.array([[1, 2]]))

    @pytest.mark.parametrize("model,mode", [
        (dsp.KDV, 2.5), (dsp.BBM, [1, 2.5]), (dsp.KPI, (2.7, 1.2)), (dsp.KPII, (2, 0.5)),
        (dsp.KDV, np.nan), (dsp.KPI, (np.inf, 1))])
    def test_non_integral_mode_rejected(self, model, mode):
        # truncating 2.5 to 2 would answer about another mode
        for func in (dsp.omega, dsp.phi):
            with pytest.raises(ValueError, match="integer lattice"):
                func(model, mode)
        if np.ndim(mode) == model.dimension - 1:  # the exact oracle takes one mode
            with pytest.raises(ValueError, match="integer lattice"):
                dsp.omega_exact(model, mode)

    def test_whole_number_floats_name_their_mode(self):
        assert dsp.omega(dsp.KDV, 2.0) == dsp.omega_exact(dsp.KDV, 2.0) == 8
        assert dsp.omega_exact(dsp.KPI, (2.0, 1.0)) == Fraction(17, 2)
        assert dsp.phi(dsp.KPII, np.array([[3.0, -1.0]])).tolist() == [3.0]

    def test_vectorized_matches_scalar(self):
        ns = np.array([1, -2, 5, 17])
        vals = dsp.omega(dsp.BBM, ns)
        assert np.allclose(vals, [dsp.omega(dsp.BBM, int(n)) for n in ns], rtol=0)


class TestDelta:
    def test_bbm_example(self):
        # -1/2 - 2/5 + 3/10 = -0.6
        assert dsp.delta(dsp.BBM, 3, 1, 2) == pytest.approx(-0.6, rel=1e-14)

    def test_kpii_one_dimensional_triad(self):
        # k^3 + l^3 - n^3 = -3 k1 l1 n1 on transverse-free triads
        assert dsp.delta(dsp.KPII, (3, 0), (1, 0), (2, 0)) == -18.0

    def test_kpi_pell_triad(self):
        got = dsp.delta(dsp.KPI, (8, 15), (1, 14), (7, 1))
        assert got == pytest.approx(1.0 / 56.0, rel=1e-12)
        assert dsp.delta_exact(dsp.KPI, (8, 15), (1, 14), (7, 1)) == Fraction(1, 56)
        assert 97 ** 2 - 3 * 56 ** 2 == 1  # the Pell pair behind the 1/56 divisor

    def test_triad_constraint_enforced(self):
        with pytest.raises(ValueError):
            dsp.delta(dsp.KDV, 4, 1, 2)
        with pytest.raises(ValueError):
            dsp.delta_exact(dsp.KPII, (3, 1), (1, 0), (2, 0))

    def test_non_integral_triad_rejected(self):
        # 1.5 + 2.0 = 3.5 satisfies the constraint; truncation gave -18, not -31.5
        for func in (dsp.delta, dsp.delta_exact):
            with pytest.raises(ValueError, match="integer lattice"):
                func(dsp.KDV, 3.5, 1.5, 2.0)
            with pytest.raises(ValueError, match="integer lattice"):
                func(dsp.KPI, (3.5, 1), (1.5, 0), (2, 1))
        assert dsp.delta_exact(dsp.KDV, 3.0, 1.0, 2.0) == dsp.delta(dsp.KDV, 3.0, 1.0, 2.0) == -18

    def test_exact_matches_float(self):
        rng = np.random.default_rng(3)
        for model in dsp.MODELS.values():
            for _ in range(30):
                if model.dimension == 1:
                    k = int(rng.integers(1, 9)) * int(rng.choice([-1, 1]))
                    l = int(rng.integers(1, 9)) * int(rng.choice([-1, 1]))
                    if k + l == 0:
                        continue
                    n = k + l
                else:
                    k = (int(rng.integers(1, 9)), int(rng.integers(-8, 9)))
                    l = (int(rng.integers(1, 9)), int(rng.integers(-8, 9)))
                    n = (k[0] + l[0], k[1] + l[1])
                exact = float(dsp.delta_exact(model, n, k, l))
                assert dsp.delta(model, n, k, l) == pytest.approx(exact, rel=1e-12, abs=1e-15)


class TestFactoredOracles:
    def test_bbm_magnitude_and_sign(self):
        # every pair |k|, |l| <= 16, with n = k + l unconstrained (up to 32)
        vals = np.concatenate([np.arange(-16, 0), np.arange(1, 17)])
        k, l = np.meshgrid(vals, vals, indexing="ij")
        keep = (k + l) != 0
        k, l = k[keep].astype(float), l[keep].astype(float)
        n = k + l
        d = (dsp.omega(dsp.BBM, k) + dsp.omega(dsp.BBM, l) - dsp.omega(dsp.BBM, n))
        mag = np.abs(dsp.bbm_delta_factored(n, k, l))
        assert np.min(np.abs(d)) > 0
        assert np.max(np.abs(np.abs(d) - mag) / mag) < 1e-12
        signed = dsp.bbm_delta_factored(n, k, l)
        assert np.max(np.abs(d - signed) / np.abs(signed)) < 1e-12

    def test_kpii_lower_bound_with_equality_on_1d_triads(self):
        n, k, l = triad_modes(2, 8)
        d = dsp.delta(dsp.KPII, n, k, l)
        ratio = np.abs(d) / dsp.kpii_delta_bound(n, k, l)
        assert np.all(ratio >= 1.0 - 1e-12)
        flat = (k[:, 1] == 0) & (l[:, 1] == 0)
        assert np.allclose(ratio[flat], 1.0, rtol=1e-13)

    def test_kpi_factored_identity(self):
        n, k, l = triad_modes(2, 8)
        d = dsp.delta(dsp.KPI, n, k, l)
        ref = dsp.kp_delta_factored(dsp.KPI, n, k, l)
        assert np.max(np.abs(d - ref) / np.abs(ref)) < 1e-12

    def test_kdv_integer_divisors(self):
        n, k, l = triad_modes(1, 16)
        d = dsp.delta(dsp.KDV, n[:, 0], k[:, 0], l[:, 0])
        expected = -3.0 * n[:, 0] * k[:, 0] * l[:, 0]
        assert np.array_equal(d, expected)
        assert np.min(np.abs(d)) >= 6.0


class TestLattice:
    def test_mode_list_order_matches_storage(self):
        modes = dsp.mode_list(2, 2)
        assert modes[0] == (1, -2)
        assert modes[4] == (1, 2)
        assert modes[5] == (2, -2)
        assert len(modes) == 2 * 5

    def test_l1_size(self):
        l1 = dsp.mode_l1(2, 3)
        assert l1[0, 0] == 1 + 3  # n = (1, -3)
        assert l1[2, 3] == 3 + 0  # n = (3, 0)

    def test_full_grid_multipliers_vanish_on_zero_column(self):
        om = dsp.omega_full(dsp.KPII, 4)
        ph = dsp.phi_full(dsp.KPII, 4)
        assert np.all(om[4, :] == 0.0)
        assert np.all(ph[4, :] == 0.0)
        assert om[4 + 2, 4 + 1] == dsp.omega(dsp.KPII, (2, 1))

    @pytest.mark.parametrize("block", [None, 40], ids=["default-block", "small-block"])
    def test_triad_blocks_order_and_block_rule(self, monkeypatch, block):
        # triad_sums reduces each block per n-group with reduceat, so the blocks
        # must hold whole n-groups in the order of `modes`, k ascending within
        # a group, `per_block` consecutive output modes per block
        if block:
            monkeypatch.setattr(dsp, "_TRIAD_BLOCK", block)
        for dim, nmax in ((1, 1), (1, 4), (1, 9), (2, 1), (2, 3), (2, 5)):
            full = dsp.full_modes(dim, nmax)
            active = np.flatnonzero(full[:, 0])
            per_block = max(1, dsp._TRIAD_BLOCK // active.size)
            lower, upper = active[full[active, 0] < 0], active[full[active, 0] > 0]
            rng = np.random.default_rng(nmax)
            subsets = [None, upper, np.concatenate([upper[::-1][:3], lower[:3]]),
                       rng.permutation(active)[:max(1, active.size // 3)]]
            box = full.tolist()
            for modes in subsets:
                groups = []
                for n in (active if modes is None else modes).tolist():
                    l_modes = [[a - b for a, b in zip(box[n], box[k])] for k in active.tolist()]
                    groups.append([(n, k) for k, l in zip(active.tolist(), l_modes)
                                   if l[0] and max(map(abs, l)) <= nmax])
                want = [sum(groups[s:s + per_block], []) for s in range(0, len(groups), per_block)]
                want = [rows for rows in want if rows]
                blocks = list(dsp.triad_blocks(dim, nmax, modes))
                assert len(blocks) == len(want)
                for (n, k, l), rows in zip(blocks, want):
                    assert list(zip(n.tolist(), k.tolist())) == rows
                    assert np.all(full[k] + full[l] == full[n])
                    same_n = n[1:] == n[:-1]
                    assert np.all(k[1:][same_n] > k[:-1][same_n])

    def test_triad_enumeration_is_exhaustive(self):
        for dim, nmax in ((1, 1), (1, 3), (1, 7), (2, 1), (2, 2), (2, 4)):
            n, k, l = triad_modes(dim, nmax)
            seen = [tuple(a) + tuple(b) + tuple(c) for a, b, c in zip(n, k, l)]
            box = list(itertools.product(range(-nmax, nmax + 1), repeat=dim))
            brute = set()
            for a in box:
                for b in box:
                    c = tuple(x - y for x, y in zip(a, b))
                    if a[0] and b[0] and c[0] and max(map(abs, c)) <= nmax:
                        brute.add(a + b + c)
            assert len(seen) == len(set(seen)) and set(seen) == brute
            assert np.all(k + l == n)
        # a chosen output mode, here on the n1 < 0 half, gets exactly its triads
        full = dsp.full_modes(2, 4)
        target = dsp.flat_index(2, 4, np.array([-2, 1]))
        blocks = list(dsp.triad_blocks(2, 4, [target]))
        n, k, l = (np.concatenate(part) for part in zip(*blocks))
        assert np.all(n == target) and np.all(full[k] + full[l] == full[n])
        assert len(n) == sum(1 for row in set(seen) if row[:2] == (-2, 1))
