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


def at(table, model, nmax, mode):
    """The entry of a full-box table (omega_full, phi_full) at one mode."""
    return table(model, nmax)[dsp.box_index(model.dimension, nmax, mode)]


def table_delta(model, nmax, n, k, l):
    """delta of the triad k + l = n, read from the omega table of the nmax box."""
    om = dsp.omega_full(model, nmax)
    k, l, n = (om[dsp.box_index(model.dimension, nmax, m)] for m in (k, l, n))
    return k + l - n


def triad_deltas(model, nmax):
    """delta of every triad of `enumerate_triads`, read from the flat omega table."""
    om = dsp.omega_full(model, nmax).ravel()
    n, k, l = dsp.enumerate_triads(model.dimension, nmax)
    return om[k] + om[l] - om[n]


class TestOmegaPhi:
    def test_catalog_values(self):
        assert at(dsp.omega_full, dsp.KDV, 8, 2) == 8.0
        assert at(dsp.omega_full, dsp.BBM, 8, 1) == -0.5
        assert at(dsp.omega_full, dsp.KPII, 8, (2, 1)) == 8.0 - 0.5
        assert at(dsp.omega_full, dsp.KPI, 8, (2, 1)) == 8.0 + 0.5
        assert at(dsp.phi_full, dsp.KPI, 8, (3, -7)) == 3.0
        assert at(dsp.phi_full, dsp.BBM, 8, 2) == pytest.approx(0.4, abs=0)
        assert at(dsp.phi_full, dsp.KDV, 8, -1) == -1.0

    def test_oddness(self):
        rng = np.random.default_rng(0)
        for model in dsp.MODELS.values():
            om, ph = dsp.omega_full(model, 40), dsp.phi_full(model, 40)
            for _ in range(50):
                if model.dimension == 1:
                    n = (int(rng.integers(1, 40)) * int(rng.choice([-1, 1])),)
                else:
                    n = (int(rng.integers(1, 40)) * int(rng.choice([-1, 1])),
                         int(rng.integers(-40, 41)))
                pos, neg = (tuple(s * c + 40 for c in n) for s in (1, -1))
                assert om[neg] == pytest.approx(-om[pos], rel=1e-15)
                assert ph[neg] == pytest.approx(-ph[pos], rel=1e-15)

    @pytest.mark.parametrize("model", list(dsp.MODELS.values()), ids=list(dsp.MODELS))
    def test_tables_exactly_odd(self, model):
        # n -> -n reverses every axis of the box; the zero column stays 0
        for table in (dsp.omega_full, dsp.phi_full):
            values = table(model, 12)
            assert np.array_equal(np.flip(values), -values)

    def test_zero_first_component_rejected(self):
        with pytest.raises(ValueError):
            dsp.omega_exact(dsp.KDV, 0)
        with pytest.raises(ValueError):
            dsp.omega_exact(dsp.KPII, (0, 3))
        with pytest.raises(ValueError):
            dsp.delta_exact(dsp.KPI, (1, 2), (0, -1), (1, 3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dsp.omega_exact(dsp.KPII, 3)
        with pytest.raises(ValueError):
            dsp.omega_exact(dsp.KDV, np.array([[1, 2]]))
        with pytest.raises(ValueError):
            dsp.box_index(2, 4, 3)

    @pytest.mark.parametrize("model,mode", [
        (dsp.KDV, 2.5), (dsp.BBM, [1, 2.5]), (dsp.KPI, (2.7, 1.2)), (dsp.KPII, (2, 0.5)),
        (dsp.KDV, np.nan), (dsp.KPI, (np.inf, 1))])
    def test_non_integral_mode_rejected(self, model, mode):
        # truncating 2.5 to 2 would answer about another mode
        with pytest.raises(ValueError, match="integer lattice"):
            dsp.omega_exact(model, mode)
        with pytest.raises(ValueError, match="integer lattice"):
            dsp.box_index(model.dimension, 8, mode)

    def test_whole_number_floats_name_their_mode(self):
        assert at(dsp.omega_full, dsp.KDV, 4, 2.0) == dsp.omega_exact(dsp.KDV, 2.0) == 8
        assert dsp.omega_exact(dsp.KPI, (2.0, 1.0)) == Fraction(17, 2)
        assert at(dsp.phi_full, dsp.KPII, 4, np.array([[3.0, -1.0]])) == 3.0

    def test_vectorized_matches_scalar(self):
        ns = np.array([1, -2, 5, 17])
        vals = dsp.omega_full(dsp.BBM, 17)[ns + 17]
        assert np.allclose(vals, [float(dsp.omega_exact(dsp.BBM, int(n))) for n in ns], rtol=0)


class TestDelta:
    def test_bbm_example(self):
        # -1/2 - 2/5 + 3/10 = -0.6
        assert table_delta(dsp.BBM, 3, 3, 1, 2) == pytest.approx(-0.6, rel=1e-14)

    def test_kpii_one_dimensional_triad(self):
        # k^3 + l^3 - n^3 = -3 k1 l1 n1 on transverse-free triads
        assert table_delta(dsp.KPII, 3, (3, 0), (1, 0), (2, 0)) == -18.0

    def test_kpi_pell_triad(self):
        got = table_delta(dsp.KPI, 15, (8, 15), (1, 14), (7, 1))
        assert got == pytest.approx(1.0 / 56.0, rel=1e-12)
        assert dsp.delta_exact(dsp.KPI, (8, 15), (1, 14), (7, 1)) == Fraction(1, 56)
        assert 97 ** 2 - 3 * 56 ** 2 == 1  # the Pell pair behind the 1/56 divisor

    def test_triad_constraint_enforced(self):
        with pytest.raises(ValueError):
            dsp.delta_exact(dsp.KDV, 4, 1, 2)
        with pytest.raises(ValueError):
            dsp.delta_exact(dsp.KPII, (3, 1), (1, 0), (2, 0))

    def test_non_integral_triad_rejected(self):
        # 1.5 + 2.0 = 3.5 satisfies the constraint; truncation gave -18, not -31.5
        with pytest.raises(ValueError, match="integer lattice"):
            dsp.delta_exact(dsp.KDV, 3.5, 1.5, 2.0)
        with pytest.raises(ValueError, match="integer lattice"):
            dsp.delta_exact(dsp.KPI, (3.5, 1), (1.5, 0), (2, 1))
        assert dsp.delta_exact(dsp.KDV, 3.0, 1.0, 2.0) == table_delta(dsp.KDV, 3, 3.0, 1.0, 2.0) == -18

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
                got = table_delta(model, 16, n, k, l)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)


class TestFactoredOracles:
    def test_bbm_magnitude_and_sign(self):
        # every pair |k|, |l| <= 16, with n = k + l unconstrained (up to 32)
        vals = np.concatenate([np.arange(-16, 0), np.arange(1, 17)])
        k, l = np.meshgrid(vals, vals, indexing="ij")
        keep = (k + l) != 0
        k, l = k[keep], l[keep]
        n = k + l
        om = dsp.omega_full(dsp.BBM, 32)
        d = om[k + 32] + om[l + 32] - om[n + 32]
        n, k, l = (a.astype(float) for a in (n, k, l))
        mag = np.abs(dsp.bbm_delta_factored(n, k, l))
        assert np.min(np.abs(d)) > 0
        assert np.max(np.abs(np.abs(d) - mag) / mag) < 1e-12
        signed = dsp.bbm_delta_factored(n, k, l)
        assert np.max(np.abs(d - signed) / np.abs(signed)) < 1e-12

    def test_kpii_lower_bound_with_equality_on_1d_triads(self):
        n, k, l = triad_modes(2, 8)
        d = triad_deltas(dsp.KPII, 8)
        ratio = np.abs(d) / dsp.kpii_delta_bound(n, k, l)
        assert np.all(ratio >= 1.0 - 1e-12)
        flat = (k[:, 1] == 0) & (l[:, 1] == 0)
        assert np.allclose(ratio[flat], 1.0, rtol=1e-13)

    def test_kpi_factored_identity(self):
        n, k, l = triad_modes(2, 8)
        d = triad_deltas(dsp.KPI, 8)
        ref = dsp.kp_delta_factored(dsp.KPI, n, k, l)
        assert np.max(np.abs(d - ref) / np.abs(ref)) < 1e-12

    def test_kdv_integer_divisors(self):
        n, k, l = triad_modes(1, 16)
        d = triad_deltas(dsp.KDV, 16)
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
        assert om[4 + 2, 4 + 1] == float(dsp.omega_exact(dsp.KPII, (2, 1)))

    @pytest.mark.parametrize("block", [None, 40], ids=["default-block", "small-block"])
    def test_triad_blocks_order_and_block_rule(self, monkeypatch, block):
        # triad_sums reduces each block per n-group with reduceat, so the blocks
        # must hold whole n-groups in the order of `modes`, k ascending within
        # a group, `per_block` consecutive output modes per block; each group
        # holds the triads with k <= l by flat index, each unordered triad once
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
            where = {tuple(m): i for i, m in enumerate(box)}
            for modes in subsets:
                groups = []
                for n in (active if modes is None else modes).tolist():
                    l_modes = [[a - b for a, b in zip(box[n], box[k])] for k in active.tolist()]
                    groups.append([(n, k) for k, l in zip(active.tolist(), l_modes)
                                   if l[0] and max(map(abs, l)) <= nmax
                                   and k <= where[tuple(l)]])
                want = [sum(groups[s:s + per_block], []) for s in range(0, len(groups), per_block)]
                want = [rows for rows in want if rows]
                blocks = list(dsp.triad_blocks(dim, nmax, modes))
                assert len(blocks) == len(want)
                for (n, k, l), rows in zip(blocks, want):
                    assert list(zip(n.tolist(), k.tolist())) == rows
                    assert np.all(full[k] + full[l] == full[n])
                    assert np.all(k <= l)
                    same_n = n[1:] == n[:-1]
                    assert np.all(k[1:][same_n] > k[:-1][same_n])

    def test_triad_blocks_shrink_with_triad_bytes(self):
        # a triad sum over six complex times keeps 96 bytes per triad, three
        # times the 32 a block is sized for, so its blocks hold a third the modes
        active = np.flatnonzero(dsp.full_modes(2, 16)[:, 0])
        sizes = {b: max(np.unique(n).size for n, _, _ in dsp.triad_blocks(2, 16, None, b))
                 for b in (32, 96)}
        assert sizes == {32: dsp._TRIAD_BLOCK // active.size,
                         96: dsp._TRIAD_BLOCK // (3 * active.size)}

    def test_triad_enumeration_is_exhaustive(self, monkeypatch):
        # the ordered catalog expands the k <= l blocks by their mirrors; the
        # small block checks that expansion across many multi-mode blocks
        cases = ((1, 1), (1, 3), (1, 7), (2, 1), (2, 2), (2, 4))
        for block, (dim, nmax) in itertools.product((dsp._TRIAD_BLOCK, 40), cases):
            monkeypatch.setattr(dsp, "_TRIAD_BLOCK", block)
            n, k, l = triad_modes(dim, nmax)
            seen = [tuple(a) + tuple(b) + tuple(c) for a, b, c in zip(n, k, l)]
            box = list(itertools.product(range(-nmax, nmax + 1), repeat=dim))
            brute = []
            for a in box:
                for b in box:
                    c = tuple(x - y for x, y in zip(a, b))
                    if a[0] and b[0] and c[0] and max(map(abs, c)) <= nmax:
                        brute.append(a + b + c)
            # `box` is in flat-index order, so the brute list is sorted by (n, k)
            assert seen == brute
            assert np.all(k + l == n)
        # a chosen output mode, here on the n1 < 0 half, gets exactly its
        # k <= l triads (box tuples order as their flat indices), k ascending
        full = dsp.full_modes(2, 4)
        target = dsp.flat_index(2, 4, np.array([-2, 1]))
        blocks = list(dsp.triad_blocks(2, 4, [target]))
        n, k, l = (np.concatenate(part) for part in zip(*blocks))
        assert np.all(n == target) and np.all(full[k] + full[l] == full[n])
        want = [row[2:] for row in brute if row[:2] == (-2, 1) and row[2:4] <= row[4:]]
        assert [tuple(a) + tuple(b) for a, b in zip(full[k], full[l])] == want
