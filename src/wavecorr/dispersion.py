"""Dispersion relations, the mode lattice, and triad bookkeeping.

Four models are supported, all posed on the torus with real fields whose
x1-mean vanishes:

    kdv    d=1   omega(n) = n^3                 phi(n) = n
    bbm    d=1   omega(n) = -n/(1+n^2)          phi(n) = n/(1+n^2)
    kpii   d=2   omega(n) = n1^3 - n2^2/n1      phi(n) = n1
    kpi    d=2   omega(n) = n1^3 + n2^2/n1      phi(n) = n1

Modes live on the integer lattice with nonzero first component.  Truncated
fields store only the half-lattice n1 >= 1 (see `field`), which is rows
nmax + 1.. of the full box |n_j| <= nmax; every stored-half table here is
that slice of its full-box table.  The mode size |n| is always the l1
size sum_j |n_j|.

A triad is an ordered pair (k, l) with k + l = n; its pulsation mismatch is
delta = omega(k) + omega(l) - omega(n), computed directly from omega.  The
factored rational forms are provided separately as test oracles only.

`triad_blocks` is the one triad enumeration.  It yields flat full-box
indices, so a triad sum looks delta up from `omega_full(...).ravel()`,
gathers its per-triad weight, and reduces per output mode (`triad_sums`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "DispersionModel", "KDV", "BBM", "KPI", "KPII", "MODELS", "get_model",
    "omega", "phi", "delta", "omega_exact", "delta_exact",
    "bbm_delta_factored",
    "kp_delta_factored", "kpii_delta_bound",
    "stored_shape", "mode_grids", "mode_l1", "mode_list", "mode_label", "box_index",
    "stored_modes", "full_shape", "full_mode_grids", "full_modes", "flat_index",
    "omega_grid", "phi_grid", "omega_full", "phi_full",
    "triad_blocks", "triad_sums", "enumerate_triads", "max_abs_delta",
]


@dataclass(frozen=True)
class DispersionModel:
    """Model tag plus its spatial dimension."""

    kind: str
    dimension: int


KDV = DispersionModel("kdv", 1)
BBM = DispersionModel("bbm", 1)
KPI = DispersionModel("kpi", 2)
KPII = DispersionModel("kpii", 2)

MODELS = {m.kind: m for m in (KDV, BBM, KPI, KPII)}


def get_model(tag):
    """Resolve a model tag ('kdv', 'bbm', 'kpi', 'kpii') to its model."""
    try:
        return MODELS[tag.lower()]
    except KeyError:
        raise ValueError(f"unknown model tag {tag!r}; expected one of {sorted(MODELS)}")


# Dispatch tables are looked up at call time so tests can inject a perturbed
# relation (the self-check suite relies on this seam).

def _omega_kdv(n1):
    return n1 * n1 * n1


def _omega_bbm(n1):
    return -n1 / (1.0 + n1 * n1)


def _omega_kpii(n1, n2):
    return n1 * n1 * n1 - (n2 * n2) / n1


def _omega_kpi(n1, n2):
    return n1 * n1 * n1 + (n2 * n2) / n1


def _phi_kdv(n1):
    return n1


def _phi_bbm(n1):
    return n1 / (1.0 + n1 * n1)


def _phi_kp(n1, n2):
    return n1


_OMEGA = {"kdv": _omega_kdv, "bbm": _omega_bbm, "kpi": _omega_kpi, "kpii": _omega_kpii}
_PHI = {"kdv": _phi_kdv, "bbm": _phi_bbm, "kpi": _phi_kp, "kpii": _phi_kp}


def _components(model, n):
    """Split a mode (or array of modes) into float component arrays.

    d=1 accepts scalars or arrays of integers; d=2 accepts a pair (n1, n2)
    or an array whose last axis has length 2.  Rejects non-integral
    components (whole-number floats name their mode) and modes with zero
    first component.
    """
    arr = np.asarray(n)
    if model.dimension == 1:
        if arr.dtype == object or (arr.ndim > 0 and arr.shape[-1] == 2 and arr.ndim > 1):
            raise ValueError(f"{model.kind} is one-dimensional, got mode {n!r}")
        comps = (arr.astype(float),)
    else:
        if arr.ndim == 0 or arr.shape[-1] != 2:
            raise ValueError(f"{model.kind} modes need 2 components, got {n!r}")
        comps = (arr[..., 0].astype(float), arr[..., 1].astype(float))
    if not all(np.all(np.isfinite(c) & (np.floor(c) == c)) for c in comps):
        raise ValueError(f"mode {n!r} is not a point of the integer lattice")
    if np.any(comps[0] == 0):
        raise ValueError("mode has zero first component (outside the active lattice)")
    return comps


def omega(model, n):
    """Pulsation omega(n).  Odd in n; zero first components are rejected."""
    out = _OMEGA[model.kind](*_components(model, n))
    return float(out) if np.ndim(out) == 0 else out


def phi(model, n):
    """Nonlinearity multiplier phi(n).  Odd in n."""
    out = np.asarray(_PHI[model.kind](*_components(model, n)), dtype=float)
    return float(out) if out.ndim == 0 else out


def delta(model, n, k, l):
    """Pulsation mismatch omega(k) + omega(l) - omega(n) for the triad k+l=n."""
    na, ka, la = np.asarray(n), np.asarray(k), np.asarray(l)
    if not np.array_equal(ka + la, na):
        raise ValueError(f"triad constraint k+l=n violated: {k!r} + {l!r} != {n!r}")
    return omega(model, k) + omega(model, l) - omega(model, n)


def omega_exact(model, n):
    """omega(n) in exact rational arithmetic (single mode)."""
    n1, *rest = _lattice_point(model.dimension, n)
    if n1 == 0:
        raise ValueError("mode has zero first component")
    if model.dimension == 1:
        if model.kind == "kdv":
            return Fraction(n1 ** 3)
        return Fraction(-n1, 1 + n1 * n1)
    n2, = rest
    cube = Fraction(n1 ** 3)
    transverse = Fraction(n2 * n2, n1)
    return cube + transverse if model.kind == "kpi" else cube - transverse


def delta_exact(model, n, k, l):
    """Exact rational pulsation mismatch for the triad k+l=n."""
    na, ka, la = np.asarray(n), np.asarray(k), np.asarray(l)
    if not np.array_equal(ka + la, na):
        raise ValueError(f"triad constraint k+l=n violated: {k!r} + {l!r} != {n!r}")
    return omega_exact(model, k) + omega_exact(model, l) - omega_exact(model, n)


# ---------------------------------------------------------------------------
# Factored rational forms of delta.  These are independent oracles used by
# the self-check suite and the tests; `delta` itself never uses them.
# ---------------------------------------------------------------------------

def bbm_delta_factored(n, k, l):
    """Signed factored BBM mismatch -nkl(3+k^2+kl+l^2)/((1+n^2)(1+k^2)(1+l^2))."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    num = -n * k * l * (3.0 + k * k + k * l + l * l)
    den = (1.0 + n * n) * (1.0 + k * k) * (1.0 + l * l)
    return num / den


def kp_delta_factored(model, n, k, l):
    """Factored KP mismatch via the cross term c = l1*k2 - k1*l2.

    KP-I:  (c^2 - 3(k1*l1*n1)^2) / (k1*l1*n1)
    KP-II: -(c^2 + 3(k1*l1*n1)^2) / (k1*l1*n1)
    """
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    prod = k[..., 0] * l[..., 0] * n[..., 0]
    cross = l[..., 0] * k[..., 1] - k[..., 0] * l[..., 1]
    if model.kind == "kpi":
        return (cross * cross - 3.0 * prod * prod) / prod
    if model.kind == "kpii":
        return -(cross * cross + 3.0 * prod * prod) / prod
    raise ValueError(f"factored KP form undefined for model {model.kind!r}")


def kpii_delta_bound(n, k, l):
    """The KP-II no-resonance lower bound 3|n1 k1 l1|."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    return 3.0 * np.abs(n[..., 0] * k[..., 0] * l[..., 0])


# ---------------------------------------------------------------------------
# Mode lattice bookkeeping.
# ---------------------------------------------------------------------------

def stored_shape(dim, nmax):
    """Array shape of the stored half-lattice (n1 >= 1)."""
    return (nmax,) if dim == 1 else (nmax, 2 * nmax + 1)


def full_shape(dim, nmax):
    """Array shape of the full box |n_j| <= nmax (first component may be 0)."""
    return (2 * nmax + 1,) if dim == 1 else (2 * nmax + 1, 2 * nmax + 1)


def full_mode_grids(dim, nmax):
    """Component grids over the full box, index j <-> component j - nmax."""
    r = np.arange(-nmax, nmax + 1)
    if dim == 1:
        return (r,)
    side = 2 * nmax + 1
    return (np.broadcast_to(r[:, None], (side, side)),
            np.broadcast_to(r[None, :], (side, side)))


def mode_grids(dim, nmax):
    """Component grids over the stored half-lattice, matching stored_shape."""
    return tuple(g[nmax + 1:] for g in full_mode_grids(dim, nmax))


def mode_l1(dim, nmax):
    """l1 mode size |n| = sum_j |n_j| over the stored half-lattice."""
    return sum(np.abs(g) for g in mode_grids(dim, nmax))


def mode_list(dim, nmax):
    """Stored modes in lexicographic order: ints for d=1, (n1, n2) tuples for d=2."""
    if dim == 1:
        return list(range(1, nmax + 1))
    return [(n1, n2) for n1 in range(1, nmax + 1) for n2 in range(-nmax, nmax + 1)]


def mode_label(mode):
    """Report text of a mode: "n1" in d=1, "n1;n2" in d=2."""
    return str(mode) if np.isscalar(mode) else ";".join(str(c) for c in mode)


def _lattice_point(dim, n):
    """The integer components of the mode `n` (an integer for d=1, a pair for
    d=2); ValueError for a non-integral component or the wrong count."""
    comps = np.ravel(n).tolist()
    if len(comps) != dim or not all(float(c).is_integer() for c in comps):
        raise ValueError(f"mode {n!r} is not a point of the {dim}-d integer lattice")
    return [int(c) for c in comps]


def box_index(dim, nmax, n):
    """Full-box array index of the mode `n` (an integer for d=1, a pair for d=2);
    ValueError for a non-integral component or a mode outside the box."""
    comps = _lattice_point(dim, n)
    if any(abs(c) > nmax for c in comps):
        raise ValueError(f"mode {n!r} outside the truncation nmax={nmax}")
    return tuple(c + nmax for c in comps)


def full_modes(dim, nmax):
    """Every full-box mode as an (N, dim) int array; row i has flat index i."""
    return np.stack([g.ravel() for g in full_mode_grids(dim, nmax)], axis=-1)


def stored_modes(dim, nmax):
    """Every stored mode as an (M, dim) int array, in storage order."""
    return np.stack([g.ravel() for g in mode_grids(dim, nmax)], axis=-1)


def flat_index(dim, nmax, modes):
    """Flat full-box index of each mode of an (..., dim) int array."""
    shifted = np.asarray(modes) + nmax
    return np.ravel_multi_index(tuple(np.moveaxis(shifted, -1, 0)), full_shape(dim, nmax))


def _full_multiplier(table, model, nmax):
    grids = tuple(g.astype(float) for g in full_mode_grids(model.dimension, nmax))
    first = grids[0]
    safe = tuple((np.where(first == 0, 1.0, first),) + grids[1:])
    vals = np.asarray(table[model.kind](*safe), dtype=float)
    return np.where(first == 0, 0.0, vals)


def omega_full(model, nmax):
    """omega over the full box, with the convention omega(0, n') = 0."""
    return _full_multiplier(_OMEGA, model, nmax)


def phi_full(model, nmax):
    """phi over the full box, with phi(0, n') = 0."""
    return _full_multiplier(_PHI, model, nmax)


def omega_grid(model, nmax):
    """omega over the stored half-lattice."""
    return omega_full(model, nmax)[nmax + 1:]


def phi_grid(model, nmax):
    """phi over the stored half-lattice."""
    return phi_full(model, nmax)[nmax + 1:]


# ---------------------------------------------------------------------------
# Triad enumeration.
# ---------------------------------------------------------------------------

# Candidate (n, k) pairs per block.  A triad sum's per-block arrays then stay
# near 1 MB, complex weights and several times included, so it adds little to
# a run's peak memory.  With the per-axis masks, sizes 1<<11 to 1<<15 ran the
# KP-II nmax=32 stored-mode enumeration in 0.10-0.18 s and its 4-time g_table
# in 1.0-1.5 s of CPU on a 2-core host, as spread as repeats of one size.
_TRIAD_BLOCK = 1 << 13


def triad_blocks(dim, nmax, modes=None):
    """Yield flat full-box index arrays (n, k, l) covering every triad k + l = n.

    `modes` holds the flat indices of the output modes n (any active mode,
    either half-lattice); by default every mode of the truncated active
    lattice.  k and l range over the active modes of the box.  Triads come
    grouped by n in the order of `modes`, k ascending within a group; a
    block holds whole groups and at most _TRIAD_BLOCK candidate pairs
    (unless one group alone has more), which bounds peak memory.
    """
    full = full_modes(dim, nmax)
    active = np.flatnonzero(full[:, 0])
    axis = np.arange(-nmax, nmax + 1)
    # the flat index is affine in the mode: flat(k) + flat(l) = flat(n) + flat(0)
    origin = flat_index(dim, nmax, np.zeros(dim, dtype=int))
    modes = active if modes is None else np.asarray(modes).reshape(-1)
    per_block = max(1, _TRIAD_BLOCK // active.size)
    for start in range(0, modes.size, per_block):
        n = modes[start:start + per_block]
        # k pairs with n when |n_a - k_a| <= nmax on each axis and k1 != n1; the
        # product of the per-axis masks (k1 = 0 dropped) runs over active k in order
        ok = np.ones((n.size, 1), dtype=bool)
        for a, c in enumerate(full[n].T[:, :, None]):
            mask = np.abs(c - axis) <= nmax
            if a == 0:
                mask = (mask & (c != axis))[:, axis != 0]
            ok = (ok[:, :, None] & mask[:, None, :]).reshape(n.size, -1)
        i, j = np.nonzero(ok)
        if i.size:
            n_i, k_j = n[i], active[j]
            yield n_i, k_j, n_i + origin - k_j


def triad_sums(dim, nmax, weight, modes):
    """Sum `weight(n, k, l)` over the triads of each of the (M, dim) int `modes`.

    `weight` maps the flat index arrays of one block to per-triad values with
    the triad axis last.  Returns its leading axes plus one entry per mode,
    zero where a mode has no triad.
    """
    modes = flat_index(dim, nmax, modes)
    # an empty block fixes the shape and dtype of the result
    empty = np.empty(0, dtype=np.intp)
    probe = weight(empty, empty, empty)
    out = np.zeros(probe.shape[:-1] + (np.prod(full_shape(dim, nmax)),), dtype=probe.dtype)
    for n, k, l in triad_blocks(dim, nmax, modes):
        starts = np.flatnonzero(np.diff(n, prepend=-1))
        out[..., n[starts]] = np.add.reduceat(weight(n, k, l), starts, axis=-1)
    return out[..., modes]


def enumerate_triads(dim, nmax):
    """Every triad as flat full-box index arrays (n, k, l) in `triad_blocks`' order;
    `full_modes(dim, nmax)[n]` gives the modes.  They are int32: freed blocks
    leave heap holes that later arrays may not reuse, so their size bounds how
    far a caller's peak memory moves with the allocator's state."""
    blocks = ([tuple(a.astype(np.int32) for a in block) for block in triad_blocks(dim, nmax)]
              or [(np.empty(0, dtype=np.int32),) * 3])
    return tuple(np.concatenate(part) for part in zip(*blocks))


@lru_cache(maxsize=None)
def max_abs_delta(model, nmax):
    """Largest |delta| over all triads of the truncation, the fastest phase
    e^(i delta t): it bounds dt and sets the quadrature resolution (cached)."""
    om = omega_full(model, nmax).ravel()
    worst = 0.0
    for n, k, l in triad_blocks(model.dimension, nmax):
        worst = max(worst, float(np.abs(om[k] + om[l] - om[n]).max()))
    return worst
