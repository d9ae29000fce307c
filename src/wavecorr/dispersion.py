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

The full-box tables `omega_full` and `phi_full` are the one float form of
the relation: every caller builds them from `_OMEGA` and `_PHI` when it
needs them and keeps no copy, so a relation injected there reaches every
path.  `omega_exact` and `delta_exact` are exact pointwise oracles.

A triad is a pair (k, l) with k + l = n; its pulsation mismatch is
delta = omega(k) + omega(l) - omega(n), computed directly from omega.  The
factored rational forms are provided separately as test oracles only.

`triad_blocks` is the one triad enumeration.  It yields each unordered
triad once (k <= l by flat full-box index), so a triad sum looks delta up
from `omega_full(...).ravel()`, gathers its per-triad weight, counts the
off-diagonal triads twice and reduces per output mode (`triad_sums`).
`enumerate_triads` expands the blocks into the ordered catalog.

KP-I and KP-II have omega even in n2, so the transverse mirror
R(n1, n2) = (n1, -n2) maps each triad to one with the same delta, bit for
bit: `triad_sums` (G_n and the first iterate b) and `max_abs_delta` walk
the output modes with n2 >= 0 only and reuse each delta for the mirror.
`_mirror` takes the map from the omega table, the identity in 1-d or for a
relation that is not even in n2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "DispersionModel", "KDV", "BBM", "KPI", "KPII", "MODELS", "get_model",
    "omega_exact", "delta_exact",
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


# Dispatch tables are looked up at call time, and nothing caches what they
# give, so tests can inject a perturbed relation (the self-check suite relies
# on this seam).

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
# the self-check suite and the tests; the omega tables never use them.
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

# Candidate (n, k) pairs per block, before the k <= l cut keeps about half,
# for a caller that keeps 32 bytes per triad (three int64 indices and one
# float64, or four float64 times): per-block arrays stay under 1 MB.  On a
# 2-core shared host the KP-II nmax=32 4-time `predict` took a median 0.74 s
# of CPU at 1<<13 (one output mode per block: per-block overhead dominates),
# 0.53-0.59 s from 1<<14 to 1<<16 and 0.64 s at 1<<17.
_TRIAD_BLOCK = 1 << 15


def triad_blocks(dim, nmax, modes=None, triad_bytes=32):
    """Yield flat full-box index arrays (n, k, l) covering every unordered triad
    k + l = n once, as the ordered triad with k <= l.

    `modes` holds the flat indices of the output modes n (any active mode,
    either half-lattice); by default every mode of the truncated active
    lattice.  k and l range over the active modes of the box.  Triads come
    grouped by n in the order of `modes`, k ascending within a group; a
    block holds whole groups and at most _TRIAD_BLOCK * 32 // triad_bytes
    candidate pairs (unless one group alone has more), which bounds peak
    memory for a caller that keeps `triad_bytes` per triad.
    """
    full = full_modes(dim, nmax)
    active = np.flatnonzero(full[:, 0])
    axis = np.arange(-nmax, nmax + 1)
    # the flat index is affine in the mode: flat(k) + flat(l) = flat(n) + flat(0)
    origin = flat_index(dim, nmax, np.zeros(dim, dtype=int))
    modes = active if modes is None else np.asarray(modes).reshape(-1)
    per_block = max(1, _TRIAD_BLOCK * 32 // (triad_bytes * active.size))
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
        # k <= l means 2 k <= n + origin, a prefix of the ascending active k
        ok &= np.arange(active.size) < np.searchsorted(active, (n + origin) // 2,
                                                       side="right")[:, None]
        i, j = np.nonzero(ok)
        if i.size:
            n_i, k_j = n[i], active[j]
            yield n_i, k_j, n_i + origin - k_j


def _mirror(dim, nmax, om):
    """Flat full-box index of each mode's transverse mirror R(n1, n2) = (n1, -n2)
    when the flat omega table `om` is bitwise invariant under R, else of the
    mode itself; R n <= n by flat index exactly when R is the identity or n2 >= 0."""
    index = np.arange(om.size).reshape(full_shape(dim, nmax))
    if dim == 2 and om.tobytes() == om.reshape(index.shape)[:, ::-1].tobytes():
        index = index[:, ::-1]
    return index.ravel()


def triad_sums(dim, nmax, om, kernel, weight):
    """Sum weight(n, k, l, kernel(delta)) over the triads of every stored mode.

    `om` is the flat full-box omega table, delta = om[k] + om[l] - om[n];
    `kernel` maps a block's deltas, and `weight` the flat index arrays of its
    triads and their kernel values, to per-triad values with the triad axis
    last.  The weight must be symmetric in (k, l): each unordered triad is
    evaluated once and counted twice when k != l.  Only the stored modes
    with R n <= n (R from `_mirror`) are enumerated; each kernel value also
    serves the triad (Rn, Rk, Rl), with that triad's weight, when Rn != n.
    Returns the leading axes plus one entry per stored mode.
    """
    stored = flat_index(dim, nmax, stored_modes(dim, nmax))
    mirror = _mirror(dim, nmax, om)
    # an empty block fixes the shape and dtype of the result
    empty = np.empty(0, dtype=np.intp)
    probe = weight(empty, empty, empty, kernel(om[empty]))
    out = np.zeros(probe.shape[:-1] + (om.size,), dtype=probe.dtype)

    def add(n, k, l, kern):
        starts = np.flatnonzero(np.diff(n, prepend=-1))
        out[..., n[starts]] = np.add.reduceat(weight(n, k, l, kern), starts, axis=-1)

    triad_bytes = probe.itemsize * max(1, int(np.prod(probe.shape[:-1])))
    for n, k, l in triad_blocks(dim, nmax, stored[mirror[stored] <= stored], triad_bytes):
        kern = kernel(om[k] + om[l] - om[n]) * np.where(k == l, 1.0, 2.0)
        add(n, k, l, kern)
        moved = mirror[n] != n
        if moved.any():
            add(mirror[n[moved]], mirror[k[moved]], mirror[l[moved]], kern[..., moved])
    return out[..., stored]


def enumerate_triads(dim, nmax):
    """Every ordered triad as flat full-box int32 index arrays (n, k, l), n
    ascending and k ascending within each n; `full_modes(dim, nmax)[n]` gives
    the modes.  Each block of `triad_blocks` gains the mirrors (n, l, k) of its
    k < l triads and goes into one preallocated catalog, since freed per-block
    arrays leave heap holes that move a caller's peak memory."""
    blocks = [tuple(a.astype(np.int32) for a in block) for block in triad_blocks(dim, nmax)]
    out = np.empty((3, sum(2 * k.size - np.count_nonzero(k == l) for _, k, l in blocks)),
                   dtype=np.int32)
    at = 0
    for n, k, l in blocks:
        # reversed, the mirrors of a group have k ascending above its own k
        off = k < l
        n, k, l = (np.concatenate([a, b[off][::-1]]) for a, b in ((n, n), (k, l), (l, k)))
        order = np.argsort(n, kind="stable")
        out[:, at:at + n.size] = n[order], k[order], l[order]
        at += n.size
    return tuple(out)


def max_abs_delta(model, nmax):
    """Largest |delta| over all triads of the truncation, the fastest phase
    e^(i delta t): it bounds dt and sets the quadrature resolution.
    |delta| is symmetric in (k, l) and invariant under the map R of
    `_mirror`, so the unordered triads of the active modes with R n <= n
    suffice: for KP, those with n2 >= 0."""
    om = omega_full(model, nmax).ravel()
    mirror = _mirror(model.dimension, nmax, om)
    active = np.flatnonzero(full_modes(model.dimension, nmax)[:, 0])
    worst = 0.0
    for n, k, l in triad_blocks(model.dimension, nmax, active[mirror[active] <= active]):
        worst = max(worst, float(np.abs(om[k] + om[l] - om[n]).max()))
    return worst
