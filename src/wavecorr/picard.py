"""First Picard iterate oracles and second-order remainder extraction.

The interaction-picture solution expands as v = u0 + eps*b + eps^2*c.  The
first iterate has the closed triad form

    b_n(t) = -i phi(n) sum_(k+l=n) a_k a_l F(delta_n^kl, t)

and, equivalently, the integral form -int_0^t S(-tau) J((S(tau) u0)^2) dtau;
both are implemented and serve as mutual oracles.  The remainder c is
defined by subtraction from a full solve rather than by integrating its own
evolution equation, so there is exactly one solver code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dispersion
from .field import full_array, sobolev_norm
from .kernels import f_kernel
from .solver import evolve_array, interaction_rhs

__all__ = [
    "first_iterate_closed_form", "first_iterate_quadrature", "default_panels",
    "remainders", "GrowthScan", "remainder_growth_scan",
]

_QUADRATURE_ROWS = 1024  # quadrature nodes per right-hand-side call; bounds its arrays


def default_panels(model, nmax, t):
    """Enough Simpson panels to resolve the fastest oscillation e^(i delta tau)."""
    if t == 0.0:
        return 16
    return max(16, int(math.ceil(8.0 * abs(t) * dispersion.max_abs_delta(model, nmax) / math.pi)))


def first_iterate_closed_form(u0, model, t):
    """Exact triad sum for b(t) over the truncated lattice: a field at a time
    `t`, or at a 1-d array of times the coefficients, shape t.shape +
    stored_shape, from one triad pass (for KP one F value per triad and its
    mirror, see `dispersion.triad_sums`)."""
    nmax, dim = u0.nmax, u0.dimension
    if model.dimension != dim:
        raise ValueError(f"datum dimension {dim} does not match model {model.kind}")
    a = full_array(u0).ravel()
    om = dispersion.omega_full(model, nmax).ravel()
    times = np.asarray(t, dtype=float)[..., None]

    def weight(n, k, l, kern):
        return a[k] * a[l] * kern

    sums = dispersion.triad_sums(dim, nmax, om, lambda delta: f_kernel(delta, times), weight)
    coeffs = -1j * dispersion.phi_grid(model, nmax) * sums.reshape(np.shape(t) + u0.coeffs.shape)
    return u0.with_coeffs(coeffs) if np.ndim(t) == 0 else coeffs


def first_iterate_quadrature(u0, model, t, panels=None):
    """Composite Simpson quadrature of -S(-tau) J((S(tau) u0)^2) over [0, t].

    Converges at fourth order in the panel width; the default panel count
    resolves the fastest triad oscillation of the truncation.
    """
    nmax, dim = u0.nmax, u0.dimension
    if model.dimension != dim:
        raise ValueError(f"datum dimension {dim} does not match model {model.kind}")
    if panels is None:
        panels = default_panels(model, nmax, t)
    if panels < 4:
        raise ValueError("need at least 4 Simpson panels")
    if t == 0.0:
        return u0.with_coeffs(np.zeros_like(u0.coeffs))

    h = t / panels
    taus = 0.5 * h * np.arange(2 * panels + 1)
    weights = np.full(taus.size, 2.0 * h / 6.0)
    weights[1::2] = 4.0 * h / 6.0
    weights[0] = weights[-1] = h / 6.0

    # the integrand is the solver's right-hand side at eps = 1, one tau per row
    rhs = interaction_rhs(model, nmax)
    rows = (-1,) + (1,) * dim
    acc = np.zeros_like(u0.coeffs)
    for start in range(0, taus.size, _QUADRATURE_ROWS):
        tau = taus[start:start + _QUADRATURE_ROWS].reshape(rows)
        w = weights[start:start + _QUADRATURE_ROWS].reshape(rows)
        acc = acc + np.sum(w * rhs(1.0, tau, u0.coeffs), axis=0)
    return u0.with_coeffs(acc)


# ---------------------------------------------------------------------------
# Remainder extraction and growth scans.
# ---------------------------------------------------------------------------

def remainders(u0, model, epsilon, times, dt):
    """Remainders c = (v - u0 - eps b) / eps^2 of the datum u0 at `times`.

    `epsilon` is a scalar or an array; each eps is one batch row of a single
    `evolve_array` solve.  Returns (times, c, blow): the distinct times in
    increasing order, c with shape times x eps.shape x stored lattice (NaN
    in a row from that row's blow-up time on), and each row's blow-up time,
    shape eps.shape (inf where the row stays finite).
    """
    eps = np.asarray(epsilon, dtype=float)
    if not np.all(eps > 0):  # false for nan
        raise ValueError(f"remainder extraction needs epsilon > 0, got {epsilon}")
    batch = np.broadcast_to(u0.coeffs, eps.shape + u0.coeffs.shape)
    _, snaps, _, blow = evolve_array(model, eps, batch, dt, max(times), snapshot_times=times)
    blow = np.where(np.isnan(blow), math.inf, blow)
    t = np.array([s for s, _ in snaps])
    lead = t.shape + (1,) * eps.ndim
    b = first_iterate_closed_form(u0, model, t).reshape(lead + u0.coeffs.shape)
    rows = eps.reshape(eps.shape + (1,) * u0.dimension)
    c = (np.stack([v for _, v in snaps]) - u0.coeffs - rows * b) / rows ** 2
    c[t.reshape(lead) >= blow] = np.nan
    return t, c, blow


@dataclass
class GrowthScan:
    """Norms of the extracted remainder along a time grid."""

    model_kind: str
    epsilon: float
    nmax: int
    rows: list            # (t, norm) pairs
    truncated: bool = False

    @property
    def fitted_exponent(self):
        pts = [(t, v) for t, v in self.rows if t > 0.0 and v > 0.0]
        if len(pts) < 2:
            return None
        logs = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
        return float(np.polyfit(logs[0], logs[1], 1)[0])

    def to_csv(self):
        lines = ["t,norm,model,epsilon,nmax"]
        for t, v in self.rows:
            lines.append(f"{t:.17g},{v:.17g},{self.model_kind},"
                         f"{self.epsilon:.17g},{self.nmax}")
        return "\n".join(lines) + "\n"


def remainder_growth_scan(u0, model, epsilon, time_grid, dt):
    """Extract c along the grid from a single solve; fits a power law in t.

    A solver blow-up truncates the table at the failure time and flags it.
    """
    times, c, blow = remainders(u0, model, epsilon, time_grid, dt)
    # BBM's natural remainder energy is H^1; the KP family (and KdV) use L^2
    order = 1.0 if model.kind == "bbm" else 0.0
    return GrowthScan(model.kind, epsilon, u0.nmax,
                      [(float(t), sobolev_norm(u0.with_coeffs(ct), order))
                       for t, ct in zip(times, c) if t < blow], bool(blow < math.inf))
