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
from .field import SpectralField, full_array, sobolev_norm
from .kernels import f_kernel
from .solver import SolverBlowUp, evolve_array, interaction_rhs

__all__ = [
    "first_iterate_closed_form", "first_iterate_quadrature", "default_panels",
    "PicardDecomposition", "decompose",
    "GrowthScan", "remainder_growth_scan",
]

_QUADRATURE_ROWS = 1024  # quadrature nodes per right-hand-side call; bounds its arrays


def default_panels(model, nmax, t):
    """Enough Simpson panels to resolve the fastest oscillation e^(i delta tau)."""
    if t == 0.0:
        return 16
    return max(16, int(math.ceil(8.0 * abs(t) * dispersion.max_abs_delta(model, nmax) / math.pi)))


def first_iterate_closed_form(u0, model, t):
    """Exact triad sum for b(t) over the truncated lattice."""
    nmax, dim = u0.nmax, u0.dimension
    if model.dimension != dim:
        raise ValueError(f"datum dimension {dim} does not match model {model.kind}")
    a = full_array(u0).ravel()
    om = dispersion.omega_full(model, nmax).ravel()

    def weight(n, k, l):
        return a[k] * a[l] * f_kernel(om[k] + om[l] - om[n], t)

    sums = dispersion.triad_sums(dim, nmax, weight, dispersion.stored_modes(dim, nmax))
    return u0.with_coeffs(-1j * dispersion.phi_grid(model, nmax) * sums.reshape(u0.coeffs.shape))


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

@dataclass(frozen=True)
class PicardDecomposition:
    """v(eps; t) = datum + eps * first_iterate + eps^2 * remainder, exactly."""

    time: float
    epsilon: float
    datum: SpectralField
    first_iterate: SpectralField
    remainder: SpectralField


def _remainders(u0, model, epsilon, times, dt):
    """Remainders c = (v - u0 - eps b) / eps^2 at `times`, from one solve.

    Returns the (t, b, c) triples in increasing t, up to the time at which
    the trajectory loses finiteness, and that time (inf when it does not).
    """
    if epsilon <= 0.0:
        raise ValueError("remainder extraction needs epsilon > 0")
    _, snaps, alive, blow = evolve_array(model, epsilon, u0.coeffs, dt, max(times),
                                         snapshot_times=times)
    cutoff = math.inf if alive else float(blow)
    rows = []
    for t, v in snaps:
        if t >= cutoff:
            break
        b = first_iterate_closed_form(u0, model, t)
        rows.append((t, b, u0.with_coeffs((v - u0.coeffs - epsilon * b.coeffs) / epsilon ** 2)))
    return rows, cutoff


def decompose(u0, model, epsilon, t, dt):
    """Solve, subtract the closed-form iterate, and return the decomposition.

    Raises SolverBlowUp when the trajectory loses finiteness.
    """
    rows, blow = _remainders(u0, model, epsilon, [t], dt)
    if blow < math.inf:
        raise SolverBlowUp(blow)
    (time, b, c), = rows
    return PicardDecomposition(time, epsilon, u0, b, c)


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
    rows, blow = _remainders(u0, model, epsilon, time_grid, dt)
    # BBM's natural remainder energy is H^1; the KP family (and KdV) use L^2
    order = 1.0 if model.kind == "bbm" else 0.0
    return GrowthScan(model.kind, epsilon, u0.nmax,
                      [(t, sobolev_norm(c, order)) for t, _, c in rows], blow < math.inf)
