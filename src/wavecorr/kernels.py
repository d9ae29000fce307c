"""Triad interaction kernels built from the oscillatory integral F.

F(delta, t) is the integral of exp(i*delta*tau) over [0, t]; the first
Picard iterate uses it.  The covariance correction G_n uses a real
companion, the integral over [0, t] of Re(-F(delta, -tau)) = sin(delta tau)/delta:

    tilde_f_kernel(delta, t) = (1 - cos(delta t))/delta^2

Both switch to a 4-term Taylor series when |delta * t| < 1e-6, which
keeps them total and continuous across the degenerate direction and avoids
the cancellation in (exp(i delta t) - 1) and (1 - cos(delta t)).  The
closed form is evaluated on every entry and the series on the degenerate
entries only, where it overwrites the closed form's value.
"""

from __future__ import annotations

import numpy as np

__all__ = ["f_kernel", "tilde_f_kernel", "DEGENERATE_PHASE"]

# |delta * t| below this uses the series branch.
DEGENERATE_PHASE = 1e-6


def _branches(delta, t, exact, series):
    """exact(x, delta) everywhere, x = delta*t, then series(x, t) written over
    the degenerate entries |x| < DEGENERATE_PHASE; scalar in gives scalar out."""
    delta = np.asarray(delta, dtype=float)
    t = np.asarray(t, dtype=float)
    x = delta * t
    small = np.abs(x) < DEGENERATE_PHASE
    # delta = 0 divides 0 by 0 on entries that the series then overwrites
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(exact(x, delta))
    if small.any():
        out[small] = series(x[small], np.broadcast_to(t, x.shape)[small])
    return out[()] if delta.ndim == t.ndim == 0 else out


def f_kernel(delta, t):
    """(exp(i delta t) - 1)/(i delta), exactly t on the degenerate branch.

    The nondegenerate branch is evaluated as 2 sin(x/2) e^(ix/2)/delta with
    x = delta*t, which is free of the cancellation in exp(ix) - 1.
    """
    def exact(x, d):
        half = 0.5 * x
        e = np.exp(1j * half)  # scaled in place
        e *= 2.0 * np.sin(half)
        e /= d
        return e

    def series(x, t):
        z = 1j * x
        return t * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))

    return _branches(delta, t, exact, series)


def tilde_f_kernel(delta, t):
    """(1 - cos(delta t))/delta^2, exactly t^2/2 on the degenerate branch.

    Evaluated as 2 sin^2(x/2)/delta^2 away from the threshold, which avoids
    the cancellation in 1 - cos for small phases.
    """
    def exact(x, d):
        half_sin = np.sin(0.5 * x)
        return 2.0 * half_sin * half_sin / (d * d)

    def series(x, t):
        x2 = x * x
        return t * t * (0.5 - x2 * (1.0 / 24.0 - x2 * (1.0 / 720.0 - x2 / 40320.0)))

    return _branches(delta, t, exact, series)
