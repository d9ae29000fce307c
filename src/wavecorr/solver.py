"""Time integration of the interaction-picture equation.

The physical equation (d/dt + L)u + eps*J(u^2) = 0 is integrated in the
variable v(t) = S(-t)u(t), which obeys

    dv/dt = -eps * S(-t) J((S(t) v)^2).

The stiff linear part is handled exactly through the semigroup phases, so
the classical RK4 step sees only the slow nonlinear dynamics and there is
no CFL constraint from the dispersion.  Quadratic products are always
formed on a zero-padded grid of the smallest 5-smooth length N >= 3*nmax + 1
per axis (the 3/2 rule), which makes the retained convolution exact
(alias-free); accuracy of the nonlinear phases still requires
dt * max|delta| of order one, which is surfaced as a warning, not enforced.

The stepping core works on coefficient arrays with arbitrary leading batch
axes; distinct trajectories share no mutable state.
"""

from __future__ import annotations

import sys
import warnings
from functools import lru_cache

import numpy as np

from . import dispersion

if sys.platform.startswith("linux"):
    # glibc returns the batch-sized arrays each RK4 stage frees to the OS, and the next
    # stage faults them back in; M_TOP_PAD keeps 4 MB of free heap at the top instead.
    # Set on import, so library callers and spawned pool workers get it too.
    import ctypes
    _libc = ctypes.CDLL(None)
    _libc.mallopt.argtypes, _libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _libc.mallopt(-2, 4 << 20)  # -2 is M_TOP_PAD

__all__ = [
    "SolverBlowUp", "StepAccuracyWarning",
    "padded_length", "dealiased_square", "interaction_rhs",
    "step_count", "evolve_array", "conserved_functional",
]


class SolverBlowUp(RuntimeError):
    """Non-finite coefficients encountered; `time` holds the failing step end."""

    def __init__(self, time):
        super().__init__(f"solution lost finiteness at t={time:g} "
                         "(time step too large or datum too rough)")
        self.time = time


class StepAccuracyWarning(UserWarning):
    """dt does not resolve the fastest nonlinear phase of the truncation."""


# ---------------------------------------------------------------------------
# Padded transforms (model independent, cached).
# ---------------------------------------------------------------------------

def padded_length(nmax):
    """FFT points per axis for the quadratic products of an nmax truncation.

    The 3/2 rule: on N >= 3*nmax + 1 points no product of two retained
    modes wraps onto a retained mode; the smallest 5-smooth such N is fast.
    """
    n = 3 * nmax + 1
    span = range(n.bit_length() + 1)
    return min(m for m in (2**i * 3**j * 5**k for i in span for j in span for k in span)
               if m >= n)


class _Transform:
    def __init__(self, dim, nmax):
        self.dim, self.nmax = dim, nmax
        self.n_grid = padded_length(nmax)
        if dim == 2:
            self.rows = (np.arange(-nmax, nmax + 1) % self.n_grid)[None, :]
            self.cols = np.arange(1, nmax + 1)[:, None]

    def square(self, coeffs):
        """Fourier coefficients of the pointwise square, on the stored lattice."""
        lead, n = coeffs.shape[:-self.dim], self.n_grid
        if self.dim == 1:
            half = np.zeros(lead + (self.nmax + 1,), dtype=complex)
            half[..., 1:] = coeffs
            phys = np.fft.irfft(half, n=n, axis=-1, norm="forward")
            phys *= phys
            return np.fft.rfft(phys, axis=-1, norm="forward")[..., 1:self.nmax + 1]
        half = np.zeros(lead + (n, self.nmax + 1), dtype=complex)
        half[..., self.rows, self.cols] = coeffs
        phys = np.fft.irfft2(half, s=(n, n), axes=(-2, -1), norm="forward")
        phys *= phys
        spec = np.fft.rfft(phys, axis=-1, norm="forward")[..., :self.nmax + 1]
        return np.fft.fft(spec, axis=-2, norm="forward")[..., self.rows, self.cols]


@lru_cache(maxsize=None)
def _transform(dim, nmax):
    return _Transform(dim, nmax)


# ---------------------------------------------------------------------------
# Right-hand side and stepping on raw arrays.
# ---------------------------------------------------------------------------

def interaction_rhs(model, nmax):
    """The right-hand side rhs(eps, t, v) = -eps * S(-t) J((S(t) v)^2).

    `v` carries leading batch axes over the stored lattice; `t` is a scalar
    or an array that broadcasts against `v` (one time per batch row).  The
    transform and the multipliers are built once here, not per call.
    """
    tr = _transform(model.dimension, nmax)
    om, ph = dispersion.omega_grid(model, nmax), dispersion.phi_grid(model, nmax)

    def rhs(eps, t, v):
        e = np.exp(1j * om * t)
        sq = tr.square(v * e)
        return (-eps) * (1j * ph) * np.conj(e) * sq
    return rhs


def _rk4_step(rhs, eps, t, h, v):
    k1 = rhs(eps, t, v)
    k2 = rhs(eps, t + 0.5 * h, v + (0.5 * h) * k1)
    k3 = rhs(eps, t + 0.5 * h, v + (0.5 * h) * k2)
    k4 = rhs(eps, t + h, v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def step_count(span, dt):
    """RK4 steps of at most dt (to rounding) that `evolve_array` takes across `span`."""
    if not span > 0:
        return 0
    if not np.isfinite(span / dt):
        raise ValueError(f"a span of {span:g} in steps of dt={dt:g} has no finite step count")
    return max(1, int(np.ceil(span / dt - 1e-9)))


def evolve_array(model, eps, coeffs, dt, t_final, *, snapshot_times=(), t_start=0.0):
    """Integrate the interaction-picture equation from t_start to t_final.

    The one solve entry point.  `coeffs` carries arbitrary leading batch
    axes over the stored lattice.  Returns (final, snaps, alive, blow_time):
    `snaps` is a list of (time, array) pairs, hit exactly by shortening
    steps, `alive` a boolean batch mask, `blow_time` the time at which each
    dead trajectory lost finiteness (nan when alive).  Raises ValueError for
    a non-finite time, a final time before the start, a step that is not a
    positive finite number or too small to count across the span, or
    coefficients whose trailing shape is not the model's stored lattice;
    warns when dt under-resolves the fastest nonlinear phase.
    """
    if not (np.isfinite(t_start) and np.isfinite(t_final)):
        raise ValueError(f"times must be finite, got t_start={t_start}, t_final={t_final}")
    if t_final < t_start:
        raise ValueError(f"t_final={t_final} precedes t_start={t_start}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a positive finite number, got {dt}")
    dim = model.dimension
    shape = np.shape(coeffs)
    nmax = shape[-dim] if len(shape) >= dim else 0
    if len(shape) < dim or shape[-dim:] != dispersion.stored_shape(dim, nmax):
        raise ValueError(f"coefficient shape {shape} does not end in a stored "
                         f"lattice of model {model.kind}")
    snap_set = sorted(set(float(s) for s in snapshot_times))
    for s in snap_set:
        if not t_start - 1e-12 <= s <= t_final + 1e-12:  # false for nan
            raise ValueError(f"snapshot time {s} outside [{t_start}, {t_final}]")
    fastest = dispersion.max_abs_delta(model, nmax) if eps != 0 else 0.0
    if min(dt, t_final - t_start) * fastest > 3.0:  # no step outlasts the span
        warnings.warn(
            f"dt={dt:g} under-resolves the fastest nonlinear phase of "
            f"the nmax={nmax} truncation (max |delta| = {fastest:.6g}); "
            "expect degraded accuracy on the highest modes",
            StepAccuracyWarning, stacklevel=2)
    rhs = interaction_rhs(model, nmax)

    lead = shape[:-dim]
    v = np.array(coeffs, dtype=complex)
    alive = np.ones(lead, dtype=bool)
    blow_time = np.full(lead, np.nan)

    spectral_axes = tuple(range(-dim, 0))
    snaps = []
    targets = [s for s in snap_set if s > t_start + 1e-12]
    if not targets or targets[-1] < t_final - 1e-12:
        targets = targets + [t_final]
    if snap_set and abs(snap_set[0] - t_start) <= 1e-12:
        snaps.append((t_start, v.copy()))

    t_seg = t_start
    # overflow to non-finite values is detected explicitly after each step
    with np.errstate(invalid="ignore", over="ignore"):
        for target in targets:
            span = target - t_seg
            nsteps = step_count(span, dt)
            if not nsteps:
                continue
            h = span / nsteps
            for i in range(nsteps):
                t_now = t_seg + i * h
                v = _rk4_step(rhs, eps, t_now, h, v)
                finite = np.isfinite(v).all(axis=spectral_axes)
                if not finite.all():
                    newly = alive & ~finite
                    if newly.any():
                        blow_time = np.where(newly, t_now + h, blow_time)
                        alive = alive & finite
                        v = np.where(finite[(...,) + (None,) * dim], v, 0.0)
            t_seg = target
            if any(abs(target - s) <= 1e-12 for s in snap_set):
                snaps.append((target, v.copy()))
    return v, snaps, alive, blow_time


# ---------------------------------------------------------------------------
# Public field-level operations.
# ---------------------------------------------------------------------------

def dealiased_square(field):
    """Coefficients of the pointwise square on the stored lattice.

    The product is formed on the smallest 5-smooth grid of N >= 3*nmax + 1
    points per axis (the 3/2 rule), so it is the exact convolution for every
    retained mode; the n1 = 0 output content (e.g. the constant part of the
    square) is not representable and is dropped, which matches its fate
    under the subsequent application of J.
    """
    return field.with_coeffs(_transform(field.dimension, field.nmax).square(field.coeffs))


def conserved_functional(model, physical_field):
    """The flow invariant: H^1 energy for BBM, L^2 mass for KdV/KP."""
    c2 = np.abs(physical_field.coeffs) ** 2
    if model.kind == "bbm":
        n = dispersion.mode_grids(1, physical_field.nmax)[0].astype(float)
        return float(2.0 * np.sum((1.0 + n * n) * c2))
    return float(2.0 * np.sum(c2))
