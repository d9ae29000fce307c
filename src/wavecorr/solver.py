"""Time integration of the interaction-picture equation.

The physical equation (d/dt + L)u + eps*J(u^2) = 0 is integrated in the
variable v(t) = S(-t)u(t), which obeys

    dv/dt = -eps * S(-t) J((S(t) v)^2).

The stiff linear part is handled exactly through the semigroup phases, so
the classical RK4 step sees only the slow nonlinear dynamics and there is
no CFL constraint from the dispersion.  The phases come from one exponential
per segment of equal steps and the per-step recurrence e(t + h) = e(t) e(h),
which moves results by rounding only.  Quadratic products are always formed
on a zero-padded grid of N = padded_length(nmax) points per axis, the
smallest 5-smooth N >= 3*nmax + 1 (the 3/2 rule), which makes the retained
convolution exact (alias-free): with the real FFT in 1-d, and with dense DFT
matrices on the same N points in 2-d; accuracy of the nonlinear phases still
requires dt * max|delta| of order one, which is surfaced as a warning, not
enforced.

The stepping core works on coefficient arrays with arbitrary leading batch
axes; distinct trajectories share no mutable state.  Each `evolve_array`
call allocates the arrays its stages write (the stage input, k1-k4 and the
square's grids) once, sized to its batch, and no buffer outlives the call.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from . import dispersion

if sys.platform.startswith("linux"):
    # glibc returns the batch-sized 1-d FFT outputs each RK4 stage frees to the OS, and
    # the next stage faults them back in; M_TOP_PAD keeps 4 MB of free heap at the top
    # instead (every other stage array is a buffer of its evolve_array call).  Set on
    # import, so library callers and spawned pool workers get it too.
    import ctypes
    _libc = ctypes.CDLL(None)
    _libc.mallopt.argtypes, _libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _libc.mallopt(-2, 4 << 20)  # -2 is M_TOP_PAD

__all__ = [
    "StepAccuracyWarning",
    "padded_length", "dealiased_square", "interaction_rhs",
    "step_count", "evolve_array", "conserved_functional",
]


class StepAccuracyWarning(UserWarning):
    """dt does not resolve the fastest nonlinear phase of the truncation."""


# ---------------------------------------------------------------------------
# Padded transforms (model independent).
# ---------------------------------------------------------------------------

def padded_length(nmax):
    """Grid points per axis for the quadratic products of an nmax truncation.

    The 3/2 rule: on N >= 3*nmax + 1 points no product of two retained
    modes wraps onto a retained mode; the smallest 5-smooth such N keeps
    the 1-d FFT fast.
    """
    n = 3 * nmax + 1
    span = range(n.bit_length() + 1)
    return min(m for m in (2**i * 3**j * 5**k for i in span for j in span for k in span)
               if m >= n)


def _dft_matrices(nmax, n):
    """The four real matrices of the 2-d square on n points per axis.

    A complex array enters and leaves as its float view, (re, im)
    interleaved on the last axis; in between, each n1 row holds its real
    and imaginary parts as two blocks of n grid values.  In order of use:
    stored n2 -> x2, n1 -> x1 with the conjugate half folded in as 2 Re,
    x1 -> n1 and x2 -> n2; the last carries both 1/n factors.
    """
    def cos_sin(modes):  # of 2 pi k j / n over (mode k, grid point j)
        angle = (2.0 * np.pi / n) * (np.outer(modes, np.arange(n)) % n)
        return np.cos(angle), np.sin(angle)
    c, s = cos_sin(np.arange(-nmax, nmax + 1))
    to_x2 = np.stack((np.hstack((c, s)), np.hstack((-s, c))), axis=1).reshape(-1, 2 * n)
    c, s = cos_sin(np.arange(1, nmax + 1))
    to_x1 = np.stack((2.0 * c.T, -2.0 * s.T), axis=-1).reshape(n, 2 * nmax)
    from_x1 = np.ascontiguousarray(0.5 * to_x1.T)
    from_x2 = np.ascontiguousarray(to_x2.T / (n * n))
    return to_x2, to_x1, from_x1, from_x2


def _squarer(dim, nmax, lead):
    """square(v, e): the pointwise square of v * e on the stored lattice, for
    v * e of batch shape `lead`, formed on n = padded_length(nmax) points per
    axis.  Its buffers are allocated here, once, and the result is one of
    them: the next call overwrites it.

    1-d squares with the real FFT.  2-d squares with the dense DFT as four
    real matrix products (`_dft_matrices`, built anew on every call): on
    the small grids of the 2-d runs the call overhead of the FFT outweighs
    its arithmetic.  Against the 2-d FFT, one square took 0.24 of its time
    at nmax=8 (0.32 in a batch of 128), 0.4 (0.6) at nmax=16 and about the
    same at nmax=32; from nmax=40 to 64 it is 1.2-2.5x slower, and slower
    still when OpenBLAS threads share their cores with other work.
    `np.matmul` runs one GEMM per stacked matrix, so each batch row gets the
    bits it gets alone.  1-d keeps the FFT: there one GEMM would span the
    whole batch and round each row by the batch size (at nmax=5, batches of
    1, 2, 3, 5, 7 and 9 rows differed from the same rows of 300), and in
    batches of 256 it took 0.8-1.2 of the FFT's time from nmax=32 on.
    """
    n, m = padded_length(nmax), nmax
    if dim == 1:
        half = np.zeros(lead + (m + 1,), dtype=complex)

        def square(v, e):
            np.multiply(v, e, out=half[..., 1:])
            phys = np.fft.irfft(half, n=n, axis=-1, norm="forward")
            phys *= phys
            return np.fft.rfft(phys, axis=-1, norm="forward")[..., 1:m + 1]
        return square
    to_x2, to_x1, from_x1, from_x2 = _dft_matrices(m, n)
    ve, out = (np.empty(lead + (m, 2 * m + 1), dtype=complex) for _ in range(2))
    grid, phys = np.empty(lead + (m, 2 * n)), np.empty(lead + (n, n))
    planes = grid.reshape(lead + (2 * m, n))

    def square(v, e):
        np.matmul(np.multiply(v, e, out=ve).view(float), to_x2, out=grid)
        np.matmul(to_x1, planes, out=phys)
        np.multiply(phys, phys, out=phys)
        np.matmul(from_x1, phys, out=planes)
        np.matmul(grid, from_x2, out=out.view(float))
        return out
    return square


# ---------------------------------------------------------------------------
# Right-hand side and stepping on raw arrays.
# ---------------------------------------------------------------------------

def interaction_rhs(model, nmax):
    """The right-hand side rhs(eps, t, v) = -eps * S(-t) J((S(t) v)^2).

    `v` carries leading batch axes over the stored lattice; `eps` and `t`
    are scalars or arrays that broadcast against `v` (one time per batch
    row, as the Picard quadrature passes it).  Each call sizes its square's
    buffers to its own batch.  The stepper evaluates the same expression on
    buffers of its solve, with the phase e = exp(i omega t) taken by
    recurrence.
    """
    dim = model.dimension
    i_om = 1j * dispersion.omega_grid(model, nmax)
    i_ph = 1j * dispersion.phi_grid(model, nmax)

    def rhs(eps, t, v):
        e = np.exp(i_om * t)
        square = _squarer(dim, nmax, np.broadcast_shapes(np.shape(v), e.shape)[:-dim])
        return (-eps) * i_ph * np.conj(e) * square(v, e)
    return rhs


def _rk4_step(rhs, eps, h, v, e, work):
    """One RK4 step of v, in place: `e` holds exp(i omega t) at t, t + h/2
    and t + h, `eps` the factors -eps i phi conj(e) at the same times, and
    `work` the stage input and k1-k4."""
    (f0, f_half, f1), (e0, e_half, e1), (w, k1, k2, k3, k4) = eps, e, work
    rhs(k1, f0, e0, v)
    rhs(k2, f_half, e_half, np.add(v, np.multiply(0.5 * h, k1, out=w), out=w))
    rhs(k3, f_half, e_half, np.add(v, np.multiply(0.5 * h, k2, out=w), out=w))
    rhs(k4, f1, e1, np.add(v, np.multiply(h, k3, out=w), out=w))
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= h / 6.0
    v += k2
    return v


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
    axes over the stored lattice; `eps` is a scalar or an array that
    broadcasts to those batch axes, one eps per row.  Returns (final, snaps,
    alive, blow_time): `snaps` is a list of (time, array) pairs, hit exactly
    by shortening steps, `alive` a boolean batch mask, `blow_time` the time
    at which each dead trajectory lost finiteness (nan when alive).  Raises
    ValueError for a non-finite time, a final time before the start, a step
    that is not a positive finite number or too small to count across the
    span, coefficients whose trailing shape is not the model's stored
    lattice, or an eps that does not broadcast to the batch shape; warns
    when dt under-resolves the fastest nonlinear phase.
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
    lead, rows = shape[:-dim], np.shape(eps)
    if len(rows) > len(lead) or any(r not in (1, b) for r, b in zip(rows[::-1], lead[::-1])):
        raise ValueError(f"eps of shape {rows} does not broadcast to the batch shape {lead}")
    snap_set = sorted(set(float(s) for s in snapshot_times))
    for s in snap_set:
        if not t_start - 1e-12 <= s <= t_final + 1e-12:  # false for nan
            raise ValueError(f"snapshot time {s} outside [{t_start}, {t_final}]")
    fastest = dispersion.max_abs_delta(model, nmax) if np.any(eps != 0) else 0.0
    if min(dt, t_final - t_start) * fastest > 3.0:  # no step outlasts the span
        warnings.warn(
            f"dt={dt:g} under-resolves the fastest nonlinear phase of "
            f"the nmax={nmax} truncation (max |delta| = {fastest:.6g}); "
            "expect degraded accuracy on the highest modes",
            StepAccuracyWarning, stacklevel=2)
    square = _squarer(dim, nmax, lead)

    def rhs(k, f, e, w):  # k = f * square(w * e) = -eps * S(-t) J((S(t) w)^2)
        np.multiply(f, square(w, e), out=k)

    i_om = 1j * dispersion.omega_grid(model, nmax)
    v = np.array(coeffs, dtype=complex)
    work = tuple(np.empty_like(v) for _ in range(5))
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
        # eps over size-1 lattice axes: a scalar keeps the lattice shape, rows add batch axes
        eps_ph = -np.reshape(eps, rows + (1,) * dim) * (1j * dispersion.phi_grid(model, nmax))
        for target in targets:
            span = target - t_seg
            nsteps = step_count(span, dt)
            if not nsteps:
                continue
            h = span / nsteps
            # three exps per segment; each step's end phase and factor start the next step
            half, full = np.exp(i_om * (0.5 * h)), np.exp(i_om * h)
            e1 = np.exp(i_om * t_seg)
            f1 = eps_ph * np.conj(e1)
            for i in range(nsteps):
                t_now, e0, f0 = t_seg + i * h, e1, f1
                e_half, e1 = e0 * half, e0 * full
                f_half, f1 = eps_ph * np.conj(e_half), eps_ph * np.conj(e1)
                _rk4_step(rhs, (f0, f_half, f1), h, v, (e0, e_half, e1), work)
                finite = np.isfinite(v).all(axis=spectral_axes)
                if not finite.all():
                    blow_time = np.where(alive & ~finite, t_now + h, blow_time)
                    alive = alive & finite
                    v[~finite] = 0.0
            t_seg = target
            if any(abs(target - s) <= 1e-12 for s in snap_set):
                snaps.append((target, v.copy()))
    return v, snaps, alive, blow_time


# ---------------------------------------------------------------------------
# Public field-level operations.
# ---------------------------------------------------------------------------

def dealiased_square(field):
    """Coefficients of the pointwise square on the stored lattice.

    The product is formed on N = padded_length(nmax) points per axis, the
    smallest 5-smooth N >= 3*nmax + 1 (the 3/2 rule), by the real FFT in 1-d
    and by DFT matrices in 2-d, so it is the exact convolution for every
    retained mode; the n1 = 0 output content (e.g. the constant part of the
    square) is not representable and is dropped, which matches its fate
    under the subsequent application of J.
    """
    return field.with_coeffs(_squarer(field.dimension, field.nmax, ())(field.coeffs, 1.0))


def conserved_functional(model, physical_field):
    """The flow invariant: H^1 energy for BBM, L^2 mass for KdV/KP."""
    c2 = np.abs(physical_field.coeffs) ** 2
    if model.kind == "bbm":
        n = dispersion.mode_grids(1, physical_field.nmax)[0].astype(float)
        return float(2.0 * np.sum((1.0 + n * n) * c2))
    return float(2.0 * np.sum(c2))
