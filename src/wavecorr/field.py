"""Truncated Hermitian-symmetric spectral fields and the linear operators.

A real field with zero x1-mean is determined by its coefficients on the
half-lattice n1 >= 1; the other half is the conjugate mirror and the n1 = 0
modes vanish identically.  Only the half-lattice is stored, which makes the
reality and zero-mean invariants unbreakable by construction.

Storage layout (lexicographic mode order):

    d=1   coeffs[j]        <->  n = j + 1,                j = 0..nmax-1
    d=2   coeffs[i, j]     <->  n = (i + 1, j - nmax),    i = 0..nmax-1

Sobolev norms use the l1 mode size |n| = sum_j |n_j| and count both
half-lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dispersion

__all__ = [
    "SpectralField", "zero_field", "field_from_modes", "random_field",
    "coefficient", "full_array", "apply_semigroup", "apply_j",
    "sobolev_norm", "l2_norm",
]


@dataclass(frozen=True)
class SpectralField:
    """Half-lattice coefficient array of a real, zero-x1-mean field."""

    nmax: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        dim = arr.ndim
        if dim not in (1, 2) or arr.shape != dispersion.stored_shape(dim, self.nmax):
            raise ValueError(
                f"coefficient array shape {arr.shape} does not match nmax={self.nmax}")
        bad = arr.size - np.count_nonzero(np.isfinite(arr))
        if bad:
            raise ValueError(f"non-finite coefficients: {bad} of {arr.size}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def dimension(self):
        return self.coeffs.ndim

    def with_coeffs(self, coeffs):
        return SpectralField(self.nmax, coeffs)


def zero_field(dim, nmax):
    return SpectralField(nmax, np.zeros(dispersion.stored_shape(dim, nmax), dtype=complex))


def field_from_modes(dim, nmax, modes):
    """Build a field from {mode: coefficient}; n1 < 0 entries set the mirror."""
    full = np.zeros(dispersion.full_shape(dim, nmax), dtype=complex)
    for n, value in modes.items():
        idx = dispersion.box_index(dim, nmax, n)
        if idx[0] == nmax:
            raise ValueError("modes with zero first component carry no data")
        full[idx] = value
        full[tuple(2 * nmax - i for i in idx)] = np.conj(value)
    return SpectralField(nmax, full[nmax + 1:])


def random_field(dim, nmax, rng, scale=1.0):
    """Gaussian coefficients with a soft exponential envelope; test helper."""
    shape = dispersion.stored_shape(dim, nmax)
    size = np.abs(dispersion.mode_l1(dim, nmax))
    amp = scale * np.exp(-0.5 * size)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(nmax, amp * z / np.sqrt(2.0))


def coefficient(field, n):
    """Coefficient at any mode of the full box (conjugate mirror, zeros on n1=0)."""
    return complex(full_array(field)[dispersion.box_index(field.dimension, field.nmax, n)])


def full_array(field):
    """Dense coefficient array over the full box, index j <-> component j - nmax.

    Rows nmax + 1.. hold the stored half; the conjugate mirror of a mode n
    sits at the point reflection -n, which is the flip of every axis.
    """
    nmax = field.nmax
    out = np.zeros(dispersion.full_shape(field.dimension, nmax), dtype=complex)
    out[nmax + 1:] = field.coeffs
    out[:nmax] = np.conj(np.flip(field.coeffs))
    return out


def apply_semigroup(model, field, t):
    """Multiply each coefficient by exp(i omega(n) t); preserves every H^s norm."""
    phase = np.exp(1j * dispersion.omega_grid(model, field.nmax) * float(t))
    return field.with_coeffs(field.coeffs * phase)


def apply_j(model, field):
    """Coefficientwise multiplication by i phi(n) (the nonlinearity multiplier)."""
    return field.with_coeffs(field.coeffs * (1j * dispersion.phi_grid(model, field.nmax)))


def sobolev_norm(field, s):
    """H^s norm with the l1 mode size, counted over both half-lattices."""
    weight = dispersion.mode_l1(field.dimension, field.nmax).astype(float) ** (2.0 * s)
    return float(np.sqrt(2.0 * np.sum(weight * np.abs(field.coeffs) ** 2)))


def l2_norm(field):
    return sobolev_norm(field, 0.0)
