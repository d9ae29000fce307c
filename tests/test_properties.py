"""Property tests: bit-exact snapshot round trips and the Hermitian mirror."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecorr import dispersion as dsp
from wavecorr import field as fld

# derandomized, so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

finite = st.floats(allow_nan=False, allow_infinity=False)
coefficient = st.builds(complex, finite, finite)


@st.composite
def fields(draw):
    """A field of either dimension with arbitrary finite bit patterns."""
    dim = draw(st.sampled_from([1, 2]))
    nmax = draw(st.integers(1, 6 if dim == 1 else 4))
    shape = dsp.stored_shape(dim, nmax)
    values = draw(st.lists(coefficient, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return fld.SpectralField(nmax, np.array(values, dtype=complex).reshape(shape))


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@PROPERTY
@given(fields(), finite, st.data())
def test_snapshot_round_trip_is_bit_exact(field, t, data):
    model = data.draw(st.sampled_from([m for m in dsp.MODELS.values()
                                       if m.dimension == field.dimension]))
    buf = io.BytesIO()
    size = fld.write_snapshot(buf, model, t, field)
    assert size == len(buf.getvalue())
    model_back, t_back, back = fld.read_snapshot(io.BytesIO(buf.getvalue()))
    assert model_back is model
    assert bits(np.array([t_back])) == bits(np.array([t]))
    assert back.nmax == field.nmax
    assert np.array_equal(bits(back.coeffs), bits(field.coeffs))  # keeps -0.0 and subnormals


@st.composite
def mode_dicts(draw):
    """{mode: value} with modes of either half-lattice and no mode beside its mirror."""
    dim = draw(st.sampled_from([1, 2]))
    nmax = draw(st.integers(1, 5))
    stored = [tuple(m) for m in dsp.stored_modes(dim, nmax).tolist()]
    chosen = draw(st.lists(st.sampled_from(stored), unique=True, max_size=8))
    modes = {}
    for mode in chosen:
        if draw(st.booleans()):
            mode = tuple(-c for c in mode)
        modes[mode[0] if dim == 1 else mode] = draw(coefficient)
    return dim, nmax, modes


@PROPERTY
@given(mode_dicts())
def test_hermitian_round_trip(case):
    dim, nmax, modes = case
    field = fld.field_from_modes(dim, nmax, modes)
    full = fld.full_array(field)
    for mode, value in modes.items():
        mirror = -mode if dim == 1 else (-mode[0], -mode[1])
        assert fld.coefficient(field, mode) == value
        assert fld.coefficient(field, mirror) == np.conj(value)
        index = tuple(np.atleast_1d(mode) + nmax)
        assert full[index] == value
    # the box is its own conjugate mirror and the n1 = 0 modes vanish
    assert np.array_equal(full, np.conj(full[(slice(None, None, -1),) * dim]))
    assert not np.any(full[nmax])
    # nothing but the given modes and their mirrors is set
    assert np.count_nonzero(field.coeffs) == sum(1 for v in modes.values() if v != 0)
