import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfam.errors import FileFormatError
from opfam.families import CoeffFn, OperatorFamily
from opfam.fileio import (
    format_complex,
    parse_complex,
    read_family,
    read_matrix,
    read_vector,
    write_family,
    write_matrix,
    write_vector,
)

finite_doubles = st.floats(
    allow_nan=False, allow_infinity=False, width=64
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(re=finite_doubles, im=finite_doubles)
def test_complex_entry_roundtrip_bit_exact(re, im):
    z = complex(re, im)
    back = parse_complex(format_complex(z))
    assert _bits(back.real) == _bits(z.real)
    assert _bits(back.imag) == _bits(z.imag)


def test_parse_complex_rejects_garbage():
    for bad in ("1.5", "1+2", "abci", "1.5+2.5", "1.5 + 2i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


@settings(max_examples=50)
@given(
    data=st.lists(
        st.tuples(finite_doubles, finite_doubles), min_size=1, max_size=16
    )
)
def test_matrix_roundtrip_bit_exact(data):
    d = int(np.sqrt(len(data)))
    if d < 1:
        return
    entries = np.array([complex(a, b) for a, b in data[: d * d]]).reshape(d, d)
    buf = io.StringIO()
    write_matrix(entries, buf)
    back = read_matrix(io.StringIO(buf.getvalue()))
    assert back.shape == entries.shape
    for z, w in zip(entries.ravel(), back.ravel()):
        assert _bits(z.real) == _bits(w.real)
        assert _bits(z.imag) == _bits(w.imag)


def test_vector_roundtrip():
    v = np.array([1.0 + 2.0j, -3.5e-12 - 1j, 0.0 + 0.0j])
    buf = io.StringIO()
    write_vector(v, buf)
    assert np.array_equal(read_vector(io.StringIO(buf.getvalue())), v)


def test_matrix_format_shape():
    buf = io.StringIO()
    write_matrix(np.eye(2), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "2"
    assert len(lines) == 3
    assert lines[1].split() == ["1.0+0.0i", "0.0+0.0i"]


def test_read_matrix_errors_carry_line_numbers():
    with pytest.raises(FileFormatError) as err:
        read_matrix(io.StringIO("2\n1.0+0.0i 0.0+0.0i\n1.0+0.0i\n"), path="bad.mat")
    assert "bad.mat:3" in str(err.value)
    with pytest.raises(FileFormatError):
        read_matrix(io.StringIO("x\n"))
    with pytest.raises(FileFormatError):
        read_matrix(io.StringIO("1\n1.0+0.0i\nextra\n"))


def test_family_roundtrip():
    fam = OperatorFamily.from_terms(
        2,
        [
            (CoeffFn.const(), np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)),
            (CoeffFn.pow_h(2.0), np.eye(2, dtype=complex)),
            (CoeffFn.exp_inv(1.5), np.array([[0, 1j], [0, 0]], dtype=complex)),
        ],
    )
    buf = io.StringIO()
    write_family(fam, buf)
    back = read_family(io.StringIO(buf.getvalue()))
    assert back.dim == fam.dim
    assert len(back.terms) == len(fam.terms)
    for (c1, m1), (c2, m2) in zip(fam.terms, back.terms):
        assert c1 == c2
        assert np.array_equal(m1, m2)


def test_family_file_comments_and_errors():
    text = "# a family\ndim 2\nterm pow 1\n2\n1.0+0.0i 0.0+0.0i\n0.0+0.0i 1.0+0.0i\n"
    fam = read_family(io.StringIO(text))
    assert fam.terms[0][0] == CoeffFn.pow_h(1.0)

    with pytest.raises(FileFormatError) as err:
        read_family(io.StringIO("dim 2\nterm wiggle 3\n"), path="f.fam")
    assert "f.fam" in str(err.value)
    with pytest.raises(FileFormatError):
        read_family(io.StringIO("dim 2\nterm const\n1\n1.0+0.0i\n"))
    with pytest.raises(FileFormatError):
        read_family(io.StringIO("dim 2\n"))


@pytest.mark.parametrize(
    "term", ["pow nan", "pow inf", "pow -1", "expinv nan", "expinv inf", "expinv 0"]
)
def test_family_file_rejects_bad_coefficient_parameters(term):
    text = f"dim 1\nterm const\n1\n1.0+0.0i\nterm {term}\n1\n1.0+0.0i\n"
    with pytest.raises(FileFormatError) as err:
        read_family(io.StringIO(text), path="f.fam")
    assert err.value.line == 5
    assert "f.fam:5" in str(err.value)


_catalog_coeffs = st.one_of(
    st.just(CoeffFn.const()),
    st.floats(0.0, 1e6).map(CoeffFn.pow_h),
    st.floats(0.0, 1e6, exclude_min=True).map(CoeffFn.exp_inv),
)


@st.composite
def _catalog_families(draw):
    d = draw(st.integers(1, 4))
    entries = st.lists(
        st.tuples(finite_doubles, finite_doubles), min_size=d * d, max_size=d * d
    )
    terms = [
        (coeff, np.array([complex(a, b) for a, b in draw(entries)]).reshape(d, d))
        for coeff in draw(st.lists(_catalog_coeffs, min_size=1, max_size=4))
    ]
    return OperatorFamily.from_terms(d, terms)


@settings(max_examples=200, deadline=None)
@given(_catalog_families())
def test_family_file_roundtrip_bit_exact(fam):
    buf = io.StringIO()
    write_family(fam, buf)
    back = read_family(io.StringIO(buf.getvalue()))
    assert back.dim == fam.dim
    assert len(back.terms) == len(fam.terms)
    for (c1, m1), (c2, m2) in zip(fam.terms, back.terms):
        assert _bits(c1.exponent) == _bits(c2.exponent)
        assert _bits(c1.rate) == _bits(c2.rate)
        assert m1.tobytes() == m2.tobytes()
