import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opfam.errors import InputError
from opfam.regions import Disc, Empty, Rect, Union, parse_region


def test_parse_disc():
    r = parse_region("disc 1,0,0.5")
    assert r == Disc(center=1.0 + 0.0j, radius=0.5)
    assert r.contains(np.array([1.2 + 0.1j]))[0]
    assert not r.contains(np.array([2.0 + 0.0j]))[0]


def test_parse_rect_with_negatives():
    r = parse_region("rect -1:2:-0.5:0.5")
    assert r == Rect(-1.0, 2.0, -0.5, 0.5)
    assert r.contains(np.array([0.0 + 0.0j]))[0]
    assert not r.contains(np.array([0.0 + 1.0j]))[0]


def test_parse_union_and_empty():
    r = parse_region("union(disc 1,0,0.25, rect 2:3:-1:1)")
    assert isinstance(r, Union)
    pts = np.array([1.1 + 0j, 2.5 + 0.5j, 0.0 + 0j])
    assert list(r.contains(pts)) == [True, True, False]
    assert parse_region("empty") == Empty()
    assert parse_region("union()") == Empty()
    assert not parse_region("empty").contains(np.array([0j]))[0]


def test_parse_scientific_notation():
    r = parse_region("disc 1e-2,-2.5e-1,5e-1")
    assert r.center == pytest.approx(0.01 - 0.25j)


def test_intersection_combinator():
    r = parse_region("disc 0,0,1").intersect(parse_region("rect 0:2:0:2"))
    pts = np.array([0.5 + 0.5j, -0.5 + 0.5j, 0.5 - 0.5j])
    assert list(r.contains(pts)) == [True, False, False]


def test_parse_errors():
    for bad in ("disc 1,0", "rect 1:0:0:1", "blob 1", "disc 1,0,0.5 trailing", ""):
        with pytest.raises(InputError):
            parse_region(bad)


def test_describe_roundtrip():
    for text in ("disc 1,0,0.5", "rect -1:2:-0.5:0.5", "empty"):
        assert parse_region(parse_region(text).describe()) == parse_region(text)


_coords = st.floats(allow_nan=False, allow_infinity=False)


def _ordered(a, b):
    return min(a, b), max(a, b)


_leaves = st.one_of(
    st.just(Empty()),
    st.builds(
        lambda re, im, r: Disc(center=complex(re, im), radius=r),
        _coords,
        _coords,
        st.floats(min_value=0.0, allow_infinity=False),
    ),
    st.builds(
        lambda a, b, c, d: Rect(*_ordered(a, b), *_ordered(c, d)),
        _coords,
        _coords,
        _coords,
        _coords,
    ),
)
_regions = st.recursive(
    _leaves,
    lambda parts: st.lists(parts, min_size=1, max_size=4).map(
        lambda ps: Union(parts=tuple(ps))
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_regions)
@example(Disc(0j, 1.015625))  # seven significant digits
@example(Rect(*np.array([-1.0, 1.0, 0.0, 0.5])))  # numpy scalars
def test_describe_roundtrips_exactly(region):
    assert parse_region(region.describe()) == region
