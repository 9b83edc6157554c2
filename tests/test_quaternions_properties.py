"""Property tests for the integer representation of quaternions (needs
hypothesis).

A Quaternion is four integer numerators over one positive denominator in
lowest terms.  Its arithmetic must agree with the Fraction-coordinate
formulas written out below, keep the pair normalized, compare and hash by
value, survive pickling and print as Fraction coordinates.

The places where (a, b | Q) ramifies, read from the local anisotropic
dimensions of its norm form, must be those where the Hilbert symbol
(a, b)_v is -1."""

import pickle
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.errors import ZeroArgument  # noqa: E402
from quatwitt.fields import factorize, hilbert_symbol  # noqa: E402
from quatwitt.quadforms import is_isotropic  # noqa: E402
from quatwitt.quaternions import (  # noqa: E402
    QuatAlgebra,
    is_split,
    norm_form,
    ramified_places,
)

ALGEBRAS = [(-1, -1), (-1, -3), (1, 1), (2, 7),
            (Fraction(-1, 2), -3), (Fraction(-2, 3), Fraction(-5, 7)),
            (Fraction(3, 2), Fraction(-7, 3))]

coord = st.builds(Fraction, st.integers(-6, 6),
                  st.sampled_from([1, 1, 2, 3, 4]))
coords = st.tuples(coord, coord, coord, coord)
scalar = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                   st.sampled_from([1, 2, 3, 5]))


def _ref_mul(x, y, a, b):
    """(1, i, j, ij) product: i^2 = a, j^2 = b, ji = -ij, written out."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 + b * (x3 * y2 - x2 * y3),
            x0 * y2 + x2 * y0 + a * (x1 * y3 - x3 * y1),
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def _ref_nrd(x, a, b):
    x0, x1, x2, x3 = x
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def _normalized(q):
    return q.den > 0 and gcd(*q.num, q.den) == 1


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS), coords, coords, scalar)
def test_arithmetic_matches_fraction_formulas(ab, cx, cy, c):
    A = QuatAlgebra(*ab)
    a, b = A.a, A.b
    x, y = A.element(*cx), A.element(*cy)
    assert x.coords == cx and _normalized(x)
    cases = [
        (x + y, tuple(u + v for u, v in zip(cx, cy))),
        (x - y, tuple(u - v for u, v in zip(cx, cy))),
        (-x, tuple(-u for u in cx)),
        (x * y, _ref_mul(cx, cy, a, b)),
        (x.conj(), (cx[0], -cx[1], -cx[2], -cx[3])),
        (x.scale(c), tuple(c * u for u in cx)),
        (x.scale(3), tuple(3 * u for u in cx)),
    ]
    for q, want in cases:
        assert q.coords == want
        assert _normalized(q)
        assert q.is_zero() == (not any(want))
        assert q.is_pure() == (not want[0])
    assert x.nrd() == _ref_nrd(cx, a, b)
    assert isinstance(x.nrd(), Fraction) and isinstance(x.trd(), Fraction)
    assert x.trd() == 2 * cx[0]
    assert x.is_invertible() == bool(_ref_nrd(cx, a, b))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS), coords, coords, scalar)
def test_equal_values_built_differently(ab, cx, cy, c):
    A = QuatAlgebra(*ab)
    x, y = A.element(*cx), A.element(*cy)
    doubled = A.element(*(Fraction(2 * u.numerator, 2 * u.denominator)
                          for u in cx))
    from_strings = A.element(*(str(u) for u in cx))
    others = [doubled, from_strings, x.scale(c).scale(1 / c),
              (x + y) - y, x * A.one(), A.one() * x, x.conj().conj()]
    if x.is_invertible():
        xinv = x.conj().scale(1 / x.nrd())
        others.append(x * xinv * x)
        assert xinv * (x * y) == y
    for other in others:
        assert other == x
        assert hash(other) == hash(x)
        assert (other.num, other.den) == (x.num, x.den)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS), coords, coords)
def test_pickle_round_trip(ab, cx, cy):
    A = QuatAlgebra(*ab)
    x, y = A.element(*cx), A.element(*cy)
    x2, y2 = pickle.loads(pickle.dumps((x, y)))
    assert x2 == x and hash(x2) == hash(x) and repr(x2) == repr(x)
    assert x2.algebra == A and x2.algebra.table == A.table
    assert x2 * y2 == x * y


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS), coords)
def test_repr_prints_fraction_coordinates(ab, cx):
    x = QuatAlgebra(*ab).element(*cx)
    assert repr(x) == f"Quat{tuple(str(u) for u in cx)}"


def test_repr_pinned():
    A = QuatAlgebra(Fraction(-2, 3), Fraction(-5, 7))
    assert repr(A.element(Fraction(1, 2), -1, 0, Fraction(-4, 6))) == \
        "Quat('1/2', '-1', '0', '-2/3')"
    assert repr(A.element(0, 0, 0, 0)) == "Quat('0', '0', '0', '0')"


# rationals of every sign, fractional or not, small or long, as an int
# where the denominator is 1
rational = st.one_of(
    st.builds(Fraction, st.integers(-10**40, 10**40),
              st.integers(1, 10**30)),
    st.fractions(max_denominator=50),
    st.integers(-10**40, 10**40),
).map(lambda x: int(x) if Fraction(x).denominator == 1 else x)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(rational, rational)
def test_integer_table_matches_fraction_products(a, b):
    """The table built on numerators and denominators is (d, d a, d b,
    d a b) of the Fraction products, d = den(a) den(b); algebras of equal
    parameters compare, hash and print alike however the parameters are
    given, and a zero parameter is refused."""
    fa, fb = Fraction(a), Fraction(b)
    if not fa or not fb:
        with pytest.raises(ZeroArgument):
            QuatAlgebra(a, b)
        return
    A = QuatAlgebra(a, b)
    d = fa.denominator * fb.denominator
    assert A.table == tuple(int(x) for x in (d, d * fa, d * fb, d * fa * fb))
    assert all(type(x) is int for x in A.table)
    B = QuatAlgebra(fa, fb)
    assert A == B and hash(A) == hash(B)
    assert (A.a, A.b) == (fa, fb)
    assert repr(A) == repr(B) == f"({fa},{fb}|Q)"
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroArgument):
            QuatAlgebra(zero, b)
        with pytest.raises(ZeroArgument):
            QuatAlgebra(a, zero)


# square factors and denominators among the parameters
parameter = st.one_of(
    st.sampled_from([Fraction(-9), Fraction(12, 25), Fraction(-2, 3),
                     Fraction(18), Fraction(-1, 4), Fraction(50, 49)]),
    st.builds(Fraction, st.integers(-60, 60).filter(bool),
              st.sampled_from([1, 1, 2, 4, 9, 15])))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(parameter, parameter)
def test_ramified_places_are_where_the_hilbert_symbol_is_minus_one(a, b):
    A = QuatAlgebra(a, b)
    got = ramified_places(A)
    primes = {2}
    for x in (a, b):
        for n in (x.numerator, x.denominator):
            primes.update(p for p, _ in factorize(n)[1])
    want = {v for v in [-1] + sorted(primes) if hilbert_symbol(a, b, v) == -1}
    hypothesis.event("split" if not want else f"{len(want)} places")
    assert set(got) == want
    assert list(got) == sorted(got)  # -1 first, then ascending primes
    assert len(got) % 2 == 0  # Hilbert reciprocity
    # and split exactly when the norm form is isotropic (Hasse-Minkowski)
    assert (not got) == is_split(A) == is_isotropic(norm_form(A))
