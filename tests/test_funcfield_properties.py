"""Property tests over Q(t) (need hypothesis).

psi_split transfers the odd part through the linear form Trd(z omega_bar)
over Q(t).  Here it is checked against the Gram-matrix transfer at rational
points c, along the nilpotent omega_bar(c) = x(c) i + y(c) j + ij, built
and squared with rational quaternion products.

Every source of an entry (a rational function, a list of known factors, a
parsed document) gives the same square class, and products of entries
match the entry of the product."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt import polys as P  # noqa: E402
from quatwitt.funcfield import (  # noqa: E402
    conic_parametrize,
    ff_class,
    ff_entry,
    ff_entry_product,
    good_points,
    psi_split,
)
from quatwitt.hermitian import morita_gram  # noqa: E402
from quatwitt.mixed import mixed  # noqa: E402
from quatwitt.fields import square_class  # noqa: E402
from quatwitt.quadforms import (  # noqa: E402
    diagonalize,
    qf,
    witt_class,
    witt_equal,
)
from quatwitt.polys import RationalFunction  # noqa: E402
from quatwitt.quaternions import QuatAlgebra  # noqa: E402
from quatwitt.serialize import parse_input  # noqa: E402

ALGEBRAS = [(1, 1), (2, 7), (5, -1)]

coord = st.integers(-5, 5)
pure = st.tuples(coord, coord, coord).filter(any)
scalar = st.integers(-30, 30).filter(bool)


@st.composite
def classes(draw):
    a, b = draw(st.sampled_from(ALGEBRAS))
    A = QuatAlgebra(a, b)
    odd = [A.pure(*c) for c in draw(st.lists(pure, min_size=1, max_size=3))]
    hypothesis.assume(all(z.is_invertible() for z in odd))
    even = witt_class(qf(draw(st.lists(scalar, max_size=2))))
    return A, mixed(A, even=even, odd_entries=tuple(odd))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(classes())
def test_psi_specializes_to_gram_transfer(data):
    A, x = data
    conic = conic_parametrize(A)
    img = psi_split(x, conic)
    for c in good_points(img, 2):
        w = A.pure(conic.x_t.evaluate(c), conic.y_t.evaluate(c), 1)
        assert (w * w).is_zero()
        want = x.even.anis
        for z in x.odd.diag:
            gram = morita_gram(z, w)
            want = want.perp(qf([1, -1]) if gram is None
                             else diagonalize(gram))
        assert witt_equal(img.specialize(c), want)


# monic irreducibles; at most two nonlinear ones per example keep every
# squarefree cofactor within the factorizer's reach (degree <= 4)
LINEAR = [P.poly([0, 1]), P.poly([-1, 1]), P.poly([2, 1]),
          P.poly([Fraction(-1, 3), 1])]
NONLINEAR = [P.poly([1, 0, 1]), P.poly([3, 0, 1]), P.poly([-2, 0, 1]),
             P.poly([1, 1, 1])]
rational = st.builds(Fraction, st.integers(-60, 60).filter(bool),
                     st.integers(1, 60))


@st.composite
def factor_pools(draw):
    return LINEAR + draw(st.lists(st.sampled_from(NONLINEAR), unique=True,
                                  max_size=2))


@st.composite
def elements(draw, pool):
    """(unit, [(f, e), ...]) with exponents in -3..3; negative exponents
    go to the denominator."""
    return draw(rational), [(f, draw(st.integers(-3, 3))) for f in pool]


def _value(unit, factors):
    num, den = P.constant(unit), P.ONE
    for f, e in factors:
        if e > 0:
            num = P.pmul(num, P.ppow(f, e))
        elif e < 0:
            den = P.pmul(den, P.ppow(f, -e))
    return RationalFunction(num, den)


def _scaled(unit, factors, scales):
    """unit * prod f^|e| with each factor written as scale * f, which is
    no longer monic: the unit absorbs the scales' powers."""
    pairs = []
    for (f, e), c in zip(factors, scales):
        if e:
            unit /= c ** abs(e)
            pairs.append((tuple(c * x for x in f), abs(e)))
    return unit, pairs


def _document(unit, pairs):
    return {"entries": [{"unit": str(unit), "factors": [
        {"poly": [str(x) for x in f], "exp": e, "irreducible": True}
        for f, e in pairs]}]}


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_entry_sources_agree(data):
    pool = data.draw(factor_pools())
    unit, factors = data.draw(elements(pool))
    entry = ff_entry(_value(unit, factors))
    assert entry == ff_class(unit, factors)
    scales = data.draw(st.lists(rational, min_size=len(factors),
                                max_size=len(factors)))
    scaled_unit, pairs = _scaled(unit, factors, scales)
    assert ff_class(scaled_unit, pairs) == entry
    assert parse_input(json.dumps(_document(scaled_unit, pairs))).entries \
        == (entry,)
    assert entry.factors == tuple(sorted(set(entry.factors)))
    assert entry.unit == square_class(unit).repr


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_entry_product_is_entry_of_product(data):
    pool = data.draw(factor_pools())
    x1 = _value(*data.draw(elements(pool)))
    x2 = _value(*data.draw(elements(pool)))
    assert ff_entry_product(ff_entry(x1), ff_entry(x2)) == ff_entry(x1 * x2)
