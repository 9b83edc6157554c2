"""Property tests for the odd part of the mixed ring (needs hypothesis).

The twisted trace form of <z1>_gamma and <z2>_gamma, built from quaternion
products, must be Witt-equal to its closed form
<-Trd(z1 z2)> (<<z1^2, z2^2>> - n_Q), over integral and non-integral
algebras, split and division.

Over division algebras, the exact rank-1 isometry test must find
gamma(p) z p isometric to z, and a pair it finds not isometric must never
have a hyperbolicity witness for <z1, -z2>.  Both sides are built and
checked with the quaternion product of test_hermitian_properties, not the
library's."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.hermitian import (  # noqa: E402
    AntiHermForm,
    hyperbolicity_certificate,
    rank_one_isometric,
)
from quatwitt.mixed import odd_product_closed_form, twisted_trace_form  # noqa: E402
from quatwitt.quadforms import witt_class  # noqa: E402
from quatwitt.quaternions import QuatAlgebra, is_split  # noqa: E402
from test_hermitian_properties import (  # noqa: E402
    ALGEBRAS as HERM_ALGEBRAS,
    _mul,
    _pairing,
)

ALGEBRAS = [(-1, -1), (-1, -3), (1, 1), (2, 7),
            (Fraction(-1, 2), -3), (Fraction(-2, 3), Fraction(-5, 7))]

coord = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))
pure = st.tuples(coord, coord, coord).filter(any)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS), pure, pure)
def test_twisted_trace_form_matches_closed_form(ab, c1, c2):
    A = QuatAlgebra(*ab)
    z1, z2 = A.pure(*c1), A.pure(*c2)
    hypothesis.assume(z1.is_invertible() and z2.is_invertible())
    assert witt_class(twisted_trace_form(z1, z2)) \
        == odd_product_closed_form(z1, z2)


DIVISION = [ab for ab in HERM_ALGEBRAS if not is_split(QuatAlgebra(*ab))]
element = st.tuples(coord, coord, coord, coord).filter(any)
scalar = st.builds(Fraction, st.integers(-7, 7).filter(bool),
                   st.integers(1, 3))


def _sandwich(p, z, a, b):
    """gamma(p) z p, as coordinates."""
    conj = (p[0], -p[1], -p[2], -p[3])
    return _mul(_mul(conj, z, a, b), p, a, b)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.sampled_from(DIVISION), pure, element)
def test_sandwich_is_rank_one_isometric(ab, c, p):
    A = QuatAlgebra(*ab)
    w = _sandwich(p, (0,) + c, *ab)
    assert w[0] == 0
    assert rank_one_isometric(A.pure(*c), A.pure(*w[1:]))


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.sampled_from(DIVISION), pure, element, scalar)
def test_not_isometric_has_no_witness(ab, c, p, s):
    """z2 = s gamma(p) z1 p, so the norm ratio is often a square and both
    verdicts occur."""
    A = QuatAlgebra(*ab)
    z1 = (0,) + c
    z2 = tuple(s * v for v in _sandwich(p, z1, *ab))
    iso = rank_one_isometric(A.pure(*c), A.pure(*z2[1:]))
    entries = [z1, tuple(-v for v in z2)]
    h = AntiHermForm(tuple(A.pure(*z[1:]) for z in entries), A)
    cert = hyperbolicity_certificate(h, bound=2)
    hypothesis.event(f"isometric: {iso}, certificate: {cert.status}")
    if cert.status != "hyperbolic":
        return
    (x,) = [[tuple(Fraction(v) for v in q.coords) for q in vec]
            for vec in cert.witness]
    assert any(any(q) for q in x)
    assert not any(_pairing(x, x, entries, *ab))
    assert iso
