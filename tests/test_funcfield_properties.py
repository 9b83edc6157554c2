"""Property test for the generic-splitting map psi (needs hypothesis).

psi_split transfers the odd part through the linear form Trd(z omega_bar)
over Q(t).  Here it is checked against the Gram-matrix transfer at rational
points c, along the nilpotent omega_bar(c) = x(c) i + y(c) j + ij, built
and squared with rational quaternion products."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.funcfield import (  # noqa: E402
    conic_parametrize,
    good_points,
    psi_split,
)
from quatwitt.hermitian import morita_gram  # noqa: E402
from quatwitt.mixed import mixed  # noqa: E402
from quatwitt.quadforms import (  # noqa: E402
    diagonalize,
    qf,
    witt_class,
    witt_equal,
)
from quatwitt.quaternions import QuatAlgebra  # noqa: E402

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
