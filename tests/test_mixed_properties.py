"""Property test for the odd x odd product (needs hypothesis).

The twisted trace form of <z1>_gamma and <z2>_gamma, built from quaternion
products, must be Witt-equal to its closed form
<-Trd(z1 z2)> (<<z1^2, z2^2>> - n_Q), over integral and non-integral
algebras, split and division."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.mixed import odd_product_closed_form, twisted_trace_form  # noqa: E402
from quatwitt.quadforms import witt_class  # noqa: E402
from quatwitt.quaternions import QuatAlgebra  # noqa: E402

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
