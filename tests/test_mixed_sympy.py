"""The closed form of the odd*odd product against sympy, an oracle that
shares none of its code (skipped without sympy).

closed_form_diag(z1, z2) is the diagonal of <-t> (<<z1^2, z2^2>> - n_Q),
t = Trd(z1 z2): the values -t (1, Nrd z2, Nrd z1, Nrd z1 Nrd z2) and then
-t (-1, a, b, -ab).  Here t and the reduced norms are computed from the
Fraction coordinates, and each value's squarefree part from sympy's
`factorint` of its numerator and denominator."""

import random
from fractions import Fraction
from math import prod

import pytest

sympy = pytest.importorskip("sympy")

from quatwitt.mixed import closed_form_diag  # noqa: E402
from quatwitt.quaternions import QuatAlgebra  # noqa: E402
from test_product_digest import ALGEBRAS  # noqa: E402

COORDS = (0, 0, 1, -1, 2, -3, 5, 7, Fraction(1, 2), Fraction(-2, 3),
          Fraction(5, 6))


def _squarefree(x):
    """Squarefree part of a nonzero rational n/d, that of n d."""
    x = Fraction(x)
    n = x.numerator * x.denominator
    return (1 if n > 0 else -1) * prod(
        p for p, e in sympy.factorint(abs(n)).items() if e % 2)


def _nrd(A, c):
    c0, c1, c2, c3 = c
    return c0 * c0 - A.a * c1 * c1 - A.b * c2 * c2 + A.a * A.b * c3 * c3


def _trd_product(A, x, y):
    """Trd(x y) = 2 (x0 y0 + a x1 y1 + b x2 y2 - ab x3 y3)."""
    return 2 * (x[0] * y[0] + A.a * x[1] * y[1] + A.b * x[2] * y[2]
                - A.a * A.b * x[3] * y[3])


def test_closed_form_diag_against_sympy():
    rng = random.Random(17)
    empty = 0
    for a, b in ALGEBRAS:
        A = QuatAlgebra(a, b)
        for _ in range(60):
            # pure entries, as in a product, and now and then a real part
            x, y = ([rng.choice(COORDS) if k or rng.random() < 0.2 else 0
                     for k in range(4)] for _ in range(2))
            z1, z2 = A.element(*x), A.element(*y)
            if not (z1.is_invertible() and z2.is_invertible()):
                continue
            t = _trd_product(A, x, y)
            got = closed_form_diag(z1, z2).reps()
            if t == 0:
                empty += 1
                assert got == ()
                continue
            n1, n2 = _nrd(A, x), _nrd(A, y)
            values = [-t * v for v in (1, n2, n1, n1 * n2,
                                       -1, A.a, A.b, -A.a * A.b)]
            assert got == tuple(_squarefree(v) for v in values)
    assert empty  # the t = 0 branch is reached
