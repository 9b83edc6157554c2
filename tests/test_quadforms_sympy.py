"""is_isotropic on ternary diagonal forms against sympy's
diop_ternary_quadratic, an oracle that shares none of its code (skipped
without sympy): <a, b, c> is isotropic over Q exactly when
a x^2 + b y^2 + c z^2 = 0 has a nontrivial integer solution.

sympy 1.14 answers wrongly on some coefficients that are not squarefree or
not pairwise coprime (for 7x^2 - 25y^2 + 7z^2 it returns (5, 7, 0), which
is no solution), and so does its `sqf_normal`.  The oracle therefore gets
the Legendre normal form computed here with sympy's `factorint`, and each
solution it returns is checked."""

import random
from math import gcd, prod

import pytest

sympy = pytest.importorskip("sympy")
diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")

from quatwitt.quadforms import is_isotropic, qf  # noqa: E402

X, Y, Z = sympy.symbols("x y z", integer=True)


def _squarefree(n):
    return (1 if n > 0 else -1) * prod(
        p for p, e in sympy.factorint(abs(n)).items() if e % 2)


def _legendre_normal(a, b, c):
    """Squarefree, pairwise coprime coefficients of a form that is
    isotropic exactly when <a, b, c> is: square factors drop out, and a
    common factor g of two coefficients moves to the third, since
    g <a, b, c> = <g^2 a/g, g^2 b/g, g c>."""
    v = [_squarefree(a), _squarefree(b), _squarefree(c)]
    while True:
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            g = gcd(v[i], v[j])
            if g > 1:
                v[i] //= g
                v[j] //= g
                v[k] = _squarefree(v[k] * g)
                break
        else:
            return v


def _sympy_isotropic(a, b, c):
    a, b, c = _legendre_normal(a, b, c)
    sol = diophantine.diop_ternary_quadratic(a * X**2 + b * Y**2 + c * Z**2)
    if sol == (None, None, None):
        return False
    x, y, z = (int(v) for v in sol)
    assert (x, y, z) != (0, 0, 0)
    assert a * x * x + b * y * y + c * z * z == 0
    return True


def _nonzero(rng, h):
    return rng.choice([-1, 1]) * rng.randint(1, h)


def test_ternary_isotropy_matches_sympy():
    rng = random.Random(8)
    seen = set()
    for _ in range(300):
        a, b, c = (_nonzero(rng, 60) for _ in range(3))
        expected = _sympy_isotropic(a, b, c)
        assert is_isotropic(qf([a, b, c])) == expected, (a, b, c)
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("abc, expected", [
    ((1, 1, -3), False),
    ((1, 1, -2), True),
    ((1, 1, 1), False),
    ((2, -3, -6), True),
    ((7, -25, 7), False),    # raw sympy returns the non-solution (5, 7, 0)
    ((-10, 4, -15), True),   # raw sympy finds no solution; (2, 5, 2) is one
])
def test_ternary_isotropy_examples(abc, expected):
    assert _sympy_isotropic(*abc) == expected
    assert is_isotropic(qf(list(abc))) == expected
