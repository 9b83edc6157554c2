"""is_isotropic on ternary diagonal forms against sympy's
diop_ternary_quadratic, an oracle that shares none of its code (skipped
without sympy): <a, b, c> is isotropic over Q exactly when
a x^2 + b y^2 + c z^2 = 0 has a nontrivial integer solution.

sympy 1.14 answers wrongly on some coefficients that are not squarefree or
not pairwise coprime (for 7x^2 - 25y^2 + 7z^2 it returns (5, 7, 0), which
is no solution), and so does its `sqf_normal`.  The oracle therefore gets
the Legendre normal form computed here with sympy's `factorint`, and each
solution it returns is checked.

Gram-matrix diagonalization is checked against sympy's determinant and
characteristic polynomial: the diagonal values multiply to the
determinant, and by Sylvester's law of inertia as many are negative as the
matrix has negative eigenvalues."""

import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

sympy = pytest.importorskip("sympy")
diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")

from quatwitt.quadforms import (  # noqa: E402
    _diagonalize_inplace,
    is_isotropic,
    qf,
)

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


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _negative_inertia(s):
    """The number of negative eigenvalues of the symmetric sympy matrix s:
    its characteristic polynomial p has only real roots, so by Descartes'
    rule of signs p(-x) has as many sign changes as p has negative roots."""
    x = sympy.Symbol("x")
    p = s.charpoly(x).as_expr()
    return _sign_changes(sympy.Poly(p.subs(x, -x), x).all_coeffs())


def test_diagonal_values_against_determinant_and_inertia():
    rng = random.Random(15)
    checked = 0
    zero_diagonal_pivots = 0
    while checked < 120:
        n = rng.randint(1, 6)
        zero_diagonal = rng.random() < 0.4
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if (i != j or not zero_diagonal) and rng.random() < 0.7:
                    g[i][j] = g[j][i] = Fraction(rng.randint(-20, 20),
                                                 rng.randint(1, 7))
        s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in row] for row in g])
        det = s.det()
        if det == 0:
            continue
        den = lcm(*(x.denominator for row in g for x in row))
        values = [Fraction(n, d) for n, d in _diagonalize_inplace(
            [[int(x * den) for x in row] for row in g], den)]
        assert len(values) == n
        assert sympy.Rational(prod(values)) == det, g
        assert sum(v < 0 for v in values) == _negative_inertia(s), g
        checked += 1
        zero_diagonal_pivots += zero_diagonal and n > 1
    assert zero_diagonal_pivots > 20
