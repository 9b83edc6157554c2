"""Polynomial and rational function arithmetic over Q."""

import random
from fractions import Fraction as F

import pytest

from quatwitt import polys as P
from quatwitt.errors import MissingFactorization
from quatwitt.polys import RationalFunction


def _rand_poly(rng, deg, bound=5):
    coeffs = [F(rng.randint(-bound, bound)) for _ in range(deg)]
    coeffs.append(F(rng.choice([1, 2, -1, 3])))
    return P.poly(coeffs)


def test_pdivmod_roundtrip():
    rng = random.Random(0)
    for _ in range(50):
        a = _rand_poly(rng, rng.randint(0, 5))
        b = _rand_poly(rng, rng.randint(0, 3))
        q, r = P.pdivmod(a, b)
        assert P.padd(P.pmul(q, b), r) == a
        assert P.degree(r) < P.degree(b)


def test_pgcd_divides_both():
    rng = random.Random(1)
    for _ in range(30):
        g = _rand_poly(rng, rng.randint(1, 2))
        a = P.pmul(g, _rand_poly(rng, rng.randint(0, 2)))
        b = P.pmul(g, _rand_poly(rng, rng.randint(0, 2)))
        d = P.pgcd(a, b)
        assert P.degree(d) >= P.degree(g)
        for x in (a, b):
            _, rem = P.pdivmod(x, d)
            assert not rem


def test_rational_roots():
    # (t - 2)(t + 1/3)(t^2 + 1)
    p = P.pmul(P.pmul(P.poly([F(-2), F(1)]), P.poly([F(1, 3), F(1)])),
               P.poly([F(1), F(0), F(1)]))
    assert P.rational_roots(p) == [F(-1, 3), F(2)]


def test_factor_poly_rebuild():
    rng = random.Random(7)
    for _ in range(100):
        prod = P.constant(F(rng.choice([1, 2, -3])))
        for _ in range(rng.randint(1, 3)):
            prod = P.pmul(prod, _rand_poly(rng, rng.randint(1, 2), 3))
        if P.degree(prod) > 6:
            continue
        try:
            unit, factors = P.factor_poly(prod)
        except NotImplementedError:
            continue
        re = P.constant(unit)
        for f, e in factors:
            assert P.leading(f) == 1
            re = P.pmul(re, P.ppow(f, e))
        assert re == prod


def test_factor_quartic_cases():
    # (t^2 + 1)(t^2 + t + 2) splits with no rational roots
    q = P.pmul(P.poly([F(1), F(0), F(1)]), P.poly([F(2), F(1), F(1)]))
    _, fs = P.factor_poly(q)
    assert sorted(P.degree(f) for f, _ in fs) == [2, 2]
    assert not P.is_irreducible(q)
    # t^4 + 1 is irreducible over Q
    _, fs = P.factor_poly(P.poly([F(1), F(0), F(0), F(0), F(1)]))
    assert [(P.degree(f), e) for f, e in fs] == [(4, 1)]
    assert P.is_irreducible(P.poly([F(1), F(0), F(0), F(0), F(1)]))
    # (t^2 + 1)^2 is a repeated factor
    _, fs = P.factor_poly(P.ppow(P.poly([F(1), F(0), F(1)]), 2))
    assert [(P.degree(f), e) for f, e in fs] == [(2, 2)]


def test_factor_poly_degree_limit():
    # squarefree quintic with no rational roots is out of reach
    p = P.poly([F(3), F(1), F(0), F(0), F(0), F(1)])
    assert not P.rational_roots(p)
    with pytest.raises(NotImplementedError):
        P.factor_poly(p)
    with pytest.raises(MissingFactorization):
        P.is_irreducible(p)


def test_is_irreducible_past_factoring_limit():
    # a rational root or a repeated factor proves reducibility even when
    # the cofactor t^5 - t - 1 is beyond factor_poly
    quintic = P.poly([F(-1), F(-1), F(0), F(0), F(0), F(1)])
    t = P.poly([F(0), F(1)])
    assert not P.is_irreducible(
        P.pmul(P.ppow(P.poly([F(-1), F(1)]), 2), quintic))
    assert not P.is_irreducible(P.pmul(t, quintic))
    assert not P.is_irreducible(
        P.pmul(P.ppow(P.poly([F(1), F(0), F(1)]), 2), quintic))
    assert P.is_irreducible(t)
    # squarefree, no rational root, composite: still refused
    with pytest.raises(MissingFactorization):
        P.is_irreducible(P.pmul(quintic, P.poly([F(1), F(0), F(1)])))


def test_rational_function_den_monic():
    f = RationalFunction(P.poly([F(1)]), P.poly([F(0), F(2)]))
    assert P.leading(f.den) == 1
    assert f.evaluate(F(1)) == F(1, 2)
    # (t^2 - 1) / (t - 1) cancels to lowest terms
    x = RationalFunction(P.poly([-1, 0, 1]), P.poly([-1, 1]))
    assert x == RationalFunction(P.poly([1, 1]))
    assert x.evaluate(F(3)) == F(4)
    assert RationalFunction(P.ZERO, x.num).is_zero()
