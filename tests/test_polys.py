"""Polynomial and rational function arithmetic over Q."""

import random
from fractions import Fraction as F

import pytest

from quatwitt import polys as P
from quatwitt.errors import FactorizationLimitExceeded, MissingFactorization
from quatwitt.polys import RationalFunction

from polytools import ppow


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
    # divisors come from the factorization: 2^40 and 3^25 have 41 and 26
    # divisors, far below their square roots
    p = P.pmul(P.poly([F(-2 ** 40), F(3 ** 25)]), P.poly([F(1), F(0), F(1)]))
    assert P.rational_roots(p) == [F(2 ** 40, 3 ** 25)]
    # 10^30 + 6 = 2 * 7 * 3919 * c, where c > 10^25 has no prime factor
    # below 10^6: refused, where trial division to the square root of
    # 10^30 + 6 never ended
    with pytest.raises(FactorizationLimitExceeded):
        P.rational_roots(P.poly([10 ** 30 + 6, 0, 0, 1]))


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
        except MissingFactorization:
            continue
        re = P.constant(unit)
        for f, e in factors:
            assert P.leading(f) == 1
            re = P.pmul(re, ppow(f, e))
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
    _, fs = P.factor_poly(ppow(P.poly([F(1), F(0), F(1)]), 2))
    assert [(P.degree(f), e) for f, e in fs] == [(2, 2)]


def test_low_degree_needs_no_root_search(monkeypatch):
    def refuse(p):
        raise AssertionError(f"rational_roots({p})")

    monkeypatch.setattr(P, "rational_roots", refuse)
    cases = [
        # 3t - 2 = 3 (t - 2/3)
        ([-2, 3], F(3), [((F(-2, 3), F(1)), 1)], True),
        # 2t^2 - 3: discriminant 24 is not a square
        ([-3, 0, 2], F(2), [((F(-3, 2), F(0), F(1)), 1)], True),
        # t^2 - 5t + 6 = (t - 3)(t - 2): discriminant 1
        ([6, -5, 1], F(1), [((F(-3), F(1)), 1), ((F(-2), F(1)), 1)], False),
        # 4t^2 + 4t + 1 = 4 (t + 1/2)^2: discriminant 0
        ([1, 4, 4], F(4), [((F(1, 2), F(1)), 2)], False),
    ]
    for coeffs, unit, factors, irreducible in cases:
        p = P.poly(coeffs)
        assert P.factor_poly(p) == (unit, factors)
        assert P.is_irreducible(p) == irreducible
    # the patch is in force: a cubic still searches for roots
    with pytest.raises(AssertionError, match="rational_roots"):
        P.factor_poly(P.poly([1, 0, 0, 1]))


def test_factor_poly_degree_limit():
    # squarefree quintic with no rational roots is out of reach
    p = P.poly([F(3), F(1), F(0), F(0), F(0), F(1)])
    assert not P.rational_roots(p)
    with pytest.raises(MissingFactorization):
        P.factor_poly(p)
    with pytest.raises(MissingFactorization):
        P.is_irreducible(p)


def test_is_irreducible_past_factoring_limit():
    # a rational root or a repeated factor proves reducibility even when
    # the cofactor t^5 - t - 1 is beyond factor_poly
    quintic = P.poly([F(-1), F(-1), F(0), F(0), F(0), F(1)])
    t = P.poly([F(0), F(1)])
    assert not P.is_irreducible(
        P.pmul(ppow(P.poly([F(-1), F(1)]), 2), quintic))
    assert not P.is_irreducible(P.pmul(t, quintic))
    assert not P.is_irreducible(
        P.pmul(ppow(P.poly([F(1), F(0), F(1)]), 2), quintic))
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


def test_zero_polynomials_and_poles_are_refused():
    one = P.poly([1])
    with pytest.raises(ZeroDivisionError,
                       match="^polynomial division by zero$"):
        P.pdivmod(one, P.ZERO)
    for f in (P.rational_roots, P.factor_poly):
        with pytest.raises(ValueError, match="^zero polynomial$"):
            f(P.ZERO)
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        RationalFunction(one, P.ZERO)
    with pytest.raises(ZeroDivisionError, match="^pole at t=1$"):
        RationalFunction(one, P.poly([-1, 1])).evaluate(F(1))


def test_zero_and_constant_polynomials_at_the_public_helpers():
    """The zero polynomial has leading coefficient 0, content 0 and the
    text "0"; no constant is irreducible."""
    assert P.leading(P.ZERO) == 0
    assert P.content_primitive(P.ZERO) == (0, P.ZERO)
    assert P.poly_str(P.ZERO) == "0"
    for p in (P.ZERO, P.poly([3]), P.ONE):
        assert not P.is_irreducible(p)


def test_monic_returns_a_monic_polynomial_itself():
    """An already monic polynomial is returned as it is, not rescaled by 1;
    any other is divided by its leading coefficient."""
    rng = random.Random(7)
    for deg in range(5):
        p = _rand_poly(rng, deg)
        q = P.pscale(1 / p[-1], p)
        assert P.monic(q) is q
        assert P.monic(p) == q
        assert P.monic(P.pscale(F(-2, 3), p)) == q
    assert P.monic(P.ZERO) == P.ZERO


def test_equal_rational_functions_hash_alike():
    """(2 + 2t) / 4t and (1 + t) / 2t reduce to one lowest-terms quotient
    with a monic denominator: equal, one hash, one set element."""
    x = RationalFunction(P.poly([2, 2]), P.poly([0, 4]))
    y = RationalFunction(P.poly([1, 1]), P.poly([0, 2]))
    assert x == y and hash(x) == hash(y)
    assert len({x, y, RationalFunction(P.poly([1, 1]))}) == 2
