"""Factorization, primality and the Legendre symbol against sympy, an
oracle that shares none of their code (skipped without sympy)."""

import pytest

sympy = pytest.importorskip("sympy")

from quatwitt.fields import factorize, is_prime, legendre_symbol  # noqa: E402


def test_factorize_against_sympy():
    for n in list(range(-500, 501)) + [2 ** 31 - 1, 999983 * 999979,
                                       -(3 ** 7) * 1009 ** 2, 999999999989]:
        if n == 0:
            continue
        sign, factors = factorize(n)
        expect = sympy.factorint(abs(n))
        assert sign == (1 if n > 0 else -1)
        assert dict(factors) == expect
        assert [p for p, _ in factors] == sorted(expect)


def test_is_prime_against_sympy():
    for n in list(range(-5, 3000)) + [999983, 999985, 10 ** 9 + 7]:
        assert is_prime(n) == bool(sympy.isprime(n))


def test_legendre_against_sympy():
    for p in (3, 5, 7, 11, 13, 97, 101, 997):
        for a in range(-2 * p, 2 * p + 1):
            assert legendre_symbol(a, p) == sympy.legendre_symbol(a % p, p)
