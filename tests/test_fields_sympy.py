"""Factorization, primality and the Legendre symbol against sympy, an
oracle that shares none of their code (skipped without sympy)."""

import pytest

sympy = pytest.importorskip("sympy")

from quatwitt.errors import FactorizationLimitExceeded  # noqa: E402
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


BOUND_SQUARE = (10 ** 6 + 1) ** 2


def _past_trial_bound():
    """Values past 10^6 that trial division to 10^6 answers: primes in
    (10^6, 10^12] and in (10^12, (10^6 + 1)^2), squares of primes just
    above 10^6, products of two primes below 10^6, and every value up to
    (10^6 + 1)^2 from 60 below it."""
    primes = [sympy.nextprime(n) for n in (10 ** 6, 10 ** 9, 10 ** 12 - 100)]
    primes += [sympy.prevprime(n) for n in (10 ** 12, BOUND_SQUARE)]
    primes += [sympy.nextprime(10 ** 12)]
    big = [sympy.nextprime(10 ** 6, k) for k in range(1, 4)]
    small = [sympy.prevprime(10 ** 6 - 1000 * k) for k in range(3)]
    return (primes + [p * p for p in big]
            + [p * q for p in small for q in small + [3, 5]]
            + list(range(BOUND_SQUARE - 60, BOUND_SQUARE + 1)))


def test_is_prime_and_factorize_past_trial_bound_against_sympy():
    for n in _past_trial_bound():
        n = int(n)
        assert is_prime(n) == bool(sympy.isprime(n)), n
        assert dict(factorize(n)[1]) == sympy.factorint(n), n


def test_factorize_just_past_the_square_of_bound_plus_one():
    # below 1000003^2 a composite has a prime factor up to 10^6 and a
    # cofactor at most half its size, so only the primes are refused
    for n in range(BOUND_SQUARE + 1, BOUND_SQUARE + 61):
        if sympy.isprime(n):
            with pytest.raises(FactorizationLimitExceeded):
                is_prime(n)
        else:
            assert dict(factorize(n)[1]) == sympy.factorint(n), n
            assert not is_prime(n)
