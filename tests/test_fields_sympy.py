"""Factorization, primality and the Legendre symbol against sympy, an
oracle that shares none of their code (skipped without sympy)."""

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.errors import FactorizationLimitExceeded  # noqa: E402
from quatwitt.fields import (  # noqa: E402
    GCD_BITS,
    factorize,
    is_prime,
    legendre_symbol,
)


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


small_prime = st.sampled_from(list(sympy.primerange(2, 1000)))
# primes in (1,000, 10^6] and in (10^6, 10^12]: a cofactor of one of the
# latter, or of its square, is certified
middle_prime = st.integers(1000, 10 ** 6 - 20).map(sympy.nextprime)
large_prime = st.integers(10 ** 6, 10 ** 12).map(sympy.nextprime)


@st.composite
def huge_integers(draw):
    """Integers past GCD_BITS bits: smooth (primes below 1,000 only), or
    with primes up to 10^6 in high or low powers, and maybe one prime in
    (10^6, 10^12] or its square."""
    kind = draw(st.sampled_from(["smooth", "middle", "large"]))
    n = 1
    for p in draw(st.lists(small_prime, max_size=4)):
        n *= p ** draw(st.integers(1, 400))
    if kind != "smooth":
        for p in draw(st.lists(middle_prime, min_size=1, max_size=3)):
            n *= p ** draw(st.integers(1, 120))
    if kind == "large":
        n *= draw(large_prime) ** draw(st.integers(1, 2))
    p = draw(small_prime if kind == "smooth" else middle_prime)
    while n.bit_length() <= GCD_BITS:
        n *= p
    return kind, draw(st.sampled_from([1, -1])) * n


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(huge_integers())
def test_factorize_huge_integers_against_sympy(data):
    kind, n = data
    sign, factors = factorize(n)
    expect = sympy.factorint(abs(n))
    hypothesis.event(kind)
    assert sign == (1 if n > 0 else -1)
    assert list(factors) == sorted(expect.items())
