"""Base field arithmetic: factorization, square classes, symbols."""

from fractions import Fraction

import pytest

from quatwitt.errors import (
    EvenOrCompositeModulus,
    FactorizationLimitExceeded,
    ZeroArgument,
    ZeroElement,
)
from quatwitt.fields import (
    Fp,
    Place,
    QQ,
    REAL_PLACE,
    factorize,
    finite_place,
    hilbert_symbol,
    hilbert_symbol_p,
    is_padic_square,
    is_prime,
    legendre_symbol,
    relevant_primes,
    square_class,
    squarefree_part,
)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


def test_factorize_roundtrip():
    # the last: above 10^18, with one prime factor above 10^6
    for n in [-360, 97, 2 ** 10 * 3, 1, -1, 9999991,
              -(2 ** 70) * 3 * 999983 * 1000003]:
        sign, factors = factorize(n)
        out = sign
        for p, e in factors:
            assert is_prime(p)
            out *= p ** e
        assert out == n


def test_factorize_refuses_uncertified_cofactor():
    # (10^9 + 7)(10^9 + 9) has no prime factor below 10^6 and is above
    # 10^12, so trial division cannot certify it
    with pytest.raises(FactorizationLimitExceeded):
        factorize(3 * (10 ** 9 + 7) * (10 ** 9 + 9))


def test_factorize_zero():
    with pytest.raises(ZeroElement):
        factorize(0)


def test_squarefree_part():
    assert squarefree_part(18) == 2
    assert squarefree_part(-12) == -3
    assert squarefree_part(49) == 1
    assert squarefree_part(1) == 1


def test_square_class_fractions():
    assert square_class(Fraction(18, 50)).repr == 1
    assert square_class(Fraction(-3, 4)).repr == -3
    assert square_class(8).repr == 2


def test_square_class_product_avoids_refactorization():
    # two squarefree numbers whose plain product would be huge
    a = square_class(999983)       # prime near 1e6
    b = square_class(999979)       # another prime
    prod = a * b
    assert prod.repr == 999983 * 999979
    assert (prod * prod).repr == 1


def test_square_class_fp():
    F7 = Fp(7)
    # squares mod 7 are {1, 2, 4}
    for r in (1, 2, 4):
        assert square_class(r, F7).is_one()
    for r in (3, 5, 6):
        assert square_class(r, F7).repr == 3


def test_legendre_frozen_values():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(14, 7) == 0
    assert legendre_symbol(-1, 13) == 1
    assert legendre_symbol(-1, 11) == -1
    with pytest.raises(EvenOrCompositeModulus):
        legendre_symbol(3, 8)


def test_hilbert_frozen_values():
    v2, v7 = finite_place(2), finite_place(7)
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, -1, v2) == -1
    assert hilbert_symbol(2, 7, v7) == 1
    assert hilbert_symbol(7, 7, v7) == hilbert_symbol(7, -1, v7)
    with pytest.raises(ZeroArgument):
        hilbert_symbol(0, 3, v2)
    # the integer core: p = -1 is the real place; a zero would never divide
    # out of the valuation loop, so it is refused
    assert hilbert_symbol_p(-1, -1, -1) == hilbert_symbol_p(-1, -1, 2) == -1
    assert hilbert_symbol_p(2, 7, 7) == 1
    with pytest.raises(ZeroArgument):
        hilbert_symbol_p(3, 0, 5)


def test_hilbert_bimultiplicative():
    import random
    rng = random.Random(3)
    places = [REAL_PLACE] + [finite_place(p) for p in (2, 3, 5, 7)]
    for _ in range(100):
        a = rng.choice([n for n in range(-30, 31) if n])
        b = rng.choice([n for n in range(-30, 31) if n])
        c = rng.choice([n for n in range(-30, 31) if n])
        v = rng.choice(places)
        assert (hilbert_symbol(a * b, c, v)
                == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v))


def test_hilbert_reciprocity():
    """Product of (a,b)_v over all relevant places is 1."""
    import random
    rng = random.Random(11)
    for _ in range(200):
        a = rng.choice([n for n in range(-50, 51) if n])
        b = rng.choice([n for n in range(-50, 51) if n])
        places = [REAL_PLACE] + [finite_place(p)
                                 for p in relevant_primes([a, b])]
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_is_padic_square():
    assert is_padic_square(Fraction(1, 4), 2)
    assert not is_padic_square(2, 2)
    assert is_padic_square(2, 7)
    assert not is_padic_square(3, 7)
    assert not is_padic_square(7, 7)


@pytest.mark.parametrize("p", [1, 0, 4, 15])
def test_non_prime_p_is_refused(p):
    # unchecked, p = 1 loops forever in the valuation and p = 0 divides by 0
    with pytest.raises(EvenOrCompositeModulus):
        is_padic_square(3, p)
    with pytest.raises(EvenOrCompositeModulus):
        hilbert_symbol(2, 3, Place("finite", p=p))
