"""Base field arithmetic: factorization, square classes, symbols."""

import tracemalloc
from fractions import Fraction
from math import isqrt, prod

import pytest

from quatwitt import fields, quadforms
from quatwitt.errors import (
    EvenOrCompositeModulus,
    FactorizationLimitExceeded,
    ZeroArgument,
    ZeroElement,
    quoted,
)
from quatwitt.fields import (
    Fp,
    class_mul,
    factorize,
    hilbert_symbol,
    hilbert_symbol_p,
    is_padic_square,
    is_prime,
    legendre_symbol,
    ratio_class,
    smallest_nonresidue,
    square_class,
    squarefree_part,
)
from quatwitt.quaternions import QuatAlgebra, is_split, ramified_places


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


def test_factorize_certifies_square_of_prime_past_trial_bound():
    # 1000003 is a prime past 10^6: trial division leaves its square, a
    # cofactor past 10^12 whose root has no prime factor up to 10^6 and is
    # at most 10^12, hence prime
    assert factorize(1000003 ** 2) == (1, ((1000003, 2),))
    assert factorize(-12 * 1000003 ** 2) == (
        -1, ((2, 2), (3, 1), (1000003, 2)))
    assert factorize(999999999989 ** 2) == (1, ((999999999989, 2),))


@pytest.mark.parametrize("n", [
    1000003 ** 3,                   # a cube, not a square
    (1000003 * 1000033) ** 2,       # a square whose root is past 10^12
    1000003 * 1000033,              # two primes past 10^6, not a square
])
def test_factorize_refuses_other_cofactors_past_bound(n):
    with pytest.raises(FactorizationLimitExceeded):
        factorize(n)


def test_is_prime_certifies_cofactors_up_to_the_square_of_bound_plus_one():
    # a cofactor with no prime factor up to 10^6 is prime below 1000003^2,
    # the least composite without one; 10^6 + 1 = 101 * 9901 is composite,
    # so every cofactor up to (10^6 + 1)^2 is certified
    assert is_prime(1000000000039)
    assert factorize(1000000000039) == (1, ((1000000000039, 1),))
    assert factorize(2 * 1000000000039) == (
        1, ((2, 1), (1000000000039, 1)))


def test_is_prime_of_the_square_of_a_prime_past_trial_bound_is_false():
    # factorize certifies 1000003^2 as a square of a prime, so is_prime
    # answers where its own trial division once refused
    assert not is_prime(1000003 ** 2)
    with pytest.raises(EvenOrCompositeModulus, match="not an odd prime"):
        Fp(1000003 ** 2)


def test_is_prime_refuses_what_factorize_refuses():
    # 3 divides it, but the cofactor 1000003 * 1000033 is not certified,
    # and is_prime answers only from a whole factorization
    with pytest.raises(FactorizationLimitExceeded):
        is_prime(3 * 1000003 * 1000033)


def _wheel():
    """2, 3 and every 6k +- 1 up to 10^6: every prime up to 10^6 is among
    them, and a composite one never divides what is left of n, as its
    prime factors are smaller and were divided out first."""
    yield from (2, 3)
    for d in range(6, 10 ** 6 + 2, 6):
        yield from (d - 1, d + 1)


def _whole_trial_division(n):
    """factorize as trial division of the whole of n, with no gcd and no
    sieve: (sign, factors), or the refusal message."""
    sign, n, factors = (1 if n > 0 else -1), abs(n), []
    for p in _wheel():
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            factors.append((p, e))
    certified = (10 ** 6 + 1) ** 2
    if 1 < n <= certified:
        factors.append((n, 1))
    elif n > 1:
        s = isqrt(n)
        if s * s != n or s > certified:
            return f"cofactor {quoted(n)} not certified"
        factors.append((s, 2))
    return sign, tuple(factors)


def _factorize_or_message(n):
    try:
        return factorize(n)
    except FactorizationLimitExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("n", [
    2 ** 1001 * 3 ** 5 * 999983 * 1000003,   # a prime cofactor
    -(2 ** 1001) * 999983 ** 2,              # the last prime of g repeats
    7 ** 400 * 1000003 ** 2,                 # the square of a prime
    10 ** 4000,
    3 * 1000003 * 1000033 * 2 ** 1000,      # an uncertified cofactor
    5 * 1000003 ** 61,                       # a cofactor of 1,216 bits
    prod(p for p in range(2, 18500) if is_prime(p)),
    2 ** 1000 * 1009 ** 3 * 999983,         # short past the primes < 1,000
    3 ** 700 * 1009 ** 200 * 999983,        # still long past them
], ids=["prime-cofactor", "repeated", "square", "power-of-10",
        "uncertified", "huge-cofactor", "primorial", "short-after-small",
        "long-after-small"])
def test_factorize_past_the_gcd_threshold_equals_whole_trial_division(n):
    assert n.bit_length() > fields.GCD_BITS
    assert _factorize_or_message(n) == _whole_trial_division(n)


def _spy_on_the_sieve(monkeypatch):
    """Route `fields._primes` through a spy, from no list of primes held:
    returns the list of the sieve sizes asked for, in bits, and the count
    of primes drawn, a one-element list."""
    monkeypatch.setattr(fields, "_sieved", [1, ()])
    sieve, sizes, tried = fields._primes, [], [0]

    def counted(bits):
        sizes.append(bits)
        for p in sieve(bits):
            tried[0] += 1
            yield p

    monkeypatch.setattr(fields, "_primes", counted)
    return sizes, tried


def test_huge_integer_without_a_small_prime_skips_trial_division(
        monkeypatch):
    """1000003^61 has no prime up to 10^6, so after the 172 primes below
    2^10 the gcd with their product leaves nothing to trial-divide; whole
    trial division tries all 78,498 primes before it refuses the same
    cofactor."""
    fields._small_primes_product()  # built before the spy counts primes
    _, tried = _spy_on_the_sieve(monkeypatch)
    with pytest.raises(FactorizationLimitExceeded,
                       match="cofactor <1216-bit integer> not certified"):
        factorize(1000003 ** 61)
    assert 172 <= tried[0] <= 172 + 1


def test_short_integer_is_refused_after_one_pass_over_the_primes(
        monkeypatch):
    """1000003^50 (997 bits) is trial-divided whole: one pass over the
    78,498 primes up to 10^6, with no composite among the divisors, ends
    in the refusal that whole trial division gives."""
    _, tried = _spy_on_the_sieve(monkeypatch)
    n = 1000003 ** 50
    with pytest.raises(FactorizationLimitExceeded) as refused:
        factorize(n)
    assert str(refused.value) == _whole_trial_division(n) == (
        "cofactor <997-bit integer> not certified")
    # every prime up to 10^6 is tried, through the sieve, and no composite
    assert 78498 <= tried[0] <= 78498 + 172


def test_smooth_huge_integer_needs_no_primes_product(monkeypatch):
    """10^4000 has only the primes 2 and 5, below 1,000: dividing them out
    leaves 1, so the product of the primes up to 10^6 is never built, and
    no sieve past 2^10 is read."""
    fields.factorize.cache_clear()
    fields._small_primes_product.cache_clear()
    sizes, _ = _spy_on_the_sieve(monkeypatch)
    assert square_class(10 ** 4000) == 1
    assert fields._small_primes_product.cache_info().currsize == 0
    assert sizes and max(sizes) <= 10
    assert fields._sieved[0] == 1 << 10


def test_splitting_test_of_a_small_algebra_reads_no_sieve_past_2_to_the_10(
        monkeypatch):
    """The sieve is sized to the square root of what is trial-divided: from
    cleared caches, the splitting test of (-1, -1), whose norm form has
    entries of one digit, reads no sieve of more than 10 bits."""
    fields.factorize.cache_clear()
    ramified_places.cache_clear()
    quadforms._local_data.cache_clear()
    sizes, _ = _spy_on_the_sieve(monkeypatch)
    assert not is_split(QuatAlgebra(-1, -1))
    assert sizes and max(sizes) <= 10
    assert fields._sieved[0] <= 1 << 10


def test_one_list_of_primes_is_kept(monkeypatch):
    """Every size from 1 to 20 bits, smallest first, is read from one list
    that the larger sizes replace: what stays allocated is within 10% of
    the list up to 10^6 alone (about 3 MB), where a list kept for each
    size retained about twice that."""
    def retained(sizes):
        monkeypatch.setattr(fields, "_sieved", [1, ()])
        tracemalloc.start()
        try:
            drawn = [sum(1 for _ in fields._primes(bits)) for bits in sizes]
            return drawn, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    drawn, every_size = retained(range(1, 21))
    assert drawn[:10] == [1, 2, 4, 6, 11, 18, 31, 54, 97, 172]
    assert drawn[-1] == 78498
    assert fields._sieved[0] == fields.TRIAL_DIVISION_BOUND
    _, largest_alone = retained([20])
    assert every_size <= 1.1 * largest_alone


def test_ratio_class_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError,
                       match="^square class of a ratio over 0$"):
        ratio_class(3, 0)
    with pytest.raises(ZeroElement, match="^square class of 0$"):
        ratio_class(0, 0)


def test_factorize_zero():
    with pytest.raises(ZeroElement):
        factorize(0)


def test_squarefree_part():
    assert squarefree_part(18) == 2
    assert squarefree_part(-12) == -3
    assert squarefree_part(49) == 1
    assert squarefree_part(1) == 1


def test_square_class_fractions():
    assert square_class(Fraction(18, 50)) == 1
    assert square_class(Fraction(-3, 4)) == -3
    assert square_class(8) == 2


def test_square_class_product_avoids_refactorization():
    # two squarefree numbers whose plain product would be huge
    a = square_class(999983)       # prime near 1e6
    b = square_class(999979)       # another prime
    prod = class_mul(a, b)
    assert prod == 999983 * 999979
    assert class_mul(prod, prod) == 1


def test_square_class_fp():
    F7 = Fp(7)
    # squares mod 7 are {1, 2, 4}
    for r in (1, 2, 4):
        assert square_class(r, F7) == 1
    for r in (3, 5, 6):
        assert square_class(r, F7) == 3


def test_legendre_frozen_values():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(14, 7) == 0
    assert legendre_symbol(-1, 13) == 1
    assert legendre_symbol(-1, 11) == -1
    with pytest.raises(EvenOrCompositeModulus):
        legendre_symbol(3, 8)


def test_hilbert_frozen_values():
    # a place of Q is a prime p, or -1 for the real place
    v2, v7 = 2, 7
    assert hilbert_symbol(-1, -1, -1) == -1
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
    places = [-1, 2, 3, 5, 7]
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
        places = [-1] + sorted({2} | {p for n in (a, b)
                                      for p, _ in factorize(n)[1]})
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


@pytest.mark.parametrize("p", [1, 0, 4, 15, -2])
def test_non_prime_p_is_refused(p):
    # unchecked, p = 1 loops forever in the valuation and p = 0 divides by 0
    with pytest.raises(EvenOrCompositeModulus):
        is_padic_square(3, p)
    with pytest.raises(EvenOrCompositeModulus):
        hilbert_symbol(2, 3, p)


def test_smallest_nonresidue_refuses_a_modulus_without_one():
    """Below 3 there is no n in 2 .. p - 1 at all, so no non-residue: the
    loop ends and the last raise fires.  (Past 2, legendre_symbol refuses
    a composite p first, and every odd prime has a non-residue.)"""
    assert smallest_nonresidue(3) == 2
    for p in (2, 1):
        with pytest.raises(EvenOrCompositeModulus,
                           match=f"no non-residue mod {p}"):
            smallest_nonresidue(p)
