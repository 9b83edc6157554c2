"""Base fields: exact arithmetic over Q and F_p (p odd), square classes and
the Legendre / Hilbert symbols.

A place of Q is a plain integer: a prime p, or -1 for the real place.

Everything here is deterministic: integer factorization is trial division
up to a fixed bound, never probabilistic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import (
    EvenOrCompositeModulus,
    FactorizationLimitExceeded,
    ZeroArgument,
    ZeroElement,
    quoted,
)
from .record import Record

TRIAL_DIVISION_BOUND = 10**6
# factorize reads the primes up to 10^6 of a longer n from one gcd, after
# dividing out the primes below 2^10
GCD_BITS = 1000
# A function keeps an lru_cache where its hits save at least 1% of
# `quatwitt check all` or of a benchmark stream (hits times the measured
# cost of computing less that of a hit).  Each bound is at least 4x the
# entries such a run fills, so none evicts; it caps a long-lived process.


# ---------------------------------------------------------------------------
# field specifications


class FieldSpec(Record):
    """Q when p is None, else F_p (p an odd prime); forms over Q(t) live in
    funcfield."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and (p == 2 or not is_prime(p)):
            raise EvenOrCompositeModulus(f"not an odd prime: {quoted(p)}")
        self.p = p

    def __repr__(self):
        return "Q" if self.p is None else f"F_{self.p}"


QQ = FieldSpec()


def Fp(p: int) -> FieldSpec:
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# integer factorization (trial division only)


def is_prime(n: int) -> bool:
    """Deterministic primality, by the trial division of `factorize` and
    within its limit."""
    return n > 1 and factorize(n)[1] == ((n, 1),)


@lru_cache(maxsize=2**17)
def factorize(n: int):
    """Factor a nonzero integer: returns (sign, [(prime, exponent), ...]).

    Pure trial division by the primes up to 10^6, with no bound on n
    itself.  The cofactor left has no prime factor up to 10^6, so it is
    prime up to (10^6 + 1)^2: 10^6 + 1 = 101 * 9901 is composite, and the
    smallest composite without such a factor is 1000003^2.  Past that it
    is certified when it is the square s^2 of some s <= (10^6 + 1)^2,
    which is then prime, and any other raises FactorizationLimitExceeded.
    Every prime tried comes from one sieve (`_primes`), sized to the
    square root of n and capped at 10^6, so an n of at most 1,000 bits
    with no prime up to 10^6 is refused after its 78,498 primes.

    Past GCD_BITS bits, the 172 primes below 2^10 are divided out of n
    first, which leaves 1 or a short cofactor for a smooth n such as
    10^4000.  A cofactor still past GCD_BITS bits meets its primes up to
    10^6 through g = gcd(n, P), P their product (`_small_primes_product`):
    g is their product over those dividing n, so trial division of g finds
    exactly the primes trial division of n would, and they are divided out
    of n in the same increasing order.  A huge n with no such prime is then
    refused with no trial division past the first 172 primes.
    """
    if n == 0:
        raise ZeroElement("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors = []
    if n.bit_length() > GCD_BITS:
        for p in _primes(10):
            if n % p == 0:
                e, n = _val_and_unit(n, p)
                factors.append((p, e))
    if n.bit_length() > GCD_BITS:
        for p, _ in _trial_division(gcd(n, _small_primes_product()))[0]:
            e, n = _val_and_unit(n, p)
            factors.append((p, e))
    else:
        # no prime below 2^10 divides n past the first pass, so the
        # primes found here come after those of the factors so far
        more, n = _trial_division(n)
        factors += more
    if n > 1:
        certified = (TRIAL_DIVISION_BOUND + 1) ** 2
        if n <= certified:
            factors.append((n, 1))
        else:
            s = isqrt(n)
            if s * s != n or s > certified:
                raise FactorizationLimitExceeded(
                    f"cofactor {quoted(n)} not certified")
            factors.append((s, 2))
    return sign, tuple(factors)


def _trial_division(n: int) -> tuple[list[tuple[int, int]], int]:
    """The (prime, exponent) pairs of n > 0 found by trial division up to
    10^6 and sqrt of what is left, in increasing order, and the cofactor
    left: 1, a prime, or a number with no prime factor up to 10^6."""
    factors = []
    for p in _primes(min(isqrt(n), TRIAL_DIVISION_BOUND).bit_length()):
        if p * p > n:
            break
        if n % p == 0:
            e, n = _val_and_unit(n, p)
            factors.append((p, e))
    if 1 < n <= TRIAL_DIVISION_BOUND:
        # no prime up to its square root divides it: it is prime
        factors.append((n, 1))
        n = 1
    return factors, n


# the one source of primes, sieved on first need of each size so that
# importing the library, or factoring small integers, does not pay for the
# 78,498 primes up to 10^6 (about 3 MB); the keys are 1 ... 20, so none
# evicts, and all 20 hold about 7 MB
@lru_cache(maxsize=2**5)
def _primes(bits: int) -> tuple[int, ...]:
    """The primes up to min(2^bits, 10^6), in increasing order, by a sieve.
    Trial division of n reads _primes(min(isqrt(n), 10^6).bit_length())."""
    bound = min(1 << bits, TRIAL_DIVISION_BOUND)
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = bytes(2)
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
    return tuple(compress(range(bound + 1), sieve))


# the one product of primes a process keeps: about 180 kB
@lru_cache(maxsize=1)
def _small_primes_product() -> int:
    """The product of the primes up to 10^6, by a product tree (pairwise
    products of balanced sizes), built once on first need."""
    level = _primes(TRIAL_DIVISION_BOUND.bit_length())
    while len(level) > 1:
        level = [prod(level[k:k + 2]) for k in range(0, len(level), 2)]
    return level[0]


def squarefree_part(n: int) -> int:
    """Squarefree integer representing the square class of n != 0."""
    sign, factors = factorize(n)
    out = sign
    for p, e in factors:
        if e % 2:
            out *= p
    return out


# ---------------------------------------------------------------------------
# square classes


def sq_mul(a: int, b: int) -> int:
    """Squarefree representative of ab, for squarefree integers a and b;
    no fresh factorization is needed."""
    g = gcd(a, b)
    return a * b // (g * g)


def rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def ratio_class(n: int, d: int) -> int:
    """The square class of n / d for integers n and d: the numerator and
    the denominator of Fraction(n, d), factored apart (n first), with no
    Fraction built.  n = 0 raises ZeroElement, d = 0 ZeroDivisionError."""
    if not n:
        raise ZeroElement("square class of 0")
    if not d:
        raise ZeroDivisionError("square class of a ratio over 0")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g == d:
        return squarefree_part(n // g)
    return squarefree_part(n // g) * squarefree_part(d // g)


def square_class(x, field: FieldSpec = QQ) -> int:
    """Canonical representative of the square class of a nonzero element.

    Over Q, x may be an int or a Fraction, whose class is the squarefree
    integer `ratio_class` reads from its numerator and denominator.  Over
    F_p a rational n/d stands for n * d^-1 mod p, and the representative
    is 1 or the smallest non-residue."""
    if field.p is None:
        if isinstance(x, int) and x:
            return squarefree_part(x)
        x = Fraction(x)
        return ratio_class(x.numerator, x.denominator)
    p = field.p
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroElement(f"{quoted(x)} has no value mod {p}: {p} divides "
                          "its denominator")
    r = x.numerator * pow(x.denominator, -1, p) % p
    if r == 0:
        raise ZeroElement(f"square class of 0: {quoted(x)} is 0 mod {p}")
    return 1 if legendre_symbol(r, p) == 1 else smallest_nonresidue(p)


def class_mul(a: int, b: int, field: FieldSpec = QQ) -> int:
    """Representative of the product of the square classes with
    representatives a and b."""
    if field.p is None:
        return sq_mul(a, b)
    return square_class(a * b, field)


def smallest_nonresidue(p: int) -> int:
    for n in range(2, p):
        if legendre_symbol(n, p) == -1:
            return n
    raise EvenOrCompositeModulus(f"no non-residue mod {p}")


# ---------------------------------------------------------------------------
# symbols


@lru_cache(maxsize=2**15)
def legendre_symbol(a: int, p: int) -> int:
    """(a|p) in {-1, 0, 1} via Euler's criterion; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise EvenOrCompositeModulus(f"not an odd prime: {quoted(p)}")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else 1


def _require_prime(p: int):
    if not is_prime(p):
        raise EvenOrCompositeModulus(f"{quoted(p)} is not prime")


def _val_and_unit(n: int, p: int):
    """n = p^v * u with p not dividing u; returns (v, u)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _class_int(x) -> int:
    """An integer in the square class of the rational x: n/d and n*d
    differ by the square d^2."""
    if isinstance(x, int):
        return x
    x = Fraction(x)
    return x.numerator * x.denominator


def hilbert_symbol(a, b, v: int) -> int:
    """Hilbert symbol (a, b)_v of nonzero rationals over the completion of
    Q at the place v: a prime p, or -1 for the real place."""
    if v != -1:
        _require_prime(v)
    return hilbert_symbol_p(_class_int(a), _class_int(b), v)


def hilbert_symbol_p(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p of nonzero integers over Q_p, for a prime p
    or p = -1, the real place (Serre, *A Course in Arithmetic*, III.1)."""
    if a == 0 or b == 0:
        raise ZeroArgument("Hilbert symbol needs nonzero arguments")
    if p == -1:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _val_and_unit(a, p)
    beta, w = _val_and_unit(b, p)
    if p == 2:
        # epsilon (u - 1)/2 and omega (u^2 - 1)/8 of the units, mod 2
        eu, ew = (u % 8 - 1) // 2, (w % 8 - 1) // 2
        ou, ow = ((u % 8) ** 2 - 1) // 8, ((w % 8) ** 2 - 1) // 8
        return -1 if (eu * ew + alpha * ow + beta * ou) % 2 else 1
    sign = 1
    if (alpha * beta * (p - 1) // 2) % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre_symbol(u % p, p)
    if alpha % 2:
        sign *= legendre_symbol(w % p, p)
    return sign


def is_padic_square(x, p: int) -> bool:
    """Whether a nonzero rational is a square in Q_p, for a prime p."""
    _require_prime(p)
    x = _class_int(x)
    if x == 0:
        raise ZeroArgument("0 has no square class")
    v, u = _val_and_unit(x, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre_symbol(u % p, p) == 1
