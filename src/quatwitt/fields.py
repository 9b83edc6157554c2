"""Base fields: exact arithmetic over Q and F_p (p odd), square classes and
the Legendre / Hilbert symbols.

A place of Q is a plain integer: a prime p, or -1 for the real place.

Everything here is deterministic: integer factorization is trial division
up to a fixed bound, never probabilistic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import (
    EvenOrCompositeModulus,
    FactorizationLimitExceeded,
    ZeroArgument,
    ZeroElement,
    quoted,
)
from .record import Record

TRIAL_DIVISION_BOUND = 10**6
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

    def __eq__(self, other):
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

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

    Pure trial division up to 10^6, with no bound on n itself.  The
    cofactor left has no prime factor up to 10^6, so it is prime up to
    (10^6 + 1)^2: 10^6 + 1 = 101 * 9901 is composite, and the smallest
    composite without such a factor is 1000003^2.  Past that it is
    certified when it is the square s^2 of some s <= (10^6 + 1)^2, which
    is then prime, and any other raises FactorizationLimitExceeded.
    """
    if n == 0:
        raise ZeroElement("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors = []
    for p in _trial_divisors():
        if p * p > n:
            break
        if n % p == 0:
            e, n = _val_and_unit(n, p)
            factors.append((p, e))
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


def _trial_divisors():
    """2, 3 and every 6k +- 1 up to 10^6: 333,334 divisors, all 78,498
    primes among them.  A composite d among them never divides what is
    left of n, as its prime factors are smaller and were divided out
    first."""
    yield 2
    yield 3
    d = 5
    step = 2
    while d <= TRIAL_DIVISION_BOUND:
        yield d
        d += step
        step = 6 - step


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


def square_class(x, field: FieldSpec = QQ) -> int:
    """Canonical representative of the square class of a nonzero element.

    Over Q, x may be an int or Fraction: n/d and n*d share a class, so the
    representative is the squarefree integer squarefree_part(n*d).  Over
    F_p a rational n/d stands for n * d^-1 mod p, and the representative
    is 1 or the smallest non-residue.
    """
    if field.p is None:
        if not isinstance(x, int):
            x = Fraction(x)
            if x.denominator != 1:
                # numerator and denominator are coprime: reduce them apart
                return (squarefree_part(x.numerator)
                        * squarefree_part(x.denominator))
            x = x.numerator
        if x == 0:
            raise ZeroElement("square class of 0")
        return squarefree_part(x)
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
