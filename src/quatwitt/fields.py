"""Base fields: exact arithmetic over Q and F_p (p odd), square classes,
places and the Legendre / Hilbert symbols.

Everything here is deterministic: integer factorization is trial division
up to a configured bound, never probabilistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Optional, Tuple

from .errors import (
    EvenOrCompositeModulus,
    FactorizationLimitExceeded,
    UnsupportedField,
    ZeroArgument,
    ZeroElement,
)

TRIAL_DIVISION_BOUND = 10**6
# A function keeps an lru_cache where its hits save at least 1% of
# `quatwitt check all` or of a benchmark stream (hits times the measured
# cost of computing less that of a hit).  Each bound is at least 4x the
# entries such a run fills, so none evicts; it caps a long-lived process.


# ---------------------------------------------------------------------------
# field specifications


@dataclass(frozen=True)
class FieldSpec:
    """Q or F_p (p an odd prime); forms over Q(t) live in funcfield."""

    kind: str  # "Q" | "Fp"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("Q takes no modulus")
        elif self.kind == "Fp":
            if self.p is None or self.p == 2 or not is_prime(self.p):
                raise EvenOrCompositeModulus(f"not an odd prime: {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    def __repr__(self):
        return "Q" if self.kind == "Q" else f"F_{self.p}"


QQ = FieldSpec("Q")


def Fp(p: int) -> FieldSpec:
    return FieldSpec("Fp", p)


# ---------------------------------------------------------------------------
# integer factorization (trial division only)


# kept below 1%: a miss on a prime near 10^12 is 5 * 10^5 trial divisions,
# and legendre_symbol checks its modulus on each of its own misses
@lru_cache(maxsize=2**11)
def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; n must stay within the
    range where trial division to 10^6 is conclusive."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if d > TRIAL_DIVISION_BOUND:
            raise FactorizationLimitExceeded(f"primality of {n} out of range")
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=2**17)
def factorize(n: int):
    """Factor a nonzero integer: returns (sign, [(prime, exponent), ...]).

    Pure trial division up to 10^6, with no bound on n itself; a cofactor
    that cannot be certified prime raises FactorizationLimitExceeded.
    """
    if n == 0:
        raise ZeroElement("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors = []
    for p in _trial_primes():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if n > 1:
        if n > TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND:
            raise FactorizationLimitExceeded(f"cofactor {n} not certified")
        factors.append((n, 1))
    return sign, tuple(factors)


def _trial_primes():
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


@dataclass(frozen=True)
class SquareClass:
    """Canonical representative of k^x / (k^x)^2.

    Over Q the representative is a squarefree integer; over F_p it is 1 or
    the smallest quadratic non-residue.
    """

    repr: int
    field: FieldSpec

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.field != other.field:
            raise UnsupportedField("square classes over different fields")
        if self.field.kind == "Q":
            return SquareClass(sq_mul(self.repr, other.repr), self.field)
        return square_class(self.repr * other.repr, self.field)

    def __neg__(self) -> "SquareClass":
        if self.field.kind == "Q":
            return SquareClass(-self.repr, self.field)
        return square_class(-self.repr, self.field)

    def is_one(self) -> bool:
        return self.repr == 1


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


def square_class(x, field: FieldSpec = QQ) -> SquareClass:
    """Canonical square class of a nonzero element.

    Over Q, x may be an int or Fraction: n/d and n*d share a class, so the
    representative is squarefree_part(n*d).  Over F_p a rational n/d
    stands for n * d^-1 mod p, and the representative is 1 or the smallest
    non-residue.
    """
    if field.kind == "Q":
        x = Fraction(x)
        if x == 0:
            raise ZeroElement("square class of 0")
        # numerator and denominator are coprime, so reduce them separately
        return SquareClass(
            squarefree_part(x.numerator) * squarefree_part(x.denominator),
            field,
        )
    p = field.p
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroElement(f"{x} has no value mod {p}: {p} divides "
                          "its denominator")
    r = x.numerator * pow(x.denominator, -1, p) % p
    if r == 0:
        raise ZeroElement(f"square class of 0: {x} is 0 mod {p}")
    if legendre_symbol(r, p) == 1:
        return SquareClass(1, field)
    return SquareClass(smallest_nonresidue(p), field)


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
        raise EvenOrCompositeModulus(f"not an odd prime: {p}")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else 1


@dataclass(frozen=True)
class Place:
    """A place of Q or Q(t).

    kind is one of "real", "finite" (p-adic, p prime including 2),
    "poly" (monic irreducible pi of Q[t]) or "infinite" (1/t-adic).
    """

    kind: str
    p: Optional[int] = None
    pi: Optional[Tuple[Fraction, ...]] = None

    def __repr__(self):
        if self.kind == "real":
            return "v_real"
        if self.kind == "finite":
            return f"v_{self.p}"
        if self.kind == "infinite":
            return "v_inf"
        return f"v_({self.pi})"


REAL_PLACE = Place("real")


def _require_prime(p: int):
    if not is_prime(p):
        raise EvenOrCompositeModulus(f"{p} is not prime")


def finite_place(p: int) -> Place:
    _require_prime(p)
    return Place("finite", p=p)


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


def hilbert_symbol(a, b, v: Place) -> int:
    """Hilbert symbol (a, b)_v over the completion of Q at v."""
    a, b = _class_int(a), _class_int(b)
    if a == 0 or b == 0:
        raise ZeroArgument("Hilbert symbol needs nonzero arguments")
    if v.kind == "real":
        return hilbert_symbol_p(a, b, -1)
    if v.kind != "finite":
        raise UnsupportedField(f"Hilbert symbol undefined at {v}")
    _require_prime(v.p)
    return hilbert_symbol_p(a, b, v.p)


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


def relevant_primes(values) -> list:
    """Finite primes at which Hilbert symbols of the given nonzero
    rationals can be nontrivial: 2 plus every odd prime in a support."""
    primes = {2}
    for x in values:
        x = Fraction(x)
        for n in (x.numerator, x.denominator):
            _, fs = factorize(n)
            for q, _ in fs:
                primes.add(q)
    return sorted(primes)
