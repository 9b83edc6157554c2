"""Quaternion algebras (a, b | Q) with the canonical involution.

The basis (1, i, j, ij) is fixed globally: i^2 = a, j^2 = b, ji = -ij.
Quaternions live over Q only.  Each is four integer numerators over one
positive denominator, in lowest terms, coerced once by `QuatAlgebra.element`
and `pure`; the arithmetic is on integers, and `coords` gives the Fraction
coordinates back.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import (
    AlgebraMismatch,
    GenericBasisUnavailable,
    NotNilpotent,
    NotSplit,
    SearchBoundExceeded,
    ZeroArgument,
    ZeroElement,
    quoted,
)
from .fields import sq_mul, square_class, squarefree_part
from .quadforms import QuadForm, local_anisotropic_dims
from .record import Record


class QuatAlgebra(Record):
    """Q = (a, b | Q).

    `table` is (D, D a, D b, D ab) with D = den(a) den(b): the coefficients
    1, a, b, ab of the multiplication table, cleared of denominators once
    per algebra so that products of integer numerators stay integral.
    Algebras compare and hash by their integer `table`, which is as exact
    as (a, b) and cheaper to hash: a = table[1] / table[0] and
    b = table[2] / table[0], so equal tables have equal (a, b).
    """

    __slots__ = ("a", "b", "table")

    def __init__(self, a, b):
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise ZeroArgument("quaternion algebra parameters must be nonzero")
        d = a.denominator * b.denominator
        self.a = a
        self.b = b
        self.table = (d, int(d * a), int(d * b), int(d * a * b))

    def __eq__(self, other):
        if other.__class__ is not QuatAlgebra:
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def require_generic_basis(self):
        """The generic-splitting construction needs (ij)^2 = -ab to be a
        non-square of Q."""
        if square_class(-self.a * self.b) == 1:
            raise GenericBasisUnavailable(
                "(ij)^2 is a square; pick another quaternionic basis"
            )

    def one(self) -> "Quaternion":
        return self.element(1, 0, 0, 0)

    def i(self) -> "Quaternion":
        return self.pure(1, 0, 0)

    def j(self) -> "Quaternion":
        return self.pure(0, 1, 0)

    def ij(self) -> "Quaternion":
        return self.pure(0, 0, 1)

    def pure(self, c1, c2, c3) -> "Quaternion":
        return self.element(0, c1, c2, c3)

    def element(self, c0, c1, c2, c3) -> "Quaternion":
        """c0 + c1 i + c2 j + c3 ij.  int and Fraction coordinates are used
        as they are, through their numerator and denominator, and four ints
        need neither; any other rational goes through Fraction."""
        cs = (c0, c1, c2, c3)
        if all(type(c) is int for c in cs):
            return Quaternion(cs, 1, self)
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
              for c in cs]
        den = lcm(*(c.denominator for c in cs))
        # over the lcm of the denominators the numerators are coprime to it
        return Quaternion(tuple(c.numerator * (den // c.denominator)
                                for c in cs), den, self)

    def __repr__(self):
        return f"({self.a},{self.b}|Q)"


def _mul_coords(x, y, k):
    """Coordinates of x y on the basis (1, i, j, ij) from those of x and y,
    for the multiplication table k = (e, a, b, ab): the square of i is a/e,
    that of j is b/e, and every product comes out multiplied by e.  The one
    multiplication table, shared by `Quaternion` (k = `QuatAlgebra.table`)
    and the twisted trace Gram matrix."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    e, a, b, ab = k
    return (e * x0 * y0 + a * x1 * y1 + b * x2 * y2 - ab * x3 * y3,
            e * (x0 * y1 + x1 * y0) - b * x2 * y3 + b * x3 * y2,
            e * (x0 * y2 + x2 * y0) + a * x1 * y3 - a * x3 * y1,
            e * (x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1))


def _reduced(num, den, algebra) -> "Quaternion":
    """The Quaternion num / den, for den > 0, in lowest terms."""
    g = gcd(*num, den)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return Quaternion(num, den, algebra)


class Quaternion(Record):
    """Element (n0 + n1 i + n2 j + n3 ij) / den of (a, b | Q).

    The numerators `num` are integers and the denominator `den` is positive,
    with gcd(*num, den) == 1, so equal quaternions have equal fields and
    __eq__ and __hash__ over the fields are exact.  Build them with
    `QuatAlgebra.element` or `pure`, or an integer tuple c, which is in
    lowest terms over 1, as `Quaternion(c, 1, algebra)`.
    """

    __slots__ = ("num", "den", "algebra")

    def __init__(self, num: tuple[int, int, int, int], den: int,
                 algebra: QuatAlgebra):
        self.num = num
        self.den = den
        self.algebra = algebra

    def __eq__(self, other):
        if other.__class__ is not Quaternion:
            return NotImplemented
        return ((self.num, self.den, self.algebra)
                == (other.num, other.den, other.algebra))

    def __hash__(self):
        return hash((self.num, self.den, self.algebra))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates on (1, i, j, ij), as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _check(self, other: "Quaternion"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("operands from different algebras")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        dx, dy = self.den, other.den
        return _reduced(tuple(x * dy + y * dx
                              for x, y in zip(self.num, other.num)),
                        dx * dy, self.algebra)

    def __neg__(self) -> "Quaternion":
        return Quaternion(tuple(-x for x in self.num), self.den, self.algebra)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return self + (-other)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        k = self.algebra.table
        return _reduced(_mul_coords(self.num, other.num, k),
                        k[0] * self.den * other.den, self.algebra)

    def scale(self, c) -> "Quaternion":
        """c self, for c an int or a Fraction."""
        p = c.numerator
        return _reduced(tuple(p * x for x in self.num),
                        c.denominator * self.den, self.algebra)

    def conj(self) -> "Quaternion":
        """Canonical involution gamma(x) = Trd(x) - x."""
        n0, n1, n2, n3 = self.num
        return Quaternion((n0, -n1, -n2, -n3), self.den, self.algebra)

    def trd(self) -> Fraction:
        return Fraction(2 * self.num[0], self.den)

    def _nrd_num(self) -> int:
        """Nrd(self) times e den^2, e = table[0]: an integer."""
        e, a, b, ab = self.algebra.table
        n0, n1, n2, n3 = self.num
        return e * n0 * n0 - a * n1 * n1 - b * n2 * n2 + ab * n3 * n3

    def nrd(self) -> Fraction:
        return Fraction(self._nrd_num(),
                        self.algebra.table[0] * self.den * self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_pure(self) -> bool:
        return not self.num[0]

    def is_invertible(self) -> bool:
        return bool(self._nrd_num())

    def __repr__(self):
        return f"Quat{tuple(str(c) for c in self.coords)}"


def nrd_class(z: Quaternion) -> int:
    """square_class(z.nrd()), read from the integers Nrd(z) e den^2 and
    e den^2 (e = table[0]).  Divided by their gcd they are the numerator
    and the denominator of the Fraction z.nrd(), which `square_class`
    factors apart; so are they here, and the same inputs are refused."""
    n = z._nrd_num()
    if not n:
        raise ZeroElement("square class of 0")
    d = z.algebra.table[0] * z.den * z.den
    g = gcd(n, d)
    if g == d:
        return squarefree_part(n // g)
    return squarefree_part(n // g) * squarefree_part(d // g)


def nrd_ratio_root(z1: Quaternion, z2: Quaternion):
    """The c >= 0 with c^2 = Nrd(z2) / Nrd(z1), or None, for invertible z1
    and z2; nothing is factored.  With N_k = Nrd(z_k) e den_k^2 the ratio
    is N2 den1^2 / (N1 den2^2), a square iff N1 N2 = N1^2 N2 / N1 is one,
    and then c = sqrt(N1 N2) den1 / (|N1| den2)."""
    n1, n2 = z1._nrd_num(), z2._nrd_num()
    prod = n1 * n2
    if prod < 0:
        return None
    root = isqrt(prod)
    if root * root != prod:
        return None
    return Fraction(root * z1.den, abs(n1) * z2.den)


def norm_form(A: QuatAlgebra) -> QuadForm:
    """The norm form n_Q = <1,-a,-b,ab>.  The class of ab is the product
    of those of a and b, so ab itself is never factored."""
    sa, sb = square_class(A.a), square_class(A.b)
    return QuadForm((1, -sa, -sb, sq_mul(sa, sb)))


# kept below the 1% rule of fields: every mixed_equal and certificate asks
# whether the algebra splits, and without the cache mixed-split's median
# decide op is 5% slower
@lru_cache(maxsize=2**8)
def ramified_places(A: QuatAlgebra) -> tuple[int, ...]:
    """The places of Q where A ramifies: -1 (the real place) first, then
    primes in ascending order.  They are the places v where the norm form
    n_Q is anisotropic over Q_v, so of local dimension 4 (a 2-fold Pfister
    form is hyperbolic or anisotropic).  They are read from
    `local_anisotropic_dims`, which reads every place where n_Q can be
    nonzero, in this order, from one local reading: the real place, 2 and
    the primes of a and b.  By Hasse-Minkowski A splits iff none ramifies,
    and by Hilbert reciprocity their number is even (Serre, *A Course in
    Arithmetic*, Ch. III-IV)."""
    return tuple(v for v, d in local_anisotropic_dims(norm_form(A)).items()
                 if d == 4)


def is_split(A: QuatAlgebra) -> bool:
    """Split iff A ramifies at no place."""
    return not ramified_places(A)


ZERO_HEIGHT_BOUND = 100


def pure_norm_zeros(A: QuatAlgebra):
    """Per height h = 1, ..., ZERO_HEIGHT_BOUND, the list of integer zeros
    with max |c_k| = h of the pure norm form on `QuatAlgebra.table`,
    -ea c1^2 - eb c2^2 + eab c3^2, each (c1, c3) solved for c2; then
    SearchBoundExceeded.  The nilpotent and the conic point come from it."""
    _, ea, eb, eab = A.table
    for h in range(1, ZERO_HEIGHT_BOUND + 1):
        shell, hh = [], h * h
        for c1 in range(-h, h + 1):
            for c3 in range(-h, h + 1):
                s, r = divmod(eab * c3 * c3 - ea * c1 * c1, eb)
                if r or s < 0 or s > hh:  # c2 > h: not in this shell
                    continue
                c2 = isqrt(s)
                if c2 * c2 == s and max(abs(c1), c2, abs(c3)) == h:
                    shell += {(c1, c2, c3), (c1, -c2, c3)}  # one if c2 = 0
        yield shell
    raise SearchBoundExceeded(
        f"no zero of the pure norm form of height <= {ZERO_HEIGHT_BOUND}")


@lru_cache(maxsize=2**8)
def find_nilpotent(A: QuatAlgebra) -> Quaternion:
    """Nonzero pure z0 with z0^2 = 0: the lexicographically least zero of
    the pure norm form in the first shell of `pure_norm_zeros` that has
    one, verified by squaring.  Cached per algebra: split-case equality,
    Morita transfer and phi_z0 all transfer along this one nilpotent."""
    if not is_split(A):
        raise NotSplit(f"{quoted(A)} is a division algebra")
    z0 = A.pure(*min(next(filter(None, pure_norm_zeros(A)))))
    if not (z0 * z0).is_zero():
        raise NotNilpotent(f"{quoted(z0)} does not square to 0")
    return z0


def draw_pure(rng: random.Random, A: QuatAlgebra, height: int) -> Quaternion:
    """Invertible pure quaternion with integer coordinates of absolute value
    <= height, drawn from rng (three randint calls per attempt)."""
    while True:
        c = [rng.randint(-height, height) for _ in range(3)]
        if not any(c):
            continue
        z = A.pure(*c)
        if z.is_invertible():
            return z
