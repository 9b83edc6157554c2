"""Quaternion algebras (a, b | Q) with the canonical involution.

The basis (1, i, j, ij) is fixed globally: i^2 = a, j^2 = b, ji = -ij.
Quaternions live over Q only.  Each is four integer numerators over one
positive denominator, in lowest terms, coerced once by `QuatAlgebra.element`
and `pure`; the arithmetic is on integers, and `coords` gives the Fraction
coordinates back.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Tuple

from .errors import (
    AlgebraMismatch,
    GenericBasisUnavailable,
    NotNilpotent,
    NotSplit,
    SearchBoundExceeded,
    ZeroArgument,
)
from .fields import square_class
from .quadforms import QuadForm, is_isotropic, qf


@dataclass(frozen=True)
class QuatAlgebra:
    """Q = (a, b | Q).

    `table` is (D, D a, D b, D ab) with D = den(a) den(b): the coefficients
    1, a, b, ab of the multiplication table, cleared of denominators once
    per algebra so that products of integer numerators stay integral.
    """

    a: Fraction
    b: Fraction
    table: Tuple[int, int, int, int] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        a, b = Fraction(self.a), Fraction(self.b)
        if a == 0 or b == 0:
            raise ZeroArgument("quaternion algebra parameters must be nonzero")
        d = a.denominator * b.denominator
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "table", (d, int(d * a), int(d * b),
                                           int(d * a * b)))

    def require_generic_basis(self):
        """The generic-splitting construction needs (ij)^2 = -ab to be a
        non-square of Q."""
        if square_class(-self.a * self.b).is_one():
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
        cs = tuple(map(Fraction, (c0, c1, c2, c3)))
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
    multiplication table, shared by `Quaternion` (k = `QuatAlgebra.table`),
    the twisted trace Gram matrix and the integer sandwich tables of the
    certificate search."""
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


@dataclass(frozen=True)
class Quaternion:
    """Element (n0 + n1 i + n2 j + n3 ij) / den of (a, b | Q).

    The numerators `num` are integers and the denominator `den` is positive,
    with gcd(*num, den) == 1, so equal quaternions have equal fields and
    the generated __eq__ and __hash__ are exact.  Build them with
    `QuatAlgebra.element` or `pure`, or an integer tuple c, which is in
    lowest terms over 1, as `Quaternion(c, 1, algebra)`.
    """

    num: Tuple[int, int, int, int]
    den: int
    algebra: QuatAlgebra

    @property
    def coords(self) -> Tuple[Fraction, ...]:
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


@lru_cache(maxsize=2**8)
def norm_form(A: QuatAlgebra) -> QuadForm:
    """The norm form n_Q = <1,-a,-b,ab>, built once per algebra (a QuadForm
    is immutable, so the cached value is safe to share)."""
    a, b = A.a, A.b
    return qf([1, -a, -b, a * b])


# kept below the 1% rule of fields: every mixed_equal and certificate asks,
# and without the cache mixed-split's median decide op is 5% slower
@lru_cache(maxsize=2**8)
def is_split(A: QuatAlgebra) -> bool:
    """Split iff the norm form is isotropic."""
    return is_isotropic(norm_form(A))


def height_shell(h: int, n: int):
    """The integer n-tuples whose largest absolute entry is exactly h, in
    lexicographic order; the shells h = 0, 1, 2, ... cover Z^n once."""
    for c in itertools.product(range(-h, h + 1), repeat=n):
        if h in c or -h in c:
            yield c


NILPOTENT_HEIGHT_BOUND = 40


@lru_cache(maxsize=2**8)
def find_nilpotent(A: QuatAlgebra) -> Quaternion:
    """Nonzero pure z0 with z0^2 = 0, by lexicographic height search on the
    pure norm form up to NILPOTENT_HEIGHT_BOUND; the result is verified by
    squaring.  Cached per algebra: split-case equality, Morita transfer and
    phi_z0 all transfer along this one nilpotent."""
    if not is_split(A):
        raise NotSplit(f"{A!r} is a division algebra")
    a, b = A.a, A.b
    for h in range(1, NILPOTENT_HEIGHT_BOUND + 1):
        for c1, c2, c3 in height_shell(h, 3):
            if -a * c1 * c1 - b * c2 * c2 + a * b * c3 * c3 == 0:
                z0 = A.pure(c1, c2, c3)
                if not (z0 * z0).is_zero():
                    raise NotNilpotent(f"{z0!r} does not square to 0")
                return z0
    raise SearchBoundExceeded(
        f"no nilpotent of height <= {NILPOTENT_HEIGHT_BOUND}")


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
