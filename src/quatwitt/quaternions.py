"""Quaternion algebras (a, b | Q) with the canonical involution.

The basis (1, i, j, ij) is fixed globally: i^2 = a, j^2 = b, ji = -ij.
Quaternions live over Q only: coordinates are Fractions, coerced once by
`QuatAlgebra.element` and `pure`, and the arithmetic keeps them rational.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
from .quadforms import is_isotropic, qf


@dataclass(frozen=True)
class QuatAlgebra:
    """Q = (a, b | Q)."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ZeroArgument("quaternion algebra parameters must be nonzero")

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
        return Quaternion(tuple(map(Fraction, (c0, c1, c2, c3))), self)

    def __repr__(self):
        return f"({self.a},{self.b}|Q)"


def _mul_coords(x, y, a, b):
    """Coordinates of x y in (a, b | Q) on the basis (1, i, j, ij), from
    those of x and y: the one multiplication table, shared by Fraction
    coordinates and by integer structure constants."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


@dataclass(frozen=True)
class Quaternion:
    """Element c0 + c1 i + c2 j + c3 ij."""

    coords: Tuple
    algebra: QuatAlgebra

    def _check(self, other: "Quaternion"):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("operands from different algebras")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(
            tuple(x + y for x, y in zip(self.coords, other.coords)), self.algebra
        )

    def __neg__(self) -> "Quaternion":
        return Quaternion(tuple(-x for x in self.coords), self.algebra)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return self + (-other)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(_mul_coords(self.coords, other.coords,
                                      self.algebra.a, self.algebra.b),
                          self.algebra)

    def scale(self, c) -> "Quaternion":
        return Quaternion(tuple(c * x for x in self.coords), self.algebra)

    def conj(self) -> "Quaternion":
        """Canonical involution gamma(x) = Trd(x) - x."""
        c0, c1, c2, c3 = self.coords
        return Quaternion((c0, -c1, -c2, -c3), self.algebra)

    def trd(self):
        return 2 * self.coords[0]

    def nrd(self):
        a, b = self.algebra.a, self.algebra.b
        c0, c1, c2, c3 = self.coords
        return c0 * c0 - a * c1 * c1 - b * c2 * c2 + a * b * c3 * c3

    def is_zero(self) -> bool:
        return all(not x for x in self.coords)

    def is_pure(self) -> bool:
        return not self.coords[0]

    def is_invertible(self) -> bool:
        return bool(self.nrd())

    def __repr__(self):
        return f"Quat{tuple(str(c) for c in self.coords)}"


def norm_forms(A: QuatAlgebra):
    """The norm form <1,-a,-b,ab> and the pure norm form <-a,-b,ab>."""
    a, b = A.a, A.b
    return {
        "n_Q": qf([1, -a, -b, a * b]),
        "pure_norm": qf([-a, -b, a * b]),
    }


def is_split(A: QuatAlgebra) -> bool:
    """Split iff the norm form is isotropic."""
    return is_isotropic(norm_forms(A)["n_Q"])


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


def random_pure(A: QuatAlgebra, seed: int, height_bound: int = 10) -> Quaternion:
    """Deterministic-given-seed invertible pure quaternion with integer
    coordinates of absolute value <= height_bound."""
    return draw_pure(random.Random(seed), A, height_bound)
