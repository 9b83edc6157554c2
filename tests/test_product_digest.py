"""Pinned mixed products and lambda powers: `repr(x * y)` and
`repr(lambda_all(h))` over a fixed, seeded sample, hashed.

The sample spans a split algebra, an integral and a non-integral division
algebra, even parts of dimension 0-2 and odd parts of rank 0-2 (products)
or 1-3 (lambda powers), with coordinates that have denominators.  The
representatives printed are the kernels `witt_class` builds, so the digest
pins every square class and kernel representative of the odd*odd products,
the twisted trace forms behind them and their sums.  It was recorded while
the twisted trace Gram matrix was still diagonalized over Fractions.
"""

import hashlib
import random
from fractions import Fraction

from quatwitt.hermitian import AntiHermForm
from quatwitt.invariants import lambda_all
from quatwitt.mixed import mixed
from quatwitt.quadforms import qf, witt_class
from quatwitt.quaternions import QuatAlgebra

ALGEBRAS = ((1, 1), (2, 7), (-1, -1), (-1, -3),
            (Fraction(-2, 3), Fraction(-5, 7)))
COORDS = (0, 0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3))

DIGEST = "5f3606d4e844d35b628ef386c50dab155ca6b78736d352a070699382b71b40f3"


def _pure(rng, A):
    while True:
        z = A.pure(*(rng.choice(COORDS) for _ in range(3)))
        if z.is_invertible():
            return z


def _mixed(rng, A):
    even = witt_class(qf([rng.choice((1, -1, 2, -3, 6, 7, Fraction(5, 3)))
                          for _ in range(rng.randint(0, 2))]))
    return mixed(A, even, tuple(_pure(rng, A)
                                for _ in range(rng.randint(0, 2))))


def _reprs(seed=15):
    rng = random.Random(seed)
    for a, b in ALGEBRAS:
        A = QuatAlgebra(a, b)
        for _ in range(12):
            x, y = _mixed(rng, A), _mixed(rng, A)
            yield repr(x * y)
        for rank in (1, 2, 3):
            h = AntiHermForm(tuple(_pure(rng, A) for _ in range(rank)), A)
            yield repr(lambda_all(h))


def test_product_and_lambda_digest():
    digest = hashlib.sha256()
    for text in _reprs():
        digest.update(text.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == DIGEST
