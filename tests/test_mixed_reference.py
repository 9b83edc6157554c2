"""mixed_equal against the tiers it held before the odd-part decision moved
into hermitian.herm_verdict, kept here as the reference: split Morita
transfer, then the screens of `_reference_screened_distinct`, cancellation
and the certificate, all inline.  Both must give the same verdict on every
seeded draw, and the draws must reach all three verdicts."""

import random
from collections import Counter
from fractions import Fraction

from quatwitt.fields import sq_mul, square_class
from quatwitt.hermitian import (
    cancel_hyperbolic_pairs,
    hyperbolicity_certificate,
    morita_transfer,
)
from quatwitt.mixed import mixed, mixed_equal
from quatwitt.quadforms import is_witt_zero, qf, witt_class
from quatwitt.quaternions import QuatAlgebra, find_nilpotent, is_split

ALGEBRAS = [QuatAlgebra(1, 1), QuatAlgebra(2, 7), QuatAlgebra(-1, -1),
            QuatAlgebra(-1, -3)]
BOUND = 2


def _reference_disc(h):
    disc = 1
    for z in h.diag:
        disc = sq_mul(disc, square_class(z.nrd()))
    return disc


def _reference_screened_distinct(x, y):
    if x.even != y.even:
        return True
    if (x.odd.rank + y.odd.rank) % 2:
        return True
    return _reference_disc(x.odd) != _reference_disc(y.odd)


def _reference_mixed_equal(x, y, search_bound):
    diff = x.odd.perp(y.odd.neg())
    if is_split(x.algebra):
        if x.even != y.even:
            return "distinct"
        q = morita_transfer(diff, find_nilpotent(x.algebra))
        return "equal" if is_witt_zero(q) else "distinct"
    if _reference_screened_distinct(x, y):
        return "distinct"
    left = cancel_hyperbolic_pairs(diff)
    if left.rank == 0:
        return "equal"
    if left.rank == 2:
        return "distinct"
    cert = hyperbolicity_certificate(left, bound=search_bound)
    return "equal" if cert.status == "hyperbolic" else "unknown"


def _pure(rng, A, h=3):
    while True:
        z = A.pure(*(rng.randint(-h, h) for _ in range(3)))
        if z.is_invertible():
            return z


def _sandwich(rng, A, z):
    """gamma(p) z p for an invertible p: an entry isometric to z."""
    while True:
        p = A.element(*(rng.randint(-2, 2) for _ in range(4)))
        if p.is_invertible():
            return p.conj() * z * p


def _draw(rng, A):
    """A pair of mixed classes with odd ranks 0-4.  The second odd part
    is drawn afresh, or made from the first by sandwiching each entry and
    scaling them all by one of 2, 3 and 6, or else by sandwiching, scaling
    some by 2, 3 or 9/4 and adding a hyperbolic pair: equal and
    same-discriminant pairs are common."""
    even = witt_class(qf([rng.choice([1, -1, 2, 3])]))
    x_odd = [_pure(rng, A) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:
        y_odd = [_pure(rng, A) for _ in range(rng.randint(0, 4))]
    elif rng.random() < 0.3:
        c = rng.choice([2, 3, 6])
        y_odd = [_sandwich(rng, A, z).scale(c) for z in x_odd]
    else:
        y_odd = [_sandwich(rng, A, z).scale(
            rng.choice([1, 1, 1, 2, 3, Fraction(9, 4)])) for z in x_odd]
        if len(y_odd) <= 2 and rng.random() < 0.5:
            w = _pure(rng, A)
            y_odd += [w, -_sandwich(rng, A, w)]
        rng.shuffle(y_odd)
    y_even = even if rng.random() < 0.9 else witt_class(qf([5]))
    return (mixed(A, even=even, odd_entries=tuple(x_odd)),
            mixed(A, even=y_even, odd_entries=tuple(y_odd)))


def _certified_pair():
    """Over (-1, -1), <-ij, z> against <-6ij, 6z> with z = i + j + ij: no
    two entries of the difference cancel, and the certificate finds the
    rank-4 leftover hyperbolic at bound 2 (tests/test_mixed.py::
    test_mixed_equal_certificate_fallback)."""
    A = ALGEBRAS[2]
    ij, z = A.ij(), A.i() + A.j() + A.ij()
    return (mixed(A, odd_entries=(-ij, z)),
            mixed(A, odd_entries=(ij.scale(-6), z.scale(6))))


def test_mixed_equal_matches_the_reference_tiers():
    rng = random.Random(27)
    pairs = [_draw(rng, ALGEBRAS[n % len(ALGEBRAS)]) for n in range(160)]
    seen = Counter()
    for x, y in pairs + [_certified_pair()]:
        verdict = mixed_equal(x, y, search_bound=BOUND)
        assert verdict == _reference_mixed_equal(x, y, BOUND), (x, y)
        seen[verdict] += 1
    assert set(seen) == {"equal", "distinct", "unknown"}, seen
