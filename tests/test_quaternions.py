"""Quaternion algebra arithmetic and the canonical involution."""

import itertools
import random
from fractions import Fraction

import pytest

from quatwitt import quaternions
from quatwitt.errors import (
    FactorizationLimitExceeded,
    NotNilpotent,
    NotPureInvertible,
    NotSplit,
    SchemaViolation,
    SearchBoundExceeded,
)
from quatwitt.fields import square_class
from quatwitt.funcfield import conic_parametrize
from quatwitt.quadforms import qf, witt_equal
from quatwitt.quaternions import (
    ZERO_HEIGHT_BOUND,
    QuatAlgebra,
    draw_pure,
    find_nilpotent,
    is_split,
    norm_form,
    nrd_class,
    pure_norm_zeros,
)

H = QuatAlgebra(-1, -1)
M2 = QuatAlgebra(1, 1)


class DrawLimit:
    """An rng that raises after 30 draws: a draw loop that never ends
    fails a test at once instead of hanging it."""

    def __init__(self):
        self.rng = random.Random(0)
        self.draws = 0

    def randint(self, lo, hi):
        self.draws += 1
        if self.draws > 30:
            raise RuntimeError("drew past the limit")
        return self.rng.randint(lo, hi)


def _rand(rng, A, h=6):
    return A.element(*(Fraction(rng.randint(-h, h)) for _ in range(4)))


def test_defining_relations():
    for A in (H, M2, QuatAlgebra(2, 7)):
        i, j = A.i(), A.j()
        assert i * i == A.one().scale(A.a)
        assert j * j == A.one().scale(A.b)
        assert j * i == (i * j).scale(-1)
        assert (i * j) * (i * j) == A.one().scale(-A.a * A.b)


def test_algebra_repr():
    assert repr(H) == "(-1,-1|Q)"
    assert repr(QuatAlgebra(Fraction(-2, 3), 5)) == "(-2/3,5|Q)"


def test_associativity_random():
    rng = random.Random(4)
    for A in (H, M2):
        for _ in range(60):
            x, y, z = (_rand(rng, A) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


def test_involution_properties():
    rng = random.Random(9)
    for A in (H, QuatAlgebra(2, 7)):
        for _ in range(40):
            x, y = _rand(rng, A), _rand(rng, A)
            assert (x * y).conj() == y.conj() * x.conj()
            assert x.conj().conj() == x
            assert x.trd() == (x + x.conj()).coords[0] * 1
            nrd = x.nrd()
            assert (x * x.conj()).coords[0] == nrd
            assert x.nrd() * y.nrd() == (x * y).nrd()


def test_pure_squares():
    rng = random.Random(13)
    for A in (H, M2):
        for _ in range(30):
            z = draw_pure(random.Random(rng.randint(0, 10 ** 6)), A, 10)
            assert z.is_pure()
            sq = z * z
            assert sq == A.one().scale(-z.nrd())


def test_norm_forms():
    assert witt_equal(norm_form(H), qf([1, 1, 1, 1]))
    assert witt_equal(norm_form(QuatAlgebra(2, 7)), qf([1, -2, -7, 14]))


def test_is_split():
    assert not is_split(H)
    assert is_split(M2)
    assert is_split(QuatAlgebra(2, 7))
    assert is_split(QuatAlgebra(5, -1))
    assert not is_split(QuatAlgebra(-1, -7))


def _pure_norm(A, c):
    _, ea, eb, eab = A.table
    c1, c2, c3 = c
    return -ea * c1 * c1 - eb * c2 * c2 + eab * c3 * c3


def test_pure_norm_zeros_equal_a_box_scan():
    for a, b in ((1, 1), (2, 7), (5, -1), (1, -1), (-1, -7),
                 (Fraction(1, 4), Fraction(-5, 7)), (Fraction(-9, 2), 8)):
        A = QuatAlgebra(a, b)
        for h, shell in enumerate(itertools.islice(pure_norm_zeros(A), 9),
                                  start=1):
            box = itertools.product(range(-h, h + 1), repeat=3)
            assert sorted(shell) == [c for c in box if max(map(abs, c)) == h
                                     and _pure_norm(A, c) == 0]


def test_pure_norm_zeros_stop_at_the_height_bound():
    shells = []
    with pytest.raises(SearchBoundExceeded):
        for shell in pure_norm_zeros(H):
            shells.append(shell)
    assert shells == [[]] * ZERO_HEIGHT_BOUND


def _height_shell(h):
    """The integer triples of height exactly h in lexicographic order, the
    order of the two reference scans below."""
    for c in itertools.product(range(-h, h + 1), repeat=3):
        if h in c or -h in c:
            yield c


def _reference_nilpotent(A):
    for h in range(1, 41):
        for c in _height_shell(h):
            if _pure_norm(A, c) == 0:
                return A.pure(*c)
    return None


def _reference_conic_point(A):
    for h in range(1, 61):
        for c3, c1, c2 in _height_shell(h):
            if c3 >= 1 and _pure_norm(A, (c1, c2, c3)) == 0:
                return (Fraction(c1, c3), Fraction(c2, c3))
    return None


def test_zeros_equal_the_height_shell_reference():
    """The nilpotent and the conic point are those of the lexicographic
    height-shell scans to heights 40 and 60, over split algebras with
    a, b = +-n/d, n <= 12, d <= 3 (so both scans end after a few shells)
    and over algebras where -ab is a square (zeros with c3 = 0)."""
    rng = random.Random(1)
    algebras = {QuatAlgebra(1, -1), QuatAlgebra(2, -2), QuatAlgebra(-3, 3),
                QuatAlgebra(Fraction(-9, 2), 8)}
    while len(algebras) < 36:
        A = QuatAlgebra(*(Fraction(rng.choice((1, -1)) * rng.randint(1, 12),
                                   rng.randint(1, 3)) for _ in range(2)))
        if is_split(A):
            algebras.add(A)
    assert sum(A.a.denominator * A.b.denominator > 1 for A in algebras) >= 10
    for A in algebras:
        z0 = _reference_nilpotent(A)
        if z0 is not None:
            assert find_nilpotent(A) == z0
        point = _reference_conic_point(A)
        if point is not None:
            assert conic_parametrize(A).point == point


def test_find_nilpotent():
    expected = {(1, 1): (0, -1, 0, -1), (2, 7): (0, -7, -6, -5),
                (5, -1): (0, -2, -5, -1)}
    for (a, b), coords in expected.items():
        z0 = find_nilpotent(QuatAlgebra(a, b))
        assert z0.coords == coords
        assert (z0 * z0).is_zero()
    with pytest.raises(NotSplit):
        find_nilpotent(H)


def test_find_nilpotent_cached_per_algebra():
    z0 = find_nilpotent(QuatAlgebra(2, 7))
    assert find_nilpotent(QuatAlgebra(Fraction(2), Fraction(7))) is z0


def test_generic_basis_guard():
    # a = -1, b = 1 has -ab = 1 a square: i + ij is not invertible
    A = QuatAlgebra(-1, 1)
    z = A.i() + A.ij()
    assert z.is_pure() and not z.is_invertible()
    from quatwitt.hermitian import AntiHermForm

    with pytest.raises(NotPureInvertible):
        AntiHermForm((z,), A)


def test_find_nilpotent_refuses_a_point_off_the_cone(monkeypatch):
    """Every shell of pure_norm_zeros holds zeros, so no algebra reaches
    the squaring check; a zero scan that hands back (1, 0, 0) stands in
    for a broken one, and i, with i^2 = 1 over (1, 1), is refused.  The
    cached function is bypassed, so its cache keeps only true zeros."""
    monkeypatch.setattr(quaternions, "pure_norm_zeros",
                        lambda A: iter([[(1, 0, 0)]]))
    with pytest.raises(NotNilpotent, match="does not square to 0"):
        find_nilpotent.__wrapped__(M2)


def test_norm_class_refuses_what_square_class_refuses():
    """Nrd(1000008 i + 1000033 j + ij) over (-1, -1) is 2 * 1000041000577,
    a cofactor past (10^6 + 1)^2 that is not a square: the class read
    from the integer numerator is refused as square_class(z.nrd()) is."""
    z = H.pure(1000008, 1000033, 1)
    for read in (nrd_class, lambda x: square_class(x.nrd())):
        with pytest.raises(FactorizationLimitExceeded,
                           match="cofactor 1000041000577 not certified"):
            read(z)


@pytest.mark.parametrize("height", [0, -1])
def test_draw_pure_refuses_a_height_below_one(height):
    """At height 0 every draw is 0 and none would return; at -1 `random`
    would refuse the range with a bare ValueError."""
    with pytest.raises(SchemaViolation, match="height: must be at least 1"):
        draw_pure(DrawLimit(), H, height)
    assert draw_pure(DrawLimit(), H, 1).is_pure()
