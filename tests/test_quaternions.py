"""Quaternion algebra arithmetic and the canonical involution."""

import itertools
import random
from fractions import Fraction

import pytest

from quatwitt.errors import NotPureInvertible, NotSplit
from quatwitt.quadforms import qf, witt_equal
from quatwitt.quaternions import (
    QuatAlgebra,
    draw_pure,
    find_nilpotent,
    height_shell,
    is_split,
    norm_form,
)

H = QuatAlgebra(-1, -1)
M2 = QuatAlgebra(1, 1)


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


def test_height_shell():
    assert list(height_shell(0, 3)) == [(0, 0, 0)]
    for n in (1, 2, 3):
        for h in (1, 2):
            box = itertools.product(range(-h, h + 1), repeat=n)
            assert list(height_shell(h, n)) == \
                [c for c in box if max(map(abs, c)) == h]


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
