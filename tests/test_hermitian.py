"""Anti-hermitian forms: diagonalization, Morita transfer, hyperbolicity."""

import random
from fractions import Fraction

import pytest

from quatwitt import hermitian
from quatwitt.errors import NotSplit
from quatwitt.hermitian import (
    AntiHermForm,
    herm_diag,
    herm_invariants,
    hyperbolicity_certificate,
    morita_gram,
    morita_transfer,
    morita_transfer_entries,
    trd_coefficients,
)
from quatwitt.quadforms import diagonalize, hyperbolic, qf, witt_equal
from quatwitt.quaternions import QuatAlgebra, find_nilpotent

H = QuatAlgebra(-1, -1)
M2 = QuatAlgebra(1, 1)


def _rand_pure(rng, A, h=6):
    while True:
        c = [rng.randint(-h, h) for _ in range(3)]
        if not any(c):
            continue
        z = A.pure(*(Fraction(v) for v in c))
        if z.is_invertible():
            return z


def test_herm_diag_basics():
    h = herm_diag([H.i(), H.j()], H)
    assert h.rank == 2
    assert h.reduced_dim == 4
    inv = herm_invariants(h)
    assert inv.reduced_dim == 4
    # disc is the product of the reduced norms: Nrd(i) Nrd(j) = 1
    assert inv.disc.is_one()


def test_orthogonalize_mixed_pivot():
    """The pairing of G = [[0, 1], [-1, 0]] gives both basis vectors value
    zero, so the pivot must come from mixing e1 + e2 q (_mixed_pivot), the
    fallback hyperbolicity_certificate keeps for projected spans."""
    for A in (H, M2):
        one, zero = A.one(), A.element(0, 0, 0, 0)

        def pair(x, y):
            return x[0].conj() * y[1] - x[1].conj() * y[0]

        basis, values = hermitian._orthogonalize(
            pair, [[one, zero], [zero, one]], A)
        assert len(values) == 2
        assert all(d.is_invertible() for d in values)
        assert basis[0][0] == one and not basis[0][1].is_zero()
        assert pair(basis[0], basis[1]).is_zero()
        assert all(pair(v, v) == d for v, d in zip(basis, values))


def test_morita_transfer_formula():
    rng = random.Random(8)
    for a, b in [(1, 1), (2, 7), (5, -1)]:
        A = QuatAlgebra(a, b)
        z0 = find_nilpotent(A)
        for _ in range(40):
            z = _rand_pure(rng, A)
            q = morita_transfer(AntiHermForm((z,), A), z0)
            t = (z * z0).trd()
            if t == 0:
                assert witt_equal(q, hyperbolic(1))
            else:
                assert witt_equal(q, qf([-t, t * (-z.nrd())]))
                gram = morita_gram(z, z0)
                assert witt_equal(diagonalize(gram), q)


def test_morita_transfer_entries_generic():
    # the entries need only the pure coordinates of the nilpotent; T is the
    # reduced trace of the product z z0, and trd_coefficients gives its
    # linear form
    A = QuatAlgebra(1, 1)
    z0 = find_nilpotent(A)
    rng = random.Random(0)
    for _ in range(20):
        z = _rand_pure(rng, A)
        entries = morita_transfer_entries(AntiHermForm((z,), A),
                                          z0.coords[1:])
        t = (z * z0).trd()
        assert sum(l * c for l, c in zip(trd_coefficients(z),
                                         z0.coords[1:])) == t
        if t == 0:
            assert entries == [1, -1]
        else:
            assert entries == [-t, t * (-z.nrd())]


def test_morita_requires_split():
    with pytest.raises(NotSplit):
        morita_transfer(herm_diag([H.i()], H), H.i())


def test_hyperbolicity_h_perp_minus_h():
    rng = random.Random(21)
    for A in (H, M2):
        for _ in range(6):
            z = _rand_pure(rng, A, 4)
            h = AntiHermForm((z, z.scale(-1)), A)
            cert = hyperbolicity_certificate(h, bound=4)
            assert cert.status == "hyperbolic"
            assert cert.witness is not None


def test_hyperbolicity_odd_rank():
    h = herm_diag([H.i()], H)
    assert hyperbolicity_certificate(h).status == "anisotropic-at-bound"


def test_hyperbolicity_curated_nq_multiples():
    """n_Q <z> is hyperbolic for every pure invertible z (division case)."""
    for z in (H.i(), H.i() + H.j(), H.i() + H.j() + H.ij()):
        h = AntiHermForm(tuple(z.scale(c) for c in (1, 1, 1, 1)), H)
        cert = hyperbolicity_certificate(h, bound=8)
        assert cert.status == "hyperbolic", z


def _q(A, *coords):
    return A.element(*map(Fraction, coords))


def _pure(A, *coords):
    return _q(A, 0, *coords)


def _nq_times(A, z):
    """n_Q <z> = <z, -a z, -b z, ab z>, hyperbolic by construction."""
    return (z, z.scale(-A.a), z.scale(-A.b), z.scale(A.a * A.b))


HALF = QuatAlgebra(Fraction(-1, 2), -3)
SEVENTHS = QuatAlgebra(Fraction(-2, 3), Fraction(-5, 7))
Z1, Z2 = _pure(HALF, "1/2", 1, "-2/3"), _pure(HALF, 1, "-3/2", "1/3")
W1, W2 = _pure(SEVENTHS, 1, "-3/2", "1/3"), _pure(SEVENTHS, "2/5", 0, 1)

# (algebra, entries, status, witness) at bound 4, recorded before the search
# moved to integer sandwich tables; the last three go through the 3-slot
# hash search (see test_certificate_from_hash_search)
PINNED = [
    (HALF, (Z1, -Z1), "hyperbolic", [[(0, 0, 0, 1), (0, 0, 0, 1)]]),
    (HALF, (Z1, Z1.scale(Fraction(-4, 9))), "hyperbolic",
     [[(0, 0, 0, 1), (0, 0, 0, "3/2")]]),
    (HALF, (Z1, Z2, -Z2, -Z1), "hyperbolic",
     [[(0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)],
      [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0)]]),
    (SEVENTHS, (W1, -W1), "hyperbolic", [[(0, 0, 0, 1), (0, 0, 0, 1)]]),
    (SEVENTHS, (W1, W1.scale(Fraction(-9, 4))), "hyperbolic",
     [[(0, 0, 0, 1), (0, 0, 0, "2/3")]]),
    (SEVENTHS, (W1, W2, -W2, -W1), "hyperbolic",
     [[(0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)],
      [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0)]]),
    (HALF, _nq_times(HALF, _pure(HALF, 2, "2/3", 1)), "hyperbolic",
     [[(0, -1, 0, 0), (-1, 0, 0, 1), (0, 0, 0, 0), (0, -1, 0, 0)],
      [(0, -3, -1, 0), (0, 0, 0, "7/2"), (0, 0, 0, "1/2"),
       (0, "-3/2", "-1/2", 0)]]),
    (SEVENTHS, _nq_times(SEVENTHS, _pure(SEVENTHS, 1, -1, -1)), "hyperbolic",
     [[(-1, 1, 1, -1), (-1, 1, 1, -1), (0, 0, 0, 0), (-2, -3, 0, 0)],
      [("-4/3", "-4/3", 0, 0), ("1/3", "1/3", 0, 0), (0, 0, 0, "7/3"),
       ("7/9", "-7/6", "-49/45", "7/10")]]),
    (SEVENTHS, _nq_times(SEVENTHS, _pure(SEVENTHS, "1/2", 1, "-2/3")),
     "anisotropic-at-bound", None),
]


def test_certificate_pinned_non_integral():
    for A, entries, status, witness in PINNED:
        cert = hyperbolicity_certificate(AntiHermForm(entries, A), bound=4)
        assert cert.status == status, entries
        if witness is None:
            assert cert.witness is None
        else:
            assert cert.witness == tuple(
                tuple(_q(A, *c) for c in v) for v in witness)


def test_sandwich_tables_scale_true_values():
    """Each integer sandwich value is the coordinate tuple of gamma(p) z p
    over (-2/3, -5/7) times one positive constant common to the whole
    form."""
    h = AntiHermForm((W1, W2), SEVENTHS)
    ratios = set()
    tables = hermitian._sandwich_tables(h, hermitian._height_box(1))
    for z, table in zip(h.diag, tables):
        for p, val in table:
            q = SEVENTHS.element(*p)
            for x, y in zip(val, (q.conj() * z * q).coords):
                assert (x == 0) == (y == 0)
                if y:
                    ratios.add(x / y)
    assert len(ratios) == 1 and ratios.pop() > 0


def test_certificate_from_hash_search(monkeypatch):
    """The n_Q <z> cases above find their first isotropic vector in the
    hash search, the path whose sums must match exactly."""
    found = []
    search = hermitian._isotropic_hash_vector

    def spy(*args, **kwargs):
        vec = search(*args, **kwargs)
        found.append(vec is not None)
        return vec

    monkeypatch.setattr(hermitian, "_isotropic_hash_vector", spy)
    for A, entries, status, _ in PINNED[6:]:
        found.clear()
        hyperbolicity_certificate(AntiHermForm(entries, A), bound=4)
        assert found[0], entries


@pytest.mark.parametrize("single_bound, builds", [(1, 1), (2, 2)])
def test_hash_search_builds_tables_once_per_bound(monkeypatch, single_bound,
                                                  builds):
    calls = []
    build = hermitian._sandwich_tables

    def spy(h, box):
        calls.append(len(box))
        return build(h, box)

    monkeypatch.setattr(hermitian, "_sandwich_tables", spy)
    h = herm_diag([H.i(), H.j(), H.ij()], H)
    hermitian._isotropic_hash_vector(h, 1, single_bound)
    assert len(calls) == builds


BIG_DEN = QuatAlgebra(Fraction(-1, 5000), -1)
BIG_PRIME = 1000003


@pytest.mark.parametrize("A, entries, witness", [
    # contents of order 5000^5 > 10^18, compared without factorizing
    (BIG_DEN, (BIG_DEN.i(), BIG_DEN.i().scale(-4)),
     [[(0, 0, 0, 1), (0, 0, 0, "1/2")]]),
    (BIG_DEN, (BIG_DEN.i(), -BIG_DEN.j(), BIG_DEN.j(), -BIG_DEN.i()),
     [[(0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1)],
      [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0)]]),
    # a content holding the square of a prime above 10^6
    (H, (H.i(), H.i().scale(-BIG_PRIME**2)),
     [[(0, 0, 0, 1), (0, 0, 0, Fraction(1, BIG_PRIME))]]),
    (H, (H.i(), H.j().scale(-BIG_PRIME**2)),
     [[(1, -1, 1, 1), (0, 0, 0, Fraction(2, BIG_PRIME))]]),
], ids=["den-5000", "den-5000-rank4", "prime-square", "prime-square-mixed"])
def test_pair_search_large_contents(A, entries, witness):
    """The pair search compares contents without factorizing them; the
    witnesses were recorded with the earlier trial-division key."""
    cert = hyperbolicity_certificate(AntiHermForm(entries, A), bound=4)
    assert cert.status == "hyperbolic"
    assert cert.witness == tuple(tuple(_q(A, *c) for c in v) for v in witness)
