"""Anti-hermitian forms: diagonalization, Morita transfer, hyperbolicity."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from quatwitt import hermitian
from quatwitt.errors import (
    AlgebraMismatch,
    DegenerateForm,
    FactorizationLimitExceeded,
    NotDivision,
    NotSplit,
    SchemaViolation,
    VerificationFailed,
)
from quatwitt.hermitian import (
    MAX_SEARCH_BOUND,
    AntiHermForm,
    herm_diag,
    herm_screen,
    herm_verdict,
    hyperbolicity_certificate,
    morita_gram,
    morita_transfer,
)
from quatwitt.mixed import MixedClass, mixed_equal
from quatwitt.quadforms import (
    diagonalize,
    hyperbolic,
    qf,
    witt_equal,
    witt_zero,
)
from quatwitt.quaternions import QuatAlgebra, Quaternion, find_nilpotent

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
    # the rank is even and the discriminant, the product of the reduced
    # norms' square classes, is Nrd(i) Nrd(j) = 1: no screen decides
    assert herm_screen(h) is None


def test_perp_with_the_empty_form_is_the_other_form():
    h = herm_diag([H.i(), H.j()], H)
    empty = herm_diag([], H)
    assert h.perp(empty) is h
    assert empty.perp(h) is h
    assert empty.perp(empty) is empty
    # the algebra is checked before the empty side is passed over
    for left, right in ((h, herm_diag([], M2)), (herm_diag([], M2), h),
                        (empty, herm_diag([], M2))):
        with pytest.raises(AlgebraMismatch):
            left.perp(right)


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


def test_morita_transfer_generic():
    # reference: each slot is qf([-t, t z^2]) with t = Trd(z z0), factored
    # whole, or <1, -1> when t = 0; the transfer builds the same entries
    # from the square classes of t and z^2
    rng = random.Random(0)
    for a, b in [(1, 1), (2, 7), (5, -1), (Fraction(1, 4), Fraction(-5, 7))]:
        A = QuatAlgebra(a, b)
        z0 = find_nilpotent(A)
        for k in range(20):
            diag = tuple(_rand_pure(rng, A).scale(Fraction(1, 1 + k % 3))
                         for _ in range(1 + k % 3))
            expected = []
            for z in diag:
                t = (z * z0).trd()
                expected += [1, -1] if t == 0 else [-t, t * (-z.nrd())]
            assert morita_transfer(AntiHermForm(diag, A), z0) == qf(expected)


def test_morita_requires_split():
    with pytest.raises(NotSplit):
        morita_transfer(herm_diag([H.i()], H), H.i())


def test_hyperbolicity_h_perp_minus_h():
    """<z, -z> is hyperbolic; the certificate finds it over H and refuses
    M2(Q), where Morita transfer decides it."""
    rng = random.Random(21)
    for _ in range(6):
        z = _rand_pure(rng, H, 4)
        cert = hyperbolicity_certificate(AntiHermForm((z, -z), H), bound=4)
        assert cert.status == "hyperbolic"
        assert cert.witness is not None
    for _ in range(6):
        z = _rand_pure(rng, M2, 4)
        with pytest.raises(NotDivision):
            hyperbolicity_certificate(AntiHermForm((z, -z), M2), bound=4)


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


def _spy_orthogonalize(monkeypatch):
    calls = []
    orthogonalize = hermitian._orthogonalize

    def spy(*args):
        calls.append(len(args[1]))
        return orthogonalize(*args)

    monkeypatch.setattr(hermitian, "_orthogonalize", spy)
    return calls


def test_certificate_from_hash_search(monkeypatch):
    """The n_Q <z> cases above find their first isotropic vector in the
    hash search, the path whose sums must match exactly; its 3-slot hits
    go through the general plane split and Gram-Schmidt."""
    found = []
    search = hermitian._isotropic_hash_vector

    def spy(*args, **kwargs):
        vec = search(*args, **kwargs)
        found.append(vec is not None)
        return vec

    monkeypatch.setattr(hermitian, "_isotropic_hash_vector", spy)
    split = _spy_orthogonalize(monkeypatch)
    for A, entries, status, _ in PINNED[6:]:
        found.clear()
        split.clear()
        hyperbolicity_certificate(AntiHermForm(entries, A), bound=4)
        assert found[0], entries
        assert split[:1] == [4], entries


def test_certificate_refuses_a_split_that_loses_the_wrong_rank(
        monkeypatch):
    """Splitting a hyperbolic plane off a nondegenerate form leaves rank
    m - 2, so no form reaches the guard; a Gram-Schmidt that drops one
    more vector stands in for broken arithmetic.  The n_Q <z> cases split
    their first plane by the general split, which checks the rank it gets
    back."""
    orthogonalize = hermitian._orthogonalize

    def lossy(*args):
        basis, values = orthogonalize(*args)
        return basis[:-1], values[:-1]

    monkeypatch.setattr(hermitian, "_orthogonalize", lossy)
    for A, entries, _, _ in PINNED[6:]:
        with pytest.raises(DegenerateForm, match="wrong rank"):
            hyperbolicity_certificate(AntiHermForm(entries, A), bound=4)


def test_pair_search_draws_the_direction_table_to_its_first_hit(
        monkeypatch):
    """<z, -z> at height 1: gamma(p) (-z) p = -gamma(p) z p, so the first
    q of row 1 meets its opposite in the first value of row 0.  The search
    draws those two values alone and returns e_0 p + e_1 p, for p the
    first of the box; building the table of row 0 whole would draw all 40
    values of the height-1 box first."""
    drawn = []
    row = hermitian._sandwich_row

    def spy(z, box, k):
        for item in row(z, box, k):
            drawn.append(z)
            yield item

    monkeypatch.setattr(hermitian, "_sandwich_row", spy)
    box = hermitian._normalized_box(1)
    assert len(box) == 40
    for A in (H, SEVEN, SEVENTHS):
        for z in (A.i(), _pure(A, 1, "-3/2", "1/3")):
            drawn.clear()
            vec = hermitian._isotropic_pair_vector(herm_diag([z, -z], A), 1)
            assert vec == [Quaternion(box[0], 1, A)] * 2
            assert len(drawn) <= 2


def test_two_slot_split_skips_gram_schmidt(monkeypatch):
    """Pair-search hits have two nonzero slots of the orthogonal basis:
    the certificates of <z, -z> and <z1, z2, -z2, -z1> drop those slots
    and never re-run Gram-Schmidt."""
    split = _spy_orthogonalize(monkeypatch)
    for A, entries, status, witness in PINNED[:6]:
        cert = hyperbolicity_certificate(AntiHermForm(entries, A), bound=4)
        assert cert.witness == tuple(
            tuple(_q(A, *c) for c in v) for v in witness)
    assert split == []


def test_pair_search_builds_rows_of_square_ratio_pairs_only(monkeypatch):
    """<i, j + ij, i + j + ij, -j> over (-1, -1) has reduced norms 1, 2, 3,
    1: only slots 0 and 3 have a square norm ratio.  The certificate
    computes their sandwich values alone, splits <i, -j> off and stops at
    the remainder <j + ij, i + j + ij>, whose norm ratio 3/2 rules it
    out."""
    rows = []
    row = hermitian._sandwich_row

    def spy(z, box, k):
        rows.append(z)
        return row(z, box, k)

    monkeypatch.setattr(hermitian, "_sandwich_row", spy)
    h = herm_diag([H.i(), H.j() + H.ij(), H.i() + H.j() + H.ij(), -H.j()],
                  H)
    cert = hyperbolicity_certificate(h, bound=1)
    assert cert.status == "anisotropic-at-bound"
    assert rows == [(0, 1, 0, 0), (0, 0, -1, 0)]


def test_witness_verification_needs_independent_vectors():
    """(v, v j) with v = e_1 + e_2 is totally isotropic for <i, -i, j, -j>
    over (-1, -1) but spans one dimension, not two: the final check of
    the certificate refuses it (explicitly, also under python -O)."""
    h = herm_diag([H.i(), -H.i(), H.j(), -H.j()], H)
    zero = H.element(0, 0, 0, 0)

    def pair(x, y):
        acc = zero
        for xk, z, yk in zip(x, h.diag, y):
            acc = acc + xk.conj() * z * yk
        return acc

    v = (H.one(), H.one(), zero, zero)
    w = (zero, zero, H.one(), H.one())
    hermitian._verify_witness(pair, [v, w])
    with pytest.raises(VerificationFailed, match="dependent"):
        hermitian._verify_witness(pair, [v, tuple(c * H.j() for c in v)])


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


def _reference_hash_vector(h, bound, single_bound):
    """The 3- and 4-slot hash search over the whole lexicographic box
    [-bound, bound]^4, keeping the first (p, q) per sum and the first hit,
    as `hermitian._isotropic_hash_vector` does on its half box."""
    def box(b):
        return tuple(itertools.product(range(-b, b + 1), repeat=4))

    tables = hermitian._sandwich_tables(h, box(bound))
    singles = hermitian._sandwich_tables(h, box(single_bound))
    r = h.rank
    dicts = {}
    for s, t in itertools.combinations(range(r), 2):
        d = dicts[(s, t)] = {}
        for p, (a0, a1, a2, a3) in tables[s]:
            for q, (b0, b1, b2, b3) in tables[t]:
                d.setdefault((a0 + b0, a1 + b1, a2 + b2, a3 + b3), (p, q))

    def build(assign):
        vec = [(0, 0, 0, 0)] * r
        for idx, q in assign:
            vec[idx] = q
        if any(any(q) for q in vec):
            return [Quaternion(q, 1, h.algebra) for q in vec]

    for (s, t), d in dicts.items():
        for u in (u for u in range(r) if u not in (s, t)):
            for w, a in singles[u]:
                hit = d.get(tuple(-x for x in a))
                vec = hit and build([(s, hit[0]), (t, hit[1]), (u, w)])
                if vec:
                    return vec
    pairs = sorted(dicts)
    for i, (s, t) in enumerate(pairs):
        for u, v in pairs[i + 1:]:
            if len({s, t, u, v}) < 4:
                continue
            for key, (w1, w2) in dicts[(u, v)].items():
                hit = dicts[(s, t)].get(tuple(-x for x in key))
                vec = hit and build([(s, hit[0]), (t, hit[1]), (u, w1),
                                     (v, w2)])
                if vec:
                    return vec
    return None


def _seeded_hash_forms(rng, rank, count):
    """Random forms of the given rank over the division algebras, half of
    them n_Q-like <z, c z, ...> so that some searches hit.  Every sixth is
    over BIG_DEN, and every fourth has the coordinates of its entries
    shifted by BIG_PRIME: sandwich values far past 10^12, whose sums the
    packed keys of the hash search must still tell apart."""
    algebras = [H, HALF, SEVENTHS, SEVEN, QuatAlgebra(-1, -3), BIG_DEN]
    forms = []
    for n in range(count):
        A = algebras[n % len(algebras)]
        shift = A.pure(*[BIG_PRIME if n % 4 == 3 else 0] * 3)

        def draw():
            return _rand_pure(rng, A, 3) + shift

        if n % 2:
            z = draw()
            entries = [z.scale(Fraction(rng.choice([-4, -2, -1, 1, 3]),
                                        rng.randint(1, 3)))
                       for _ in range(rank - 1)] + [draw()]
        else:
            entries = [draw() for _ in range(rank)]
        forms.append(AntiHermForm(tuple(entries), A))
    return forms


@pytest.mark.parametrize("rank, bound, single_bound, count", [
    (3, 1, 1, 12), (3, 1, 2, 12), (3, 1, 4, 12), (3, 2, 2, 3),
    (4, 1, 1, 12), (4, 1, 2, 12), (4, 1, 4, 12), (4, 2, 2, 1),
])
def test_hash_search_on_the_half_box_matches_the_whole_box(
        rank, bound, single_bound, count):
    """Searching the tuples up to 0 returns what the search over the whole
    box returns, the same vector or None on both; each case has a hit."""
    rng = random.Random(30 + 10 * rank + bound + single_bound)
    found = 0
    for h in _seeded_hash_forms(rng, rank, count):
        want = _reference_hash_vector(h, bound, single_bound)
        got = hermitian._isotropic_hash_vector(h, bound, single_bound)
        assert got == want, h
        found += want is not None
    assert found


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


SEVEN = QuatAlgebra(-1, -7)


def test_certificate_needs_the_full_bound_pair_search():
    """Over (-1, -7), <z, (7/10) z> with z = -i + 2j - ij has no isotropic
    vector of height <= 4 but one of height 8: the full-bound pair search
    is the only one that finds it."""
    z = _pure(SEVEN, -1, 2, -1)
    h = AntiHermForm((z, z.scale(Fraction(7, 10))), SEVEN)
    assert hyperbolicity_certificate(h, bound=4).status == \
        "anisotropic-at-bound"
    cert = hyperbolicity_certificate(h, bound=8)
    assert cert.status == "hyperbolic"
    assert cert.witness == ((_q(SEVEN, 1, -4, 7, 0),
                             _q(SEVEN, 0, 0, 0, "60/7")),)


def test_box_cache_keeps_one_certificate_of_boxes():
    """A certificate at bound b asks for heights 1, 2, 4 and b; asked in
    that order for b = 1 ... 6, the cache keeps at most four boxes, and
    heights 1, 2 and 4 still hit."""
    box = hermitian._normalized_box
    box.cache_clear()
    for b in range(1, 7):
        for height in sorted({1, 2, 4, b}):
            if height <= b:
                box(height)
    assert box.cache_info().currsize <= 4
    before = box.cache_info()
    for height in (1, 2, 4):
        box(height)
    after = box.cache_info()
    assert (after.hits - before.hits, after.misses) == (3, before.misses)


def _traced_peak(h, bound=4):
    """The pair search's result on h, and its tracemalloc peak.

    tracemalloc counts only the objects not served from the interpreter's
    free lists of tuples, lists and dicts, and CPython empties those lists
    at every full collection.  One that came, in a long run, between the
    warm-up and a measurement made the first peak 1.47x the second; so
    each measurement starts from a full collection, and none runs inside
    it."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        found = hermitian._isotropic_pair_vector(h, bound)
        return found, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_pair_search_keeps_one_direction_table():
    """The pair search of <3z, z, (7/10) z> reads the table of slot 0,
    then that of slot 1; holding one at a time, its peak stays near that of
    <z, (7/10) z>, which builds a single table (both tables at once measure
    2.3x).  Both shapes run once before either is measured, so that what
    they leave in the library's caches counts in neither peak, whichever
    tests ran before."""
    z = _pure(SEVEN, -1, 2, -1)
    seventh = z.scale(Fraction(7, 10))
    shapes = [AntiHermForm(entries, SEVEN)
              for entries in ((z.scale(3), z, seventh), (z, seventh))]
    for h in shapes:
        assert hermitian._isotropic_pair_vector(h, 4) is None
    (found3, three), (found2, two) = (_traced_peak(h) for h in shapes)
    assert found3 is None and found2 is None
    assert three <= 1.25 * two


def test_pair_search_draws_no_more_of_the_table_than_its_hit():
    """<z, -z> hits at the first value of each row, so at bound 4 its
    search holds a few values, where <z, (7/10) z>, which has no hit of
    height <= 4, draws the whole table of slot 0 (about 790 KB)."""
    z = _pure(SEVEN, -1, 2, -1)
    hit = AntiHermForm((z, -z), SEVEN)
    miss = AntiHermForm((z, z.scale(Fraction(7, 10))), SEVEN)
    for h in (hit, miss):
        hermitian._isotropic_pair_vector(h, 4)
    (found, lazy), (missed, whole) = (_traced_peak(h) for h in (hit, miss))
    assert found is not None and missed is None
    assert 10 * lazy < whole


def test_certificate_refuses_a_split_algebra():
    """Over (1, 1), h = <-3i - 3j + 3ij, i - 3j - ij> is hyperbolic by its
    Morita transfer; the certificate, whose plane split needs invertible
    pairings, refuses every split algebra, whatever the rank, and points
    to the exact decision."""
    h = AntiHermForm((_pure(M2, -3, -3, 3), _pure(M2, 1, -3, -1)), M2)
    for form in (h, herm_diag([M2.i()], M2),
                 herm_diag([QuatAlgebra(2, 7).i()] * 4, QuatAlgebra(2, 7))):
        for bound in (1, 8):
            with pytest.raises(NotDivision, match="mixed_equal"):
                hyperbolicity_certificate(form, bound=bound)
    assert witt_equal(morita_transfer(h, find_nilpotent(M2)), qf([]))
    zero = MixedClass(witt_zero(), AntiHermForm((), M2))
    assert mixed_equal(MixedClass(witt_zero(), h), zero) == "equal"


def test_pair_tests_refuse_a_split_algebra():
    """Over (1, 1), z = i + j + ij and w = i have Nrd(z) = Nrd(w) = -1, so
    the rank-1 test's r = z - w = j + ij is a zero divisor.  The public
    pair tests refuse every split algebra, as the certificate does, and
    point to the exact decisions; `herm_screen` decides such a form."""
    z, w = M2.pure(1, 1, 1), M2.i()
    h = herm_diag([z, w], M2)
    for test in (lambda: hermitian.hyperbolic_pair(z, w),
                 lambda: hermitian.cancel_hyperbolic_pairs(h)):
        with pytest.raises(NotDivision,
                           match="herm_verdict or morita_transfer"):
            test()
    assert herm_verdict(h) == herm_screen(h) == "equal"


def test_the_split_check_runs_once_per_public_call(monkeypatch):
    """`herm_verdict` asks whether the algebra splits in its screen only,
    and a certificate once, however many pairs its search tests."""
    calls = []

    def spy(A):
        calls.append(A)
        return False

    monkeypatch.setattr(hermitian, "is_split", spy)
    assert herm_verdict(herm_diag([H.i(), H.j()], H)) == "equal"
    assert len(calls) == 1
    calls.clear()
    pairs = []
    monkeypatch.setattr(hermitian, "_hyperbolic_pair",
                        lambda x, y: pairs.append(x) or False)
    h = herm_diag([H.i(), H.j(), H.ij(), H.pure(1, 1, 1)], H)
    hyperbolicity_certificate(h, bound=2)
    assert len(calls) == 1 and pairs


def test_certificate_refuses_a_bound_below_one():
    """Bound 0 would still run the height-1 hash search; it is refused as
    RunConfig and the CLI refuse it."""
    h = herm_diag([H.i(), H.j(), H.ij(), H.i()], H)
    for bound in (0, -1):
        with pytest.raises(SchemaViolation, match="at least 1"):
            hyperbolicity_certificate(h, bound=bound)


def test_certificate_pair_search_at_bound_three():
    """Over (-1, -7), <2i, 156i - 52ij> has an isotropic pair vector of
    height 3 but none of height 2, so bound 3 needs the pair search at the
    full bound; bound 4 finds the same vector."""
    h = AntiHermForm((_pure(SEVEN, 2, 0, 0), _pure(SEVEN, 156, 0, -52)),
                     SEVEN)
    witness = ((_q(SEVEN, 2, -3, -2, 3), _q(SEVEN, 0, 1, 0, 0)),)
    assert hyperbolicity_certificate(h, bound=2).status == \
        "anisotropic-at-bound"
    for bound in (3, 4):
        cert = hyperbolicity_certificate(h, bound=bound)
        assert cert == hermitian.HyperbolicityResult("hyperbolic", witness)


def test_certificate_at_bound_two_runs_the_height_two_hash_search():
    """Over (-1, -7), h = <2i - 2j, -j, 3j - 3ij, -3i + 2j + 3ij> has a
    certificate at bound 2, from the height-2 hash search that rank <= 4
    runs from bound 2 on, and none at bound 1."""
    h = AntiHermForm((_pure(SEVEN, 2, -2, 0), _pure(SEVEN, 0, -1, 0),
                      _pure(SEVEN, 0, 3, -3), _pure(SEVEN, -3, 2, 3)), SEVEN)
    assert hyperbolicity_certificate(h, bound=1).status == \
        "anisotropic-at-bound"
    cert = hyperbolicity_certificate(h, bound=2)
    assert cert.status == "hyperbolic"
    assert len(cert.witness) == 2
    zero = _q(SEVEN, 0, 0, 0, 0)

    def pair(x, y):
        acc = zero
        for xk, z, yk in zip(x, h.diag, y):
            acc = acc + xk.conj() * z * yk
        return acc

    hermitian._verify_witness(pair, list(cert.witness))


def test_certificate_stops_at_a_non_isometric_rank2_form(monkeypatch):
    """<i, j + ij> over (-1, -1): the norm ratio Nrd(j + ij) / Nrd(i) = 2
    is not a square, so <i> and <-(j + ij)> are not isometric and the
    search ends after the bound-1 pair search, even at bound 8."""
    bounds = []
    search = hermitian._isotropic_pair_vector

    def spy(h, bound):
        bounds.append(bound)
        return search(h, bound)

    monkeypatch.setattr(hermitian, "_isotropic_pair_vector", spy)
    h = herm_diag([H.i(), H.j() + H.ij()], H)
    cert = hyperbolicity_certificate(h, bound=8)
    assert cert == hermitian.HyperbolicityResult("anisotropic-at-bound")
    assert bounds == [1]


def _spy_pair_search(monkeypatch):
    calls = []
    search = hermitian._isotropic_pair_vector

    def spy(h, bound):
        calls.append((h.rank, bound))
        return search(h, bound)

    monkeypatch.setattr(hermitian, "_isotropic_pair_vector", spy)
    return calls


@pytest.mark.parametrize("coords, verdict", [
    # <-j + ij, -i - 2j - 2ij, 3j - ij, -i - 2ij>
    (((0, -1, 1), (-1, -2, -2), (0, 3, -1), (-1, 0, -2)), "unknown"),
    # <-i + 2j - ij, 2i - j - 2ij, -i + j + ij, 3i - 3j>
    (((-1, 2, -1), (2, -1, -2), (-1, 1, 1), (3, -3, 0)), "equal"),
])
def test_rank_one_test_gates_the_pair_searches_past_height_one(
        monkeypatch, coords, verdict):
    """Two leftovers of rank 4 over (-1, -1), from random pure entries of
    height <= 3 that pairwise cancellation leaves whole: the rank-1 test
    pairs no two slots, so the rank-4 form gets only the height-1 pair
    search before the hash searches decide, at bound 8."""
    calls = _spy_pair_search(monkeypatch)
    h = herm_diag([H.pure(*c) for c in coords], H)
    assert herm_verdict(h, 8) == verdict
    assert [bound for rank, bound in calls if rank == 4] == [1]


def test_a_refused_rank_one_test_leaves_every_pair_search(monkeypatch):
    """The rank-1 test factors Nrd(z1 + z2 / c'), which may be refused.
    Every pair then counts as possible, so the certificate is the ungated
    search (the rank-1 test always passing) and raises nothing: on the
    pinned forms, on <i, j + ij> at bound 8, which the test rules out, and
    on <2i, 156i - 52ij> over (-1, -7), which needs the height-4 rung."""
    def refuse(x, y):
        raise FactorizationLimitExceeded("cofactor not certified")

    cases = [(AntiHermForm(entries, A), 4) for A, entries, _, _ in PINNED]
    cases.append((herm_diag([H.i(), H.j() + H.ij()], H), 8))
    cases.append((herm_diag([_pure(SEVEN, 2, 0, 0), _pure(SEVEN, 156, 0, -52)],
                            SEVEN), 4))
    for h, bound in cases:
        monkeypatch.setattr(hermitian, "_hyperbolic_pair", lambda x, y: True)
        ungated = hyperbolicity_certificate(h, bound)
        monkeypatch.setattr(hermitian, "_hyperbolic_pair", refuse)
        assert hyperbolicity_certificate(h, bound) == ungated, h


def test_certificate_refuses_a_bound_above_the_maximum(monkeypatch):
    """The full-bound pair search keeps about (2b + 1)^4 / 2 quaternions,
    so a bound past MAX_SEARCH_BOUND is refused before any search, as
    RunConfig and the CLI refuse it.  The maximum itself is accepted:
    <i, j + ij>, whose slots the rank-1 test does not pair, ends there
    after the height-1 pair search."""
    calls = _spy_pair_search(monkeypatch)
    h = herm_diag([H.i(), H.j() + H.ij()], H)
    with pytest.raises(SchemaViolation,
                       match=f"at most {MAX_SEARCH_BOUND}: "):
        hyperbolicity_certificate(h, bound=MAX_SEARCH_BOUND + 1)
    assert calls == []
    cert = hyperbolicity_certificate(h, bound=MAX_SEARCH_BOUND)
    assert cert.status == "anisotropic-at-bound"
    assert calls == [(2, 1)]


def test_morita_gram_degenerate_basis():
    """With z0 = -i - ij over (1, 1), Trd(j z0) = Trd(i + ij) = 0, so the
    basis (z0, j z0) degenerates; Trd(i z0) = Trd(-1 - j) = -2 does not."""
    z0 = find_nilpotent(M2)
    assert z0 == _pure(M2, -1, 0, -1)
    assert morita_gram(M2.j(), z0) is None
    assert morita_gram(M2.i(), z0) is not None
