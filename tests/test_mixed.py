"""The mixed Witt ring: products, equality decision, phi."""

import importlib
import random
from fractions import Fraction

import pytest

from quatwitt import hermitian
from quatwitt.hermitian import AntiHermForm
from quatwitt.errors import AlgebraMismatch, AsymmetryDetected, ZeroSlot
from quatwitt.mixed import (
    closed_form_diag,
    mixed,
    mixed_equal,
    mixed_one,
    mixed_zero,
    odd_product_closed_form,
    phi_z0,
    twisted_trace_form,
)
from quatwitt.quadforms import qf, witt_class, witt_equal, witt_zero
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


def _rand_mixed(rng, A):
    even = witt_class(qf([rng.choice([n for n in range(-9, 10) if n])
                          for _ in range(rng.randint(0, 2))])) \
        if rng.random() < 0.8 else witt_zero()
    odd = tuple(_rand_pure(rng, A, 4) for _ in range(rng.randint(0, 1)))
    return mixed(A, even=even, odd_entries=odd)


def test_twisted_trace_symmetric_and_matches_closed_form():
    rng = random.Random(1)
    for A in (H, M2, QuatAlgebra(2, 7)):
        for _ in range(40):
            z1, z2 = _rand_pure(rng, A), _rand_pure(rng, A)
            q = twisted_trace_form(z1, z2)
            assert witt_class(q) == odd_product_closed_form(z1, z2)


def test_twisted_trace_squarefree_entry_beyond_factor_bound():
    # a diagonal entry 4234584976795185870 > 10^18 is the squarefree
    # product of a reduced numerator and denominator: its Witt class must
    # not factor it again
    A = QuatAlgebra(Fraction(-2, 3), Fraction(-5, 7))
    z1 = A.pure(Fraction(1, 3), 3, 0)
    z2 = A.pure(Fraction(1, 3), 5, Fraction(1, 2))
    q = twisted_trace_form(z1, z2)
    assert max(q.reps()) > 10**18
    assert witt_class(q) == odd_product_closed_form(z1, z2)
    # the negation factors each kernel entry again; trial division does
    # that above 10^18 too
    assert -witt_class(q) == witt_class(q.neg())


def _written_out_mul(a, b, x, y):
    """Product in (a, b | Q) on coordinate 4-tuples, from the monomials
    i^p j^q: (i^p1 j^q1)(i^p2 j^q2) = (-1)^(q1 p2) i^(p1+p2) j^(q1+q2),
    then i^2 = a and j^2 = b."""
    mono = ((0, 0), (1, 0), (0, 1), (1, 1))   # 1, i, j, ij
    out = [Fraction(0)] * 4
    for (p1, q1), xs in zip(mono, x):
        for (p2, q2), yt in zip(mono, y):
            c = xs * yt * (-1) ** (q1 * p2)
            p, q = p1 + p2, q1 + q2
            c *= a ** (p // 2) * b ** (q // 2)
            out[mono.index((p % 2, q % 2))] += c
    return out


def _conj(x):
    return [x[0]] + [-c for c in x[1:]]


def test_twisted_trace_gram_entries(monkeypatch):
    """All 16 entries Trd(gamma(e_s) z1 e_t gamma(z2)) of the Gram matrix
    M / D that twisted_trace_form diagonalizes on integers, against a
    written-out product, with D = e^3 den(z1) den(z2)."""
    mixed_module = importlib.import_module("quatwitt.mixed")
    grams = []
    monkeypatch.setattr(mixed_module, "integer_gram_form",
                        lambda m, den: grams.append((m, den))
                        or witt_zero().anis)
    unit = [[Fraction(int(k == s)) for k in range(4)] for s in range(4)]
    rng = random.Random(4)
    for a, b in ((-1, -1), (1, 1), (2, 7), (Fraction(-2, 3), Fraction(-5, 7))):
        A = QuatAlgebra(a, b)
        a, b = A.a, A.b
        for _ in range(5):
            # coordinates with denominators, so that den(z1) den(z2) != 1
            z1, z2 = (_rand_pure(rng, A).scale(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                for _ in range(2))
            want = []
            for es in unit:
                row = []
                for et in unit:
                    u = _conj(es)
                    for y in (z1.coords, et, _conj(z2.coords)):
                        u = _written_out_mul(a, b, u, y)
                    row.append(2 * u[0])
                want.append(row)
            grams.clear()
            twisted_trace_form(z1, z2)
            [(m, den)] = grams
            assert den == A.table[0] ** 3 * z1.den * z2.den
            assert [[Fraction(x, den) for x in row] for row in m] == want


def test_product_refuses_a_wrong_closed_form(monkeypatch):
    """Every odd*odd term is checked against its closed form, by an
    explicit check that python -O keeps."""
    mixed_module = importlib.import_module("quatwitt.mixed")
    # Trd((i + j + ij) i) = -2 and <<-3, -1>> - n_H = <3, 3> - <1, 1> != 0
    x = mixed(H, odd_entries=(H.i() + H.j() + H.ij(),))
    y = mixed(H, odd_entries=(H.i(),))
    assert not (x * y).even.is_zero()
    monkeypatch.setattr(mixed_module, "closed_form_diag",
                        lambda z1, z2: qf([1, 1, 1, 1]))
    with pytest.raises(AsymmetryDetected, match="closed form"):
        x * y


def test_product_refuses_an_asymmetric_gram(monkeypatch):
    """A multiplication table that breaks the product of quaternions shows
    up as an asymmetric twisted trace Gram matrix."""
    mixed_module = importlib.import_module("quatwitt.mixed")
    mul = mixed_module._mul_coords

    def broken(x, y, k):
        c0, c1, c2, c3 = mul(x, y, k)
        return c0 + 1, c1, c2, c3

    monkeypatch.setattr(mixed_module, "_mul_coords", broken)
    x = mixed(H, odd_entries=(H.i() + H.j(),))
    y = mixed(H, odd_entries=(H.i(),))
    with pytest.raises(AsymmetryDetected, match="Gram entry"):
        x * y


def test_product_with_kernel_candidates_past_factoring_bound():
    """Over (-2/3, -5/7) the kernel of this product has candidates such as
    3*7*13*19*29*53*101*151*193*199*233 > 10^18 built from known primes;
    only their cofactors are factored, so the product returns (its
    closed-form cross-check runs inside __mul__)."""
    A = QuatAlgebra(Fraction(-2, 3), Fraction(-5, 7))
    x = mixed(A, witt_class(qf([-1, 3])), (A.pure(2, -4, -3),))
    y = mixed(A, witt_class(qf([6])),
              (A.pure(-1, -3, 1), A.pure(3, -1, 1)))
    prod = x * y
    raw = x.even.anis.tensor(y.even.anis)
    for zs in x.odd.diag:
        for zt in y.odd.diag:
            raw = raw.perp(twisted_trace_form(zs, zt))
    assert witt_equal(prod.even.anis, raw)
    assert prod.odd.rank == 5


def test_odd_product_vanishes_on_orthogonal_traces():
    # Trd(i j) = 0, so <i><j> = 0
    assert odd_product_closed_form(H.i(), H.j()).is_zero()
    assert witt_class(twisted_trace_form(H.i(), H.j())).is_zero()


def test_closed_form_refuses_a_zero_norm_slot():
    # Nrd(1 + i) = 0 in M2(Q) while Trd((1 + i) 1) = 2
    z, one = M2.element(1, 1, 0, 0), M2.element(1, 0, 0, 0)
    for z1, z2 in ((z, one), (one, z), (z, z)):
        with pytest.raises(ZeroSlot):
            odd_product_closed_form(z1, z2)


def test_ring_axioms_on_samples():
    rng = random.Random(2)
    for A in (H, M2):
        one = mixed_one(A)
        zero = mixed_zero(A)
        for _ in range(15):
            x, y = _rand_mixed(rng, A), _rand_mixed(rng, A)
            assert mixed_equal(x * one, x) == "equal"
            assert mixed_equal(x + zero, x) == "equal"
            assert mixed_equal(x + y, y + x) == "equal"
            assert mixed_equal(x - x, zero) == "equal"
            assert mixed_equal(x * y, y * x) == "equal"


def test_mixed_equal_detects_distinct():
    x = mixed(H, even=witt_class(qf([1])))
    y = mixed(H, even=witt_class(qf([2])))
    assert mixed_equal(x, y) == "distinct"
    z = mixed(H, odd_entries=(H.i(),))
    assert mixed_equal(x, z) == "distinct"   # odd ranks differ mod 2


def test_mixed_equal_odd_scaling():
    # <z> = <c^2 z> for rational c
    z = H.i() + H.j()
    x = mixed(H, odd_entries=(z,))
    y = mixed(H, odd_entries=(z.scale(Fraction(9, 4)),))
    assert mixed_equal(x, y) == "equal"


def test_mixed_equal_certificate_fallback(monkeypatch):
    # over (-1, -1), x = <-ij, z> and y = <-6ij, 6z> with z = i + j + ij:
    # the screens pass, and no two entries of <-ij, z, 6ij, -6z> cancel.
    # An ij entry and a z entry have norm ratio 3, 12 or 108 (or its
    # inverse), not a square.  <6ij> ~ <ij> and <6z> ~ <z> need a p with
    # Nrd(p) = 6 (the algebra is definite) in Q(ij) or Q(z) (r = 2ij or
    # 2z): 6 is not a sum of two squares, and 6 = 3 * 2 is not a norm from
    # Q(sqrt(-3)), where 2 is inert.  The rank-4 leftover goes to the
    # certificate, which finds it hyperbolic
    i, j, ij = H.i(), H.j(), H.ij()
    z = i + j + ij
    x = mixed(H, odd_entries=(-ij, z))
    y = mixed(H, odd_entries=(ij.scale(-6), z.scale(6)))
    # mixed_equal reaches the certificate through hermitian.herm_verdict
    certificate = hermitian.hyperbolicity_certificate
    ranks = []
    monkeypatch.setattr(hermitian, "hyperbolicity_certificate",
                        lambda h, bound: ranks.append(h.rank)
                        or certificate(h, bound))
    assert mixed_equal(x, y) == "equal"
    assert ranks == [4]


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        mixed(H, odd_entries=(H.i(),)) * mixed(M2, odd_entries=(M2.i(),))
    with pytest.raises(AlgebraMismatch):
        closed_form_diag(H.i(), M2.i())


def test_traces_are_read_without_a_quaternion_product(monkeypatch):
    """closed_form_diag reads Trd(z1 z2) from the numerators on the integer
    table, with no Quaternion product; morita_transfer multiplies only to
    check that z0 z0 = 0, once per call and not once per entry."""
    products = []
    mul = Quaternion.__mul__

    def counted(x, y):
        products.append((x, y))
        return mul(x, y)

    half = Fraction(1, 2)
    z = H.pure(half, 1, Fraction(-2, 3))
    pairs = [(H.i(), H.i()), (H.i(), H.j()), (z, H.i() + H.ij()),
             (M2.i(), M2.j().scale(half))]
    want = [closed_form_diag(z1, z2) for z1, z2 in pairs]
    z0 = find_nilpotent(M2)
    h = AntiHermForm((M2.i(), M2.j().scale(half), M2.pure(1, 2, 3)), M2)
    transferred = hermitian.morita_transfer(h, z0)
    monkeypatch.setattr(Quaternion, "__mul__", counted)
    assert [closed_form_diag(z1, z2) for z1, z2 in pairs] == want
    assert products == []
    assert hermitian.morita_transfer(h, z0) == transferred
    assert products == [(z0, z0)]


def test_phi_multiplicative_split():
    rng = random.Random(5)
    for A in (M2, QuatAlgebra(2, 7)):
        z0 = find_nilpotent(A)
        for _ in range(25):
            x, y = _rand_mixed(rng, A), _rand_mixed(rng, A)
            assert phi_z0(x * y, z0) == phi_z0(x, z0) * phi_z0(y, z0)


def test_phi_restriction_to_even_is_identity():
    A = M2
    z0 = find_nilpotent(A)
    cls = witt_class(qf([3, -5]))
    assert phi_z0(mixed(A, even=cls), z0) == cls


def test_mixed_equal_split_compares_even_parts():
    """Over M2(Q) the even parts are compared first: <1> and <2> have
    discriminants 1 and 2, so they differ."""
    x = mixed(M2, even=witt_class(qf([1])))
    y = mixed(M2, even=witt_class(qf([2])))
    assert mixed_equal(x, y) == "distinct"


def test_phi_z0_default_nilpotent():
    """phi_z0 uses find_nilpotent(A) = -i - ij over (1, 1).  For z = ij,
    Trd(ij z0) = Trd(j + 1) = 2 and (ij)^2 = -1, so <ij> goes to
    <-2, -2> = <-1, -1>."""
    x = mixed(M2, even=witt_class(qf([3])), odd_entries=(M2.ij(),))
    assert phi_z0(x) == phi_z0(x, find_nilpotent(M2))
    assert phi_z0(x) == witt_class(qf([3, -1, -1]))


def test_mixed_equal_needs_the_full_bound_search():
    """Over (-1, -7) the rank-4 leftover of x - y is certified only at
    bound 8: after the first plane, its rank-2 remainder (hyperbolic, so
    the rank-1 test passes) needs the full-bound pair search."""
    A = QuatAlgebra(-1, -7)
    i, j, ij = A.i(), A.j(), A.ij()
    x = mixed(A, odd_entries=(i.scale(-3) + j.scale(2) - ij.scale(3),
                              i + j - ij.scale(2)))
    y = mixed(A, odd_entries=(i.scale(-2) + j.scale(3) + ij,
                              i.scale(-2) + j.scale(3) - ij))
    assert mixed_equal(x, y, search_bound=4) == "unknown"
    assert mixed_equal(x, y, search_bound=8) == "equal"


def _odd_pairs(A):
    """(odd entries of x, of y, verdict of x against y) over A.  Over
    (-1, -1) every difference is answered by the screen or by pairs that
    cancel, with no certificate: i and j, or i and 3i, have norm ratio 1 or
    9, a square, so those pairs go through the full rank-1 test."""
    i, j, ij = A.i(), A.j(), A.ij()
    split = A == M2
    return [
        ((i,), (i.scale(4),), "equal"),
        ((i, i + j), ((i + j).scale(Fraction(9, 4)), i.scale(4)), "equal"),
        ((i, i + j, ij), (ij.scale(Fraction(1, 4)), i, (i + j).scale(9)),
         "equal"),
        ((i,), (j,), "equal"),
        ((i,), (i + j,), "distinct"),
        ((i,), (), "equal" if split else "distinct"),
        ((i,), (i.scale(3),), "equal" if split else "distinct"),
    ]


@pytest.mark.parametrize("A", [H, M2], ids=["division", "split"])
def test_mixed_equal_checks_no_entry_again(A, monkeypatch):
    """The entries of x and y were checked by `mixed`; the difference
    x.odd _|_ -y.odd and what is left of it after cancellation carry those
    checks over, so no AntiHermForm is built with checks."""
    cases = [(mixed(A, odd_entries=a), mixed(A, odd_entries=b), want)
             for a, b, want in _odd_pairs(A)]
    calls = []
    init = AntiHermForm.__init__

    def counted(self, diag, algebra):
        calls.append(diag)
        init(self, diag, algebra)

    monkeypatch.setattr(AntiHermForm, "__init__", counted)
    assert [mixed_equal(x, y) for x, y, _ in cases] == [
        want for _, _, want in cases]
    assert calls == []


@pytest.mark.parametrize("A", [H, M2], ids=["division", "split"])
def test_pair_tests_take_each_entry_content_once(A, monkeypatch):
    """A cancellation takes no gcd of an entry's numerators: the pair tests
    cross-multiply them, so no decision of `_odd_pairs` calls gcd in
    `hermitian`."""
    cases = [(mixed(A, odd_entries=a), mixed(A, odd_entries=b), want)
             for a, b, want in _odd_pairs(A)]
    calls = []
    gcd = hermitian.gcd

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(hermitian, "gcd", counted)
    for x, y, want in cases:
        assert mixed_equal(x, y) == want
    assert calls == []


@pytest.mark.parametrize("A", [H, M2], ids=["division", "split"])
def test_square_multiple_pairs_negate_only_the_entries_of_y(A, monkeypatch):
    """Each entry of y is negated once, for y.odd.neg(); the pair tests
    compare z with -w on the numerators of w.  Entries of x are i and
    i + j, whose norm ratio 2 is not a square, so no pair of them reaches
    the full rank-1 test."""
    i, j = A.i(), A.j()
    pairs = [((i,), (i.scale(Fraction(1, 9)),)),
             ((i, i + j), ((i + j).scale(Fraction(9, 4)), i.scale(4))),
             ((i + j, i), (i.scale(25), (i + j).scale(Fraction(1, 16))))]
    cases = [(mixed(A, odd_entries=a), mixed(A, odd_entries=b))
             for a, b in pairs]
    negated = []
    neg = Quaternion.__neg__

    def counted(z):
        negated.append(z)
        return neg(z)

    monkeypatch.setattr(Quaternion, "__neg__", counted)
    for x, y in cases:
        negated.clear()
        assert mixed_equal(x, y) == "equal"
        assert len(negated) <= y.odd.rank
