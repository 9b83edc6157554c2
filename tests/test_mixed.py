"""The mixed Witt ring: products, equality decision, phi."""

import importlib
import random
from fractions import Fraction

import pytest

from quatwitt.errors import AlgebraMismatch
from quatwitt.mixed import (
    MixedClass,
    mixed,
    mixed_equal,
    mixed_one,
    mixed_zero,
    odd_product_closed_form,
    phi_z0,
    twisted_trace_form,
)
from quatwitt.quadforms import qf, witt_class, witt_equal, witt_zero
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
    that twisted_trace_form diagonalizes, against a written-out product."""
    mixed_module = importlib.import_module("quatwitt.mixed")
    grams = []
    monkeypatch.setattr(mixed_module, "diagonalize",
                        lambda g: grams.append(g) or witt_zero().anis)
    unit = [[Fraction(int(k == s)) for k in range(4)] for s in range(4)]
    rng = random.Random(4)
    for a, b in ((-1, -1), (1, 1), (2, 7), (Fraction(-2, 3), Fraction(-5, 7))):
        A = QuatAlgebra(a, b)
        a, b = A.a, A.b
        for _ in range(5):
            z1, z2 = _rand_pure(rng, A), _rand_pure(rng, A)
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
            assert grams == [want]


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


def test_mixed_equal_probe_tier(monkeypatch):
    # same even part, rank parity and discriminant, so the screens pass;
    # at bound 1 no certificate is found and the pairing probes run
    x = mixed(H, odd_entries=(H.pure(*map(Fraction, (2, -1, -3))),))
    y = mixed(H, odd_entries=(H.pure(*map(Fraction, (1, 2, -3))),))
    # import_module: the package binds the name `mixed` to a function
    mixed_module = importlib.import_module("quatwitt.mixed")
    probe_set = mixed_module._probe_set
    calls = []
    monkeypatch.setattr(mixed_module, "_probe_set",
                        lambda A: calls.append(A) or probe_set(A))
    assert mixed_equal(x, y, search_bound=1) == "unknown"
    assert calls == [H]
    assert mixed_equal(x, y) == "equal"


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        mixed(H, odd_entries=(H.i(),)) * mixed(M2, odd_entries=(M2.i(),))


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
