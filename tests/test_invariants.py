"""Lambda operations and the module of formal invariants."""

import importlib
import random
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from quatwitt import invariants as inv
from quatwitt import quadforms
from quatwitt.errors import (
    AlgebraMismatch,
    DegreeTooLarge,
    SchemaViolation,
    UnsupportedField,
)
from quatwitt.fields import Fp
from quatwitt.hermitian import AntiHermForm
from quatwitt.invariants import (
    LambdaInvariant,
    chi,
    eval_invariant,
    int_multiple,
    invariant_equal,
    is_constant_invariant,
    lambda_all,
    lambda_basis_invariant,
    lambda_herm,
    n_q_mixed,
    nq_membership,
    versal_sample_check,
)
from quatwitt.mixed import (
    MixedClass,
    mixed,
    mixed_equal,
    mixed_one,
    mixed_zero,
)
from quatwitt.quadforms import qf, witt_class
from quatwitt.quaternions import QuatAlgebra
from test_quaternions import DrawLimit

H = QuatAlgebra(-1, -1)
M2 = QuatAlgebra(1, 1)


def _drawn_form(r):
    """A rank-r form over (-1, -1), each entry of coordinates -2..2 drawn
    by random.Random(1), all-zero draws skipped."""
    rng = random.Random(1)
    diag = []
    while len(diag) < r:
        c = [rng.randint(-2, 2) for _ in range(3)]
        if any(c):
            diag.append(H.pure(*c))
    return AntiHermForm(tuple(diag), H)


def _rand_pure(rng, A, h=5):
    while True:
        c = [rng.randint(-h, h) for _ in range(3)]
        if not any(c):
            continue
        z = A.pure(*(Fraction(v) for v in c))
        if z.is_invertible():
            return z


def test_lambda_rank1():
    """1 + <z> t + <Nrd z> t^2, nothing beyond degree 2."""
    rng = random.Random(0)
    for A in (H, M2):
        for _ in range(25):
            z = _rand_pure(rng, A)
            h = AntiHermForm((z,), A)
            lam = lambda_all(h)
            assert len(lam) == 3
            assert mixed_equal(lam[0], mixed_one(A)) == "equal"
            assert lam[1].odd.diag == (z,)
            assert lam[2].even == witt_class(qf([z.nrd()]))
            assert lam[2].odd.rank == 0


def test_lambda_grading_parity():
    """Even-degree coefficients are even classes, odd-degree ones odd."""
    rng = random.Random(1)
    h = AntiHermForm(tuple(_rand_pure(rng, H) for _ in range(3)), H)
    for d, lam in enumerate(lambda_all(h)):
        if d % 2 == 0:
            assert lam.odd.rank == 0
        else:
            assert lam.even.is_zero() or lam.odd.rank % 2 == 1


def test_lambda_sum_formula_rank2():
    """lambda^d(<z1> + <z2>) = sum over i + j = d of products."""
    rng = random.Random(2)
    for A in (H, M2):
        z1, z2 = _rand_pure(rng, A), _rand_pure(rng, A)
        h = AntiHermForm((z1, z2), A)
        l1 = lambda_all(AntiHermForm((z1,), A))
        l2 = lambda_all(AntiHermForm((z2,), A))
        lam = lambda_all(h)
        for d in range(5):
            acc = mixed_zero(A)
            for i in range(max(0, d - 2), min(d, 2) + 1):
                acc = acc + l1[i] * l2[d - i]
            # even slices compare exactly; odd ones via the semi-decision
            if d % 2 == 0:
                assert lam[d].even == acc.even
            assert mixed_equal(lam[d], acc) != "distinct"


def test_int_multiple_of_zero_is_the_zero_class():
    A = QuatAlgebra(-1, -1)
    x = mixed(A, witt_class(qf([1, 3])), (A.pure(1, 0, 0),))
    zero = int_multiple(0, x)
    assert zero == mixed_zero(A)
    assert mixed_equal(int_multiple(2, x) + int_multiple(-2, x), zero) \
        == "equal"


def test_lambda_herm_indexes_one_convolution(monkeypatch):
    """lambda_all(h) runs the convolution once: one odd factor <z> per
    entry of h.  lambda_herm(d, h) runs it once too, stopped at degree d,
    and prints coefficient d of lambda_all(h)."""
    rng = random.Random(3)
    mixed_odd = inv.mixed_odd
    calls = []
    monkeypatch.setattr(inv, "mixed_odd",
                        lambda A, *zs: calls.append(zs) or mixed_odd(A, *zs))
    for A in (H, M2, QuatAlgebra(Fraction(-2, 3), Fraction(-5, 7))):
        for r in (1, 2, 3, 4):
            h = AntiHermForm(tuple(_rand_pure(rng, A) for _ in range(r)), A)
            calls.clear()
            lam = lambda_all(h)
            assert calls == [(z,) for z in h.diag]
            assert len(lam) == 2 * r + 1
            for d in range(2 * r + 1):
                calls.clear()
                assert repr(lambda_herm(d, h)) == repr(lam[d])
                assert calls == [(z,) for z in h.diag]
            for d in (-1, 2 * r + 1):
                with pytest.raises(DegreeTooLarge):
                    lambda_herm(d, h)


def test_chi_binomials():
    A = H
    coeffs = [mixed_zero(A) for _ in range(7)]
    for i in range(4):
        coeffs[2 * i] = mixed_one(A)
    out = chi(3, coeffs)
    assert out.even == witt_class(qf([1] * 8))  # sum C(3,i) = 8 copies of <1>


def test_lambda_power_stops_at_its_degree(monkeypatch):
    """lambda^2 of a rank-20 form takes at most three products per entry,
    c_0 <z>, c_1 <z> and c_0 <Nrd z>, where the full convolution takes
    400; the count stops the call before it could run for minutes."""
    h = _drawn_form(20)
    mul = MixedClass.__mul__
    calls = []

    def counted(x, y):
        calls.append(None)
        assert len(calls) <= 3 * h.rank, "lambda^2 ran past degree 2"
        return mul(x, y)

    monkeypatch.setattr(MixedClass, "__mul__", counted)
    lam2 = lambda_herm(2, h)
    assert lam2.odd.rank == 0


def test_chi_at_rank_ten_peels_once(monkeypatch):
    """chi(10, lambda_all(h)) sums 2^10 copies of the even coefficients
    with one `witt_class` call, where one `+` per copy made about 2^10."""
    lam = lambda_all(_drawn_form(10))
    witt = quadforms.witt_class
    calls = []

    def counted(q):
        calls.append(q.dim)
        return witt(q)

    for module in (quadforms, importlib.import_module("quatwitt.mixed")):
        monkeypatch.setattr(module, "witt_class", counted)
    chi(10, lam)
    assert calls == [sum(comb(10, i) * lam[2 * i].even.dim
                         for i in range(11))]


def test_sums_refuse_mixed_algebras_and_fields():
    """The one-peel sum refuses what `+` refuses, classes over two
    algebras.  An even part over F_5 is refused where the class is made,
    so no sum meets one."""
    x = mixed(H, witt_class(qf([1, 3])), (H.pure(1, 0, 0),))
    with pytest.raises(AlgebraMismatch):
        chi(1, [x, mixed_zero(H), mixed(M2, witt_class(qf([2])))])
    over_f5 = witt_class(qf([2], Fp(5)))
    for make in (lambda: mixed(M2, over_f5),
                 lambda: MixedClass(over_f5, AntiHermForm((), H))):
        with pytest.raises(UnsupportedField, match="over Q"):
            make()


# (-3, -10) ramifies at the real place (a, b < 0), at 3 ((-10 | 3) = -1),
# at 5 ((-3 | 5) = -1) and so at 2; n_Q = <1, 3, 10, 30>
Q3 = QuatAlgebra(-3, -10)


def test_nq_membership():
    for A, values, verdict in [
        (H, [1, 1, 1, 1], "member"),            # n_H
        (H, [1], "nonmember"),                  # odd dimension
        (H, [1, 1], "nonmember"),
        # over a split algebra only 0 is a multiple
        (M2, [1, -1], "member"),
        (M2, [1, 1], "nonmember"),
        # signature 4 = 4 mod 8, so the Clifford invariant is nontrivial at
        # the real place; unit entries make the form hyperbolic over Q_5,
        # so it is trivial at 5: it is neither 0 nor [Q]
        (Q3, [1, 1, 1, 1], "nonmember"),
        # <<-1, -3>> again has signature 4, and over Q_5 its entries are
        # units, so its Clifford invariant (-1, -3) is nontrivial at the
        # real place and trivial at 5
        (Q3, [1, 1, 3, 3], "nonmember"),
        (Q3, [1, 3, 10, 30] * 3, "member"),     # n_Q <1, 1, 1>
        # <<-1, 21>> ramifies at 3 and 7, where H splits
        (H, [1, 1, -21, -21], "nonmember"),
        # 8<1> = n_H <1, 1>, but (-1, 3) splits at the real place
        (H, [1] * 8, "member"),
        (QuatAlgebra(-1, 3), [1] * 8, "nonmember"),
    ]:
        assert nq_membership(witt_class(qf(values)), A) == verdict, values


@pytest.mark.parametrize("values", [[1], [1, 2], [1, 1, 2]])
@pytest.mark.parametrize("ab", [(-1, -1), (1, 1)])
def test_nq_membership_refuses_a_class_over_fp(ab, values):
    # n_Q W(Q) is an ideal of W(Q): a class over F_5 is refused, whatever
    # its dimension and whether or not the algebra splits
    with pytest.raises(UnsupportedField):
        nq_membership(witt_class(qf(values, Fp(5))), QuatAlgebra(*ab))


def test_constant_invariant():
    A = H
    nqm = n_q_mixed(A)
    r = 1
    coeffs = [mixed(A, even=witt_class(qf([3, -7]))),
              mixed_zero(A),
              nqm * mixed(A, even=witt_class(qf([5])))]
    alpha = LambdaInvariant(r, tuple(coeffs))
    res = is_constant_invariant(alpha)
    assert res.status == "constant"
    expected = chi(r, coeffs)
    assert mixed_equal(res.value, expected) == "equal"
    check = versal_sample_check(alpha, res.value, n_samples=20, height=5)
    assert check.status == "consistent"


def test_nonconstant_invariant():
    A = H
    coeffs = [mixed_zero(A), mixed_zero(A), mixed(A, even=witt_class(qf([1, 1])))]
    alpha = LambdaInvariant(1, tuple(coeffs))
    res = is_constant_invariant(alpha)
    assert res.status == "nonconstant"
    assert res.witness == 2
    # the even part <1, 1> is not in I^2, so the coefficient is not in
    # n_Q W(Q) whatever its odd part.  That odd part is not 0 either: it
    # cancels to <w, -5w>, w = 4i - 3j + 3ij, and Nrd(p) = 5 is not a
    # norm from Q(w) = Q(sqrt(-102)), since (5, -102)_5 = (3 / 5) = -1
    odd = (Q3.pure(3, -5, 5), Q3.pure(4, -3, 3),
           Q3.pure(-3, 5, -5), Q3.pure(-20, 15, -15))
    x = mixed(Q3, even=witt_class(qf([1, 1])), odd_entries=odd)
    assert mixed_equal(mixed(Q3, odd_entries=odd), mixed_zero(Q3)) \
        == "distinct"
    res = is_constant_invariant(
        LambdaInvariant(1, (mixed_zero(Q3), x, mixed_zero(Q3))))
    assert res.status == "nonconstant"
    assert res.witness == 1


def test_presentation_relations():
    """n_Q lambda^{2i} = C(r, i) n_Q as invariants of rank-r forms."""
    for A in (H, M2):
        nqm = n_q_mixed(A)
        for r in (1, 2):
            for i in range(r + 1):
                alpha = lambda_basis_invariant(r, 2 * i, A, scale=nqm)
                beta = lambda_basis_invariant(
                    r, 0, A, scale=int_multiple(comb(r, i), nqm))
                assert invariant_equal(alpha, beta) == "equal"


def test_eval_invariant():
    rng = random.Random(7)
    z = _rand_pure(rng, H)
    h = AntiHermForm((z,), H)
    alpha = lambda_basis_invariant(1, 2, H)
    out = eval_invariant(alpha, h)
    assert out.even == witt_class(qf([z.nrd()]))


def test_nonconstant_from_an_odd_coefficient():
    """<i> lambda^1 over (-1, -1): the even part of x_1 is 0, a member of
    n_Q W(Q), but its odd part has rank 1, which is not 0 in the Witt
    group (odd rank), so degree 1 is the witness."""
    alpha = LambdaInvariant(1, (mixed_zero(H), mixed(H, odd_entries=(H.i(),)),
                                mixed_zero(H)))
    assert is_constant_invariant(alpha) == inv.ConstancyResult(
        "nonconstant", witness=1)


def _undecided_invariant():
    """(x - y) lambda^1 over (-1, -1) with x = <3i + 3j + 3ij, 2i - j - ij>
    and y = <-i - 2j + 2ij, -j + ij>: the screens pass, no two entries of
    the rank-4 odd part cancel, and it has no certificate at bound 8."""
    i, j, ij = H.i(), H.j(), H.ij()
    x = mixed(H, odd_entries=(i.scale(3) + j.scale(3) + ij.scale(3),
                              i.scale(2) - j - ij))
    y = mixed(H, odd_entries=(-i - j.scale(2) + ij.scale(2), -j + ij))
    return LambdaInvariant(1, (mixed_zero(H), x - y, mixed_zero(H)))


def test_constancy_unknown():
    assert is_constant_invariant(_undecided_invariant()) == \
        inv.ConstancyResult("unknown")


def test_invariant_equal_unknown():
    zero = LambdaInvariant(1, (mixed_zero(H),) * 3)
    assert invariant_equal(_undecided_invariant(), zero) == "unknown"


def test_invariant_equal_distinct_constants():
    """<1> lambda^0 - <2> lambda^0 is constant of value <1, -2>, whose
    signed discriminant 2 is not a square, so it is not 0 in W(Q)."""
    one = lambda_basis_invariant(1, 0, H)
    two = lambda_basis_invariant(1, 0, H,
                                 scale=mixed(H, even=witt_class(qf([2]))))
    assert is_constant_invariant(one - two).status == "constant"
    assert invariant_equal(one, two) == "distinct"


def test_versal_sample_refutes_a_wrong_constant():
    """The constant invariant 1 is not 0 at any point, so the first sample
    refutes the claim 0 and is returned."""
    check = versal_sample_check(lambda_basis_invariant(1, 0, H),
                                mixed_zero(H))
    assert check == inv.SampleCheck("refuted", point=((0, 12, 1),))


def test_versal_sample_accepts_a_zero_odd_part_over_split_algebras():
    """Over (1, 1), <i> is 0 in W^{-1}: its Morita transfer is hyperbolic.
    So is <i + j> over (2, 7).  The constant 1 then equals 1 + <z>, and no
    sample may refute it, as the discriminant screen, sound only over a
    division algebra, once did at ((0, 12, 1),)."""
    B = QuatAlgebra(2, 7)
    for A, z in ((M2, M2.i()), (B, B.i() + B.j())):
        claim = mixed_one(A) + mixed(A, odd_entries=(z,))
        assert mixed_equal(mixed_one(A), claim) == "equal"
        check = versal_sample_check(lambda_basis_invariant(1, 0, A), claim)
        assert check == inv.SampleCheck("consistent")


def test_versal_sampling_refuses_a_height_below_one(monkeypatch):
    """At height 0 every draw would be 0; the sampler's rng stops after a
    few draws, so a loop fails the test instead of hanging it."""
    monkeypatch.setattr(inv, "random",
                        SimpleNamespace(Random=lambda seed: DrawLimit()))
    with pytest.raises(SchemaViolation, match="height: must be at least 1"):
        versal_sample_check(lambda_basis_invariant(1, 0, H), mixed_one(H),
                            height=0)
