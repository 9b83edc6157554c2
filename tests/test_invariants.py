"""Lambda operations and the module of formal invariants."""

import random
from fractions import Fraction
from math import comb

import pytest

from quatwitt import invariants as inv
from quatwitt.errors import DegreeTooLarge
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
from quatwitt.mixed import mixed, mixed_equal, mixed_one, mixed_zero
from quatwitt.quadforms import qf, witt_class
from quatwitt.quaternions import QuatAlgebra

H = QuatAlgebra(-1, -1)
M2 = QuatAlgebra(1, 1)


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


def test_lambda_herm_indexes_one_convolution(monkeypatch):
    """lambda_herm(d, h) is coefficient d of lambda_all(h), which runs the
    convolution once: one odd factor <z> per entry of h."""
    rng = random.Random(3)
    mixed_odd = inv.mixed_odd
    calls = []
    monkeypatch.setattr(inv, "mixed_odd",
                        lambda A, *zs: calls.append(zs) or mixed_odd(A, *zs))
    for A in (H, M2):
        for r in (1, 2, 3):
            h = AntiHermForm(tuple(_rand_pure(rng, A) for _ in range(r)), A)
            calls.clear()
            lam = lambda_all(h)
            assert calls == [(z,) for z in h.diag]
            assert len(lam) == 2 * r + 1
            for d in range(2 * r + 1):
                assert repr(lambda_herm(d, h)) == repr(lam[d])
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
    # n_Q W(Q) whatever its odd part, whose hyperbolicity the certificate
    # search leaves open
    odd = (Q3.pure(3, -5, 5), Q3.pure(4, -3, 3),
           Q3.pure(-3, 5, -5), Q3.pure(-20, 15, -15))
    x = mixed(Q3, even=witt_class(qf([1, 1])), odd_entries=odd)
    assert mixed_equal(mixed(Q3, odd_entries=odd), mixed_zero(Q3)) \
        == "unknown"
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
