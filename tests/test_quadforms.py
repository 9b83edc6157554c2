"""Quadratic forms over Q and F_p: invariants, isotropy, Witt classes."""

import itertools
import random

import pytest

from quatwitt import quadforms
from quatwitt.errors import (
    DegenerateForm,
    EvenOrCompositeModulus,
    FieldMismatch,
    UnsupportedField,
    VerificationFailed,
)
from quatwitt.fields import (
    Fp,
    hilbert_symbol_p,
    is_prime,
)
from quatwitt.quadforms import (
    GroupRingElem,
    WittClass,
    _hyperbolic_hasse,
    diagonalize,
    hyperbolic,
    is_isotropic,
    is_witt_zero,
    local_anisotropic_dim,
    local_anisotropic_dims,
    pfister,
    qf,
    signature,
    signed_disc,
    witt_class,
    witt_equal,
    witt_invariants,
    witt_zero,
)


def _brute_isotropic(reps, bound=10):
    # meet in the middle on the signs; squares only, signs are free
    n = len(reps)
    pos = [r for r in reps if r > 0]
    neg = [r for r in reps if r < 0]
    if not pos or not neg:
        return False
    vals = set()
    for vec in itertools.product(range(bound + 1), repeat=len(pos)):
        s = sum(r * v * v for r, v in zip(pos, vec))
        if s:
            vals.add(s)
    for vec in itertools.product(range(bound + 1), repeat=len(neg)):
        s = -sum(r * v * v for r, v in zip(neg, vec))
        if s and s in vals:
            return True
    return False


def test_signature_and_disc():
    q = qf([1, -2, 3, -30])
    assert signature(q) == 0
    # signed disc of dim 4 carries the (-1)^{n(n-1)/2} = 1... sign for n=4
    # is (-1)^6 = 1, entries multiply to 180 ~ 5
    assert signed_disc(q) == 5


def test_hasse_frozen():
    # hasse of <a, b> is the single symbol (a, b)_v; a place missing from
    # witt_invariants has symbol 1, and -1 is the real place
    def hasse(q, v):
        return witt_invariants(q).hasse.get(v, 1)

    assert hasse(qf([-1, -1]), -1) == -1
    assert hasse(qf([-1, -1]), 2) == -1
    assert hasse(qf([1, 1]), -1) == 1
    assert hasse(qf([2, 7]), 7) == 1


def test_local_anisotropic_dim():
    # a sum of three squares is anisotropic over Q_2 only; the norm form of
    # Hamilton's quaternions is anisotropic over Q_2 and hyperbolic at 3
    assert [local_anisotropic_dim(qf([1, 1, 1]), p) for p in (2, 3, 5)] \
        == [3, 1, 1]
    assert [local_anisotropic_dim(qf([1, 1, 1, 1]), p) for p in (2, 3)] \
        == [4, 0]
    assert local_anisotropic_dim(qf([1, -3]), 3) == 2
    # over R, v = -1, it is |signature|
    assert [local_anisotropic_dim(qf(e), -1)
            for e in ([1, 1, 1], [1, -3], [-1, -2, -5, 7], [])] == [3, 0, 2, 0]
    with pytest.raises(EvenOrCompositeModulus):
        local_anisotropic_dim(qf([1, 1, 1]), 4)
    # the refusal of fields._require_prime, message and all
    with pytest.raises(EvenOrCompositeModulus, match="^9 is not prime$"):
        local_anisotropic_dim(qf([1, 1, 1]), 9)
    # a Q_p question has no answer for a form over F_5
    with pytest.raises(UnsupportedField):
        local_anisotropic_dim(qf([1, 3], Fp(5)), 2)


def test_local_anisotropic_dims_only_over_q():
    assert local_anisotropic_dims(qf([1, 1, 1])) == {-1: 3, 2: 3}
    with pytest.raises(UnsupportedField, match="only over Q$"):
        local_anisotropic_dims(qf([1, 3], Fp(5)))


def test_kernel_peel_keeps_an_entry_of_two_primes_past_trial_bound():
    """The kernel of this form holds 1000037 * 1000213, the product of two
    primes of its entries past 10^6, which trial division cannot certify
    on its own.  Each slot of the peel adds the candidate's invariants to
    those it has, factoring only the candidate's primes outside them, so
    the peel answers.  Re-reading the invariants of the grown diagonal
    instead factors the candidate before the larger entries that hold
    those primes, and refuses."""
    q = qf([-6761829963070, -2310769230, -1874730, 1352078, 12562985526,
            43026386810, 1009507350390, 17161624956630])
    assert witt_class(q).anis.entries == (
        2, 1000037 * 1000213, -6761829963070,
        255602579744060901183840033675204555)


def test_isotropy_matches_brute_force():
    rng = random.Random(2)
    for _ in range(120):
        dim = rng.randint(2, 4)
        reps = [rng.choice([n for n in range(-15, 16) if n])
                for _ in range(dim)]
        q = qf(reps)
        verdict = is_isotropic(q)
        if _brute_isotropic(q.reps(), 25):
            assert verdict, q
        # brute force misses large solutions, so only check that direction


def test_definite_forms_anisotropic():
    assert not is_isotropic(qf([1, 1, 1, 1, 1]))
    assert not is_isotropic(qf([-2, -3, -5]))


def test_indefinite_rank5_isotropic():
    assert is_isotropic(qf([1, 1, 1, 1, -7]))


def test_witt_equal_properties():
    rng = random.Random(5)
    for _ in range(50):
        reps = [rng.choice([n for n in range(-20, 21) if n])
                for _ in range(rng.randint(1, 4))]
        q = qf(reps)
        assert witt_equal(q, q)
        assert witt_equal(q.perp(q.neg()), qf([]))
        assert witt_equal(q.perp(hyperbolic(2)), q)


def test_witt_class_kernel_verified():
    rng = random.Random(6)
    for _ in range(60):
        reps = [rng.choice([n for n in range(-25, 26) if n])
                for _ in range(rng.randint(1, 5))]
        q = qf(reps)
        k = witt_class(q).anis
        assert not is_isotropic(k) or k.dim == 0
        pad = (q.dim - k.dim) // 2
        assert witt_equal(q, k.perp(hyperbolic(pad)))


def test_witt_class_hard_reduction():
    # dim 5 isotropic form whose 3- and 4-dim subforms are anisotropic
    q = qf([-95, -38, 51, 68442, 171105])
    k = witt_class(q).anis
    assert k.dim == 3
    assert witt_equal(q, k.perp(hyperbolic(1)))


def test_witt_class_dim8_kernel():
    # indefinite of dim 8 whose kernel needs a slot outside its primes
    q = qf([1, 17, -43, -23, 41, -1, -22, -53])
    k = witt_class(q).anis
    assert k.dim == 2
    assert not is_isotropic(k)
    assert witt_equal(q, k)


def test_witt_class_fp():
    rng = random.Random(7)
    for p in (3, 5, 7):
        F = Fp(p)
        for _ in range(30):
            dim = rng.randint(1, 6)
            q = qf([rng.randint(1, p - 1) for _ in range(dim)], F)
            k = witt_class(q).anis
            assert k.dim <= 2 and k.dim % 2 == q.dim % 2
            assert signed_disc(k) == signed_disc(q)


def test_witt_class_hash():
    # Witt-equal classes from different inputs; <1, 1> and <2, 2> also
    # keep different kernels
    assert hash(witt_class(qf([1, 1]))) == hash(witt_class(qf([2, 2])))
    assert hash(witt_class(qf([1, -1, 5]))) == hash(witt_class(qf([5])))
    classes = [witt_class(qf(d)) for d in ([1], [2], [3], [-1], [1, 1])]
    assert len({hash(c) for c in classes}) > 2


def test_witt_zero():
    assert is_witt_zero(qf([1, -1, 2, -2]))
    assert not is_witt_zero(qf([1, 1]))


@pytest.mark.parametrize("values, field", [
    ([1, 1, 1], None), ([3, -5, 7, 7, 7], None), ([2, -6], None), ([1], None),
    ([1, 1], Fp(7)), ([2], Fp(7)), ([1, 2, 3], Fp(5)),
])
def test_sum_with_zero_is_the_other_class(values, field):
    """For x != 0, x + 0 and 0 + x are x itself, with the kernel that
    witt_class gave it; over another field the sum with 0 still refuses."""
    field = field or quadforms.QQ
    x = witt_class(qf(values, field))
    assert not x.is_zero()
    zero = witt_zero(field)
    assert x + zero is x
    assert zero + x is x
    assert (x + zero).anis == witt_class(x.anis).anis
    assert zero + zero is zero
    other = witt_zero(Fp(3) if field.p is None else quadforms.QQ)
    with pytest.raises(FieldMismatch):
        x + other
    with pytest.raises(FieldMismatch):
        other + x


def test_fp_witt_invariants():
    F7 = Fp(7)
    q = qf([1, 3], F7)
    inv = witt_invariants(q)
    assert inv.dim == 2
    assert inv.signature is None
    # <1, 3> over F_7: signed disc -3 ~ 4 ~ square
    assert witt_equal(qf([1, 3], F7), qf([2, 6], F7))
    assert not witt_equal(qf([1, 3], F7), qf([1, 1], F7))


def test_diagonalize_gram():
    gram = [[0, 1], [1, 0]]   # hyperbolic plane
    q = diagonalize(gram)
    assert witt_equal(q, hyperbolic(1))
    with pytest.raises(DegenerateForm):
        diagonalize([[1, 1], [1, 1]])


def test_pfister_form():
    p = pfister([2, 3])        # <<2,3>> = <1,-2,-3,6>
    assert sorted(p.reps()) == [-3, -2, 1, 6]


def test_group_ring_elem():
    s = GroupRingElem(witt_class(qf([1])), witt_class(qf([2])))
    prod = s * s
    # (e + o delta)^2 = (e^2 + o^2) + 2eo delta
    assert prod.even == witt_class(qf([1]).perp(qf([2]).tensor(qf([2]))))
    assert prod.odd == witt_class(qf([2]).perp(qf([2])))


def test_group_ring_elems_with_witt_equal_parts_are_equal():
    """<2, 2> = <1, 1> and <3, 5, -5> = <3> in W(Q), each written with
    other representatives: the elements compare and hash equal."""
    x = GroupRingElem(witt_class(qf([2, 2])), witt_class(qf([3])))
    y = GroupRingElem(witt_class(qf([1, 1])), witt_class(qf([3, 5, -5])))
    assert x.even.form.reps() != y.even.form.reps()
    assert x.odd.form.reps() != y.odd.form.reps()
    assert x == y and hash(x) == hash(y)
    assert x != GroupRingElem(y.even, witt_class(qf([1])))


def test_witt_class_is_the_class_of_its_diagonal():
    """The constructor takes any diagonal, not only a kernel: <1, -1> is
    the zero class, and <3, 5, -5> has the kernel <3>."""
    w = WittClass(qf([1, -1]))
    assert w.is_zero()
    assert w.dim == 0
    assert w.anis == qf([])
    assert WittClass(qf([3, 5, -5])).anis == qf([3])


def test_q_witt_invariants():
    """<-1, -1>: signed discriminant -(-1)(-1) = -1, Hasse symbol
    (-1, -1) = -1 at the real place and at 2 (and 1 elsewhere), and
    signature -2."""
    wi = witt_invariants(qf([-1, -1]))
    assert wi.dim == 2
    assert wi.signed_disc == -1
    assert wi.hasse == {-1: -1, 2: -1}
    # keyed by the real place, then the primes in ascending order
    assert list(witt_invariants(qf([7, -3, 5])).hasse) == [-1, 2, 3, 5, 7]
    assert wi.signature == -2


def test_witt_class_difference():
    """<1, 2> - <2> = <1> and <1> - <1> = 0."""
    assert witt_class(qf([1, 2])) - witt_class(qf([2])) == witt_class(qf([1]))
    assert (witt_class(qf([1])) - witt_class(qf([1]))).is_zero()


def test_hyperbolic_hasse_closed_form():
    """(-1, -1)_p is -1 exactly at p = 2 and at the real place p = -1; m
    hyperbolic planes carry it to the power m(m - 1)/2."""
    for p in [-1] + [p for p in range(2, 200) if is_prime(p)]:
        symbol = hilbert_symbol_p(-1, -1, p)
        for m in range(6):
            want = symbol if m * (m - 1) // 2 % 2 else 1
            assert _hyperbolic_hasse(m, p) == want, (m, p)


def test_bareiss_refuses_an_inexact_division(monkeypatch):
    """By Sylvester's identity every Bareiss division is exact, so no Gram
    matrix reaches the guard; a divmod that reports a remainder stands in
    for broken elimination arithmetic, and the explicit raise (kept under
    python -O) refuses it rather than returning a wrong diagonal."""
    gram = [[1, 2], [2, 3]]
    assert witt_equal(diagonalize(gram), qf([1, -1]))

    def inexact(a, b):
        return a // b, 1

    monkeypatch.setattr(quadforms, "divmod", inexact, raising=False)
    with pytest.raises(VerificationFailed, match="inexact Bareiss"):
        diagonalize(gram)


def test_scaling_a_witt_class_over_q_classifies_nothing():
    """<c> times a kernel is a kernel: scale, negation and a product with
    a rank-1 class read no local invariants, and give the kernel that
    witt_class finds for the scaled form.  The kernels are read first, as
    a class peels its own kernel on the first read."""
    w = witt_class(qf([1, 1, 2, 7]))
    one = witt_class(qf([-15]))
    w.anis, one.anis
    before = quadforms._local_data.cache_info()
    got = [w.scale(3), w.scale(-30), -w, w * one, one * w]
    assert quadforms._local_data.cache_info() == before
    assert [g.anis.entries for g in got] == [
        witt_class(w.anis.scale(c)).anis.entries for c in (3, -30, -1, -15,
                                                           -15)]


def test_rank_one_products_across_fields_are_refused():
    with pytest.raises(FieldMismatch):
        witt_class(qf([1, 2])) * witt_class(qf([1], Fp(3)))
    with pytest.raises(FieldMismatch):
        witt_class(qf([3], Fp(5))) * witt_class(qf([1, 2]))
