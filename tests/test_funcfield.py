"""Forms over Q(t): residues, the specialization oracle, generic splitting."""

import random
from fractions import Fraction as F

import pytest

from quatwitt import polys as P
from quatwitt import funcfield
from quatwitt.errors import (
    NoGoodSpecializationPoint,
    UnsupportedResidueField,
    VerificationFailed,
    ZeroElement,
)
from quatwitt.fields import sq_mul, square_class
from quatwitt.funcfield import (
    FFEntry,
    Place,
    conic_parametrize,
    conic_w0_places,
    ff_class,
    ff_entry,
    ff_entry_product,
    ff_form,
    good_points,
    kernel_generator,
    kt_witt_equal,
    psi_split,
    residue,
    residue2_vanishes,
    w0_membership,
)
from quatwitt.mixed import mixed
from quatwitt.polys import RationalFunction
from quatwitt.quadforms import qf, witt_class, witt_equal
from quatwitt.quaternions import QuatAlgebra, Quaternion, draw_pure

T = [0, 1]
PLACE_T = Place("poly", pi=P.poly([F(0), F(1)]))
PLACE_T1 = Place("poly", pi=P.poly([F(-1), F(1)]))
INF = Place("infinite")


@pytest.mark.parametrize("kind, pi", [("real", None), ("finite", None),
                                     ("poly", None), ("infinite", (F(0), F(1)))])
def test_place_is_a_place_of_qt(kind, pi):
    # a place of Q is a plain integer; Place names only places of Q(t)
    with pytest.raises(ValueError):
        Place(kind, pi=pi)


def test_ff_entry_normalization():
    e = ff_entry([0, 0, 12])     # 12 t^2 ~ 3 up to squares
    assert e.unit == 3
    assert e.factors == ()
    e2 = ff_entry([0, 8])
    assert e2.unit == 2
    assert [P.poly_str(f) for f in e2.factors] == ["t"]
    # separate factorization of numerator and denominator
    e3 = ff_entry(RationalFunction(P.poly([F(1), F(0), F(1)]),
                                   P.poly([F(0), F(1)])))
    assert e3.unit == 1
    assert len(e3.factors) == 2


@pytest.mark.parametrize("x", [0, F(0), [0], P.ZERO],
                         ids=["int", "fraction", "list", "poly"])
def test_ff_entry_refuses_zero(x):
    with pytest.raises(ZeroElement,
                       match="^zero entry in a function-field form$"):
        ff_entry(x)


def test_ff_class_pairs_off_repeated_factors():
    t, t1 = P.poly(T), P.poly([-1, 1])
    # t three times is t; t at exponent 3 is t; t * t^3 is a square
    assert ff_class(3, [(t, 1), (t1, 1), (t, 1), (t, 1)]) \
        == FFEntry(3, (t1, t))
    assert ff_class(3, [(t, 3), (t1, 2)]) == FFEntry(3, (t,))
    assert ff_class(3, [(t, 1), (t1, 3), (t, 3)]) == FFEntry(3, (t1,))
    # 2t three times: the leading coefficients fold into the unit
    assert ff_class(1, [(P.poly([0, 2]), 1)] * 3) == FFEntry(2, (t,))


def test_residue_frozen_example():
    q = ff_form([T, 1])
    out = residue(q, PLACE_T)
    assert out.even == witt_class(qf([1]))    # from the unit entry <1>
    assert out.odd == witt_class(qf([1]))     # cofactor of <t>
    out_inf = residue(q, INF)
    # v_inf(t) = -1 odd: <t> contributes to the second residue
    assert out_inf.odd == witt_class(qf([1]))
    assert out_inf.even == witt_class(qf([1]))


def test_residue_additivity():
    rng = random.Random(3)
    pis = [P.poly([F(0), F(1)]), P.poly([F(-1), F(1)]), P.poly([F(1), F(1)])]

    def rand_form():
        entries = []
        for _ in range(rng.randint(1, 3)):
            val = P.constant(F(rng.choice([1, -1, 2, 3, -5, 7])))
            for piv in pis:
                if rng.random() < 0.5:
                    val = P.pmul(val, piv)
            entries.append(val)
        return ff_form(entries)

    inf = Place("infinite")
    for _ in range(60):
        q1, q2 = rand_form(), rand_form()
        v = Place("poly", pi=pis[rng.randrange(3)])
        for place in (v, inf):
            assert (residue(q1.perp(q2), place)
                    == residue(q1, place) + residue(q2, place))


def test_residue_degree2_unsupported():
    q = ff_form([[1, 0, 1]])
    with pytest.raises(UnsupportedResidueField):
        residue(q, Place("poly", pi=P.poly([F(1), F(0), F(1)])))
    # but vanishing of the second residue is still decidable
    sq = q.perp(q.neg())
    assert residue2_vanishes(sq, Place("poly", pi=P.poly([F(1), F(0), F(1)])))


def test_residue2_vanishes_at_degree2_place():
    pi = P.poly([F(3), F(0), F(1)])     # t^2 + 3, residue field Q(sqrt -3)
    v = Place("poly", pi=pi)

    def form(*units):
        return ff_form([P.pscale(u, pi) for u in units])

    assert residue2_vanishes(form(1, 3), v)          # -1/3 = (1/sqrt -3)^2
    assert not residue2_vanishes(form(1, -2), v)     # complete in dim 2
    assert not residue2_vanishes(form(1, 1, 1), v)   # odd count
    assert not residue2_vanishes(form(1, 1, 1, -2), v)  # disc -2
    # <1, 1, -2, -2> is hyperbolic over Q, but no pair cancels
    with pytest.raises(UnsupportedResidueField):
        residue2_vanishes(form(1, 1, -2, -2), v)
    with pytest.raises(UnsupportedResidueField):
        kt_witt_equal(form(1, 1), form(2, 2))


def test_kt_witt_equal_and_specialization():
    q1 = ff_form([1, T, -3])
    pad = ff_form([[1, 1], [-1, -1]])
    assert kt_witt_equal(q1, q1.perp(pad))
    assert not kt_witt_equal(q1, q1.perp(ff_form([5])))   # dims differ mod 2
    assert not kt_witt_equal(ff_form([1]), ff_form([3]))
    for c in good_points(q1.perp(q1), 5):
        assert witt_equal(q1.specialize(c), q1.specialize(c))


def test_entry_value_at_matches_specialize():
    # (t^2 - 2)(t + 1), 3t, -5 and a psi image over (2, 7)
    A = QuatAlgebra(2, 7)
    forms = [ff_form([[-2, -2, 1, 1], [0, 3], -5]),
             psi_split(mixed(A, even=witt_class(qf([3])),
                             odd_entries=(A.pure(1, 2, 0),
                                          A.pure(0, 1, F(1, 3)))))]
    for q in forms:
        for c in (F(0), F(2), F(-1, 3), F(7, 2)):
            values = [e.value_at(c) for e in q.entries]
            if all(values):
                assert qf(values) == q.specialize(c)
            else:
                with pytest.raises(NoGoodSpecializationPoint):
                    q.specialize(c)
    assert ff_entry([-2, -2, 1, 1]).value_at(F(-1)) == 0


def test_kt_witt_equal_cancels_pairs_before_residues():
    cubic = P.poly([F(-2), F(0), F(0), F(1)])      # t^3 - 2, irreducible
    q = ff_form([cubic])
    # q - q = <t^3 - 2, -(t^3 - 2)> is <e, -e>, hyperbolic: "equal" with
    # no residue at the degree-3 place
    assert kt_witt_equal(q, q)
    # a pair cancelled inside one side, and the same class written as
    # 4 (t^3 - 2) (t - 1)^2 on the other: every entry cancels
    sq = P.pmul(P.pscale(4, cubic), P.pmul(P.poly([-1, 1]), P.poly([-1, 1])))
    assert kt_witt_equal(q.perp(ff_form([[0, 3], [0, -3]])), ff_form([sq]))
    # <t^3 - 2> against <2 (t^3 - 2)>: units 1 and 2 do not cancel, and
    # the residue field Q[t]/(t^3 - 2) is still refused
    with pytest.raises(UnsupportedResidueField):
        kt_witt_equal(q, ff_form([P.pscale(2, cubic)]))
    # what is left after cancelling is decided as before: the cubic pair
    # goes, and <1> against <3> is "distinct" by its specialization
    assert not kt_witt_equal(q.perp(ff_form([1])), q.perp(ff_form([3])))


def test_conic_parametrization_identity():
    points = {(1, 1): (-1, 0), (2, 7): (F(-7, 3), F(-2, 3)),
              (5, -1): (-2, -5)}
    for (a, b), point in points.items():
        A = QuatAlgebra(a, b)
        conic = conic_parametrize(A)
        assert conic.point == point
        # -a x^2 - b y^2 + ab = 0 with x = xn/xd, y = yn/yd, cleared of
        # denominators
        xn, xd = conic.x_t.num, conic.x_t.den
        yn, yd = conic.y_t.num, conic.y_t.den
        xd2, yd2 = P.pmul(xd, xd), P.pmul(yd, yd)
        terms = [P.pscale(-a, P.pmul(P.pmul(xn, xn), yd2)),
                 P.pscale(-b, P.pmul(P.pmul(yn, yn), xd2)),
                 P.pscale(a * b, P.pmul(xd2, yd2))]
        assert P.padd(P.padd(terms[0], terms[1]), terms[2]) == P.ZERO


def test_conic_parametrize_cached_per_algebra():
    conic = conic_parametrize(QuatAlgebra(2, 7))
    assert conic_parametrize(QuatAlgebra(F(2), F(7))) is conic
    x = mixed(QuatAlgebra(2, 7), odd_entries=(QuatAlgebra(2, 7).ij(),))
    assert psi_split(x).entries == psi_split(x, conic).entries


def test_psi_frozen_identity():
    """Psi(<ij>) = <2><<(ij)^2>> over a split algebra."""
    for a, b in [(1, 1), (2, 7)]:
        A = QuatAlgebra(a, b)
        conic = conic_parametrize(A)
        img = psi_split(mixed(A, odd_entries=(A.ij(),)), conic)
        ij_sq = -a * b
        expected = psi_split(
            mixed(A, even=witt_class(
                qf([2, -2 * ij_sq]))), conic)
        assert kt_witt_equal(img, expected)


def test_psi_kernel():
    for a, b in [(1, 1), (2, 7)]:
        A = QuatAlgebra(a, b)
        conic = conic_parametrize(A)
        from quatwitt.invariants import n_q_mixed
        assert kt_witt_equal(psi_split(n_q_mixed(A), conic), ff_form([]))
        gen = kernel_generator(A)
        assert kt_witt_equal(psi_split(gen, conic), ff_form([]))


def test_psi_images_unramified():
    rng = random.Random(9)
    A = QuatAlgebra(1, 1)
    conic = conic_parametrize(A)
    for _ in range(15):
        c = [rng.randint(-4, 4) for _ in range(3)]
        if not any(c):
            continue
        z = A.pure(*(F(v) for v in c))
        if not z.is_invertible():
            continue
        img = psi_split(mixed(A, odd_entries=(z,)), conic)
        assert w0_membership(img, conic_w0_places(img, conic))


@pytest.mark.parametrize("ab", [(1, -1), (1, -4)])
def test_psi_images_unramified_when_a_plus_bt2_splits(ab):
    """-a/b is a square, so D = a + b t^2 is a product of two linear
    places; both go to the conic's points at infinity, so neither is a
    place of W0, and psi images are unramified at the rest."""
    A = QuatAlgebra(*ab)
    conic = conic_parametrize(A)
    assert [P.degree(f) for f in conic.D_entry.factors] == [1, 1]
    rng = random.Random(7)
    for k in range(40):
        odd = tuple(draw_pure(rng, A, 4) for _ in range(1 + k % 2))
        even = witt_class(qf([rng.choice([1, -1, 2, -3, 5])]))
        img = psi_split(mixed(A, even=even, odd_entries=odd), conic)
        places = conic_w0_places(img, conic)
        assert not {v.pi for v in places} & set(conic.D_entry.factors)
        assert w0_membership(img, places)


def test_psi_split_matches_closed_form_trace():
    """The linear form L = l1 X + l2 Y + l3 D of each odd slot, with l_k =
    Trd(z e_k), is the closed form (2a z1, 2b z2, -2ab z3)/d for z = (z1 i
    + z2 j + z3 ij)/d."""
    rng = random.Random(4)
    for a, b in [(1, 1), (2, 7), (5, -1), (F(1, 4), F(-5, 7))]:
        A = QuatAlgebra(a, b)
        conic = conic_parametrize(A)
        for k in range(15):
            c = [F(rng.randint(-5, 5), 1 + k % 3) for _ in range(3)]
            z = A.pure(*c)
            if not z.is_invertible():
                continue
            _, z1, z2, z3 = z.num
            l1, l2, l3 = (F(2 * a * z1, z.den), F(2 * b * z2, z.den),
                          F(-2 * a * b * z3, z.den))
            L = P.padd(P.padd(P.pscale(l1, conic.X), P.pscale(l2, conic.Y)),
                       P.pscale(l3, conic.D))
            ld = ff_entry_product(ff_entry(L), conic.D_entry)
            zsq = square_class(-z.nrd())
            img = psi_split(mixed(A, odd_entries=(z,)), conic)
            assert [(e.unit, e.factors) for e in img.entries] == [
                (-ld.unit, ld.factors),
                (sq_mul(ld.unit, zsq), ld.factors)]


def test_psi_split_multiplies_no_quaternions(monkeypatch):
    """Each odd slot's traces Trd(z e_k) are read from the integer table,
    with no quaternion product."""
    A = QuatAlgebra(F(1, 4), F(-5, 7))
    conic = conic_parametrize(A)
    x = mixed(A, even=witt_class(qf([3])),
              odd_entries=(A.pure(1, F(-2, 3), 5), A.ij()))
    want = psi_split(x, conic)
    products = []
    mul = Quaternion.__mul__
    monkeypatch.setattr(Quaternion, "__mul__",
                        lambda y, z: products.append(z) or mul(y, z))
    assert psi_split(x, conic) == want
    assert products == []


def test_w0_membership_defaults_to_the_support():
    """<t, t> has second residue <1, 1> at t, which is not 0 in W(Q); the
    default places are the finite places of the support, here t alone."""
    q = ff_form([T, T])
    assert not w0_membership(q)
    assert w0_membership(q) == w0_membership(q, [PLACE_T])
    assert w0_membership(ff_form([T, [0, -1]]))


def test_conic_parametrize_refuses_a_point_off_the_conic(monkeypatch):
    """The parametrization through a true zero always satisfies the
    conic, so no algebra reaches the check; a zero scan that hands back
    (1, 1, 1), no zero over (1, 1), stands in for a broken one.  The
    cached function is bypassed, so its cache keeps only verified
    parametrizations."""
    monkeypatch.setattr(funcfield, "pure_norm_zeros",
                        lambda A: iter([[(1, 1, 1)]]))
    with pytest.raises(VerificationFailed, match="does not satisfy"):
        conic_parametrize.__wrapped__(QuatAlgebra(1, 1))


def test_good_points_gives_up_past_10000(monkeypatch):
    """Only a support of more than 10000 factors vanishes at every integer
    0 .. 10000; a polynomial evaluation that always returns 0 stands in
    for one, and the search stops with a refusal instead of running on."""
    q = ff_form([T])
    assert good_points(q, 2) == [F(1), F(2)]
    monkeypatch.setattr(P, "peval", lambda f, c: F(0))
    with pytest.raises(NoGoodSpecializationPoint, match="below 10000"):
        good_points(q)
