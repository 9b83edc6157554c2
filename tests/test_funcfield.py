"""Forms over Q(t): residues, the specialization oracle, generic splitting."""

import random
from fractions import Fraction as F

import pytest

from quatwitt import polys as P
from quatwitt.errors import UnsupportedResidueField, ZeroElement
from quatwitt.fields import Place, square_class
from quatwitt.funcfield import (
    conic_parametrize,
    conic_w0_places,
    ff_entry,
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
from quatwitt.quaternions import QuatAlgebra

T = [0, 1]
PLACE_T = Place("poly", pi=P.poly([F(0), F(1)]))
PLACE_T1 = Place("poly", pi=P.poly([F(-1), F(1)]))
INF = Place("infinite")


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


def test_residue_frozen_example():
    q = ff_form([T, 1])
    out = residue(q, PLACE_T)
    assert out.even == witt_class(qf([1]))    # from the unit entry <1>
    assert out.odd == witt_class(qf([1]))     # cofactor of <t>
    out_inf = residue(q, INF)
    # v_inf(t) = -1 odd: <t> contributes to the second residue
    assert out_inf.odd == witt_class(qf([1]))
    assert out_inf.even == witt_class(qf([1]))


def test_residue_additivity_and_uniformizer():
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
    alt_inf = RationalFunction(5, P.poly(T))  # 5/t, valuation 1 at infinity
    for _ in range(60):
        q1, q2 = rand_form(), rand_form()
        v = Place("poly", pi=pis[rng.randrange(3)])
        alt_v = RationalFunction(P.pscale(5, v.pi))
        for place, alt in ((v, alt_v), (inf, alt_inf)):
            assert (residue(q1.perp(q2), place)
                    == residue(q1, place) + residue(q2, place))
            # the first residue does not depend on the uniformizer; the
            # second is scaled by the unit alt / pi, of residue 5
            plain = residue(q1, place)
            moved = residue(q1, place, uniformizer=alt)
            assert plain.even == moved.even
            assert moved.odd == plain.odd.scale(square_class(5))
    # an alternate uniformizer at a finite place must have valuation 1
    for bad in ([0, 0, 1], [1]):
        with pytest.raises(ZeroElement):
            residue(ff_form([T]), PLACE_T,
                    uniformizer=RationalFunction(P.poly(bad)))


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
