"""Property tests over Q(t) (need hypothesis).

psi_split transfers the odd part through the linear form Trd(z omega_bar)
over Q(t).  Here it is checked against the Gram-matrix transfer at rational
points c, along the nilpotent omega_bar(c) = x(c) i + y(c) j + ij, built
and squared with rational quaternion products.

Every source of an entry (a rational function, a list of known factors, a
parsed document) gives the same square class, and products of entries
match the entry of the product.

kt_witt_equal drops the pairs <e, -e> of the difference before any
residue.  It is checked against the uncancelled decision, kept here as the
reference: residues at every place of the whole difference's support.

Every pair cancellation over Q(t) runs through quadforms.cancel_pairs.
The routines it replaced are kept here as references: the Counter that
cancelled kt_witt_equal's difference, the pop loop of the degree-2
residues, and the set XOR of entry products.

Residues are taken at the place's own uniformizer: pi, and 1/t at
infinity.  Tensoring with <pi> (<t> at infinity) then swaps the first and
second residue exactly."""

import json
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt import funcfield  # noqa: E402
from quatwitt import polys as P  # noqa: E402
from quatwitt.errors import UnsupportedResidueField  # noqa: E402
from quatwitt.funcfield import (  # noqa: E402
    FFEntry,
    FunctionFieldForm,
    Place,
    _entry_residue,
    _quadratic_square,
    conic_parametrize,
    ff_class,
    ff_entry,
    ff_entry_product,
    ff_form,
    good_points,
    kt_witt_equal,
    psi_split,
    residue,
    residue2_vanishes,
)
from quatwitt.hermitian import morita_gram  # noqa: E402
from quatwitt.mixed import mixed  # noqa: E402
from quatwitt.fields import sq_mul, square_class  # noqa: E402
from quatwitt.quadforms import (  # noqa: E402
    GroupRingElem,
    cancel_pairs,
    diagonalize,
    is_witt_zero,
    qf,
    witt_class,
    witt_equal,
)
from quatwitt.polys import RationalFunction  # noqa: E402
from quatwitt.quaternions import QuatAlgebra  # noqa: E402
from quatwitt.serialize import parse_input  # noqa: E402

from polytools import ppow  # noqa: E402

ALGEBRAS = [(1, 1), (2, 7), (5, -1)]

coord = st.integers(-5, 5)
pure = st.tuples(coord, coord, coord).filter(any)
scalar = st.integers(-30, 30).filter(bool)


@st.composite
def classes(draw):
    a, b = draw(st.sampled_from(ALGEBRAS))
    A = QuatAlgebra(a, b)
    odd = [A.pure(*c) for c in draw(st.lists(pure, min_size=1, max_size=3))]
    hypothesis.assume(all(z.is_invertible() for z in odd))
    even = witt_class(qf(draw(st.lists(scalar, max_size=2))))
    return A, mixed(A, even=even, odd_entries=tuple(odd))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(classes())
def test_psi_specializes_to_gram_transfer(data):
    A, x = data
    conic = conic_parametrize(A)
    img = psi_split(x, conic)
    for c in good_points(img, 2):
        w = A.pure(conic.x_t.evaluate(c), conic.y_t.evaluate(c), 1)
        assert (w * w).is_zero()
        want = x.even.anis
        for z in x.odd.diag:
            gram = morita_gram(z, w)
            want = want.perp(qf([1, -1]) if gram is None
                             else diagonalize(gram))
        assert witt_equal(img.specialize(c), want)


# monic irreducibles; at most two nonlinear ones per example keep every
# squarefree cofactor within the factorizer's reach (degree <= 4)
LINEAR = [P.poly([0, 1]), P.poly([-1, 1]), P.poly([2, 1]),
          P.poly([Fraction(-1, 3), 1])]
NONLINEAR = [P.poly([1, 0, 1]), P.poly([3, 0, 1]), P.poly([-2, 0, 1]),
             P.poly([1, 1, 1])]
rational = st.builds(Fraction, st.integers(-60, 60).filter(bool),
                     st.integers(1, 60))


@st.composite
def factor_pools(draw):
    return LINEAR + draw(st.lists(st.sampled_from(NONLINEAR), unique=True,
                                  max_size=2))


@st.composite
def elements(draw, pool):
    """(unit, [(f, e), ...]) with exponents in -3..3; negative exponents
    go to the denominator."""
    return draw(rational), [(f, draw(st.integers(-3, 3))) for f in pool]


def _value(unit, factors):
    num, den = P.constant(unit), P.ONE
    for f, e in factors:
        if e > 0:
            num = P.pmul(num, ppow(f, e))
        elif e < 0:
            den = P.pmul(den, ppow(f, -e))
    return RationalFunction(num, den)


def _scaled(unit, factors, scales):
    """unit * prod f^|e| with each factor written as scale * f, which is
    no longer monic: the unit absorbs the scales' powers."""
    pairs = []
    for (f, e), c in zip(factors, scales):
        if e:
            unit /= c ** abs(e)
            pairs.append((tuple(c * x for x in f), abs(e)))
    return unit, pairs


def _document(unit, pairs):
    return {"entries": [{"unit": str(unit), "factors": [
        {"poly": [str(x) for x in f], "exp": e, "irreducible": True}
        for f, e in pairs]}]}


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_entry_sources_agree(data):
    pool = data.draw(factor_pools())
    unit, factors = data.draw(elements(pool))
    entry = ff_entry(_value(unit, factors))
    assert entry == ff_class(unit, factors)
    scales = data.draw(st.lists(rational, min_size=len(factors),
                                max_size=len(factors)))
    scaled_unit, pairs = _scaled(unit, factors, scales)
    assert ff_class(scaled_unit, pairs) == entry
    assert parse_input(json.dumps(_document(scaled_unit, pairs))).entries \
        == (entry,)
    assert entry.factors == tuple(sorted(set(entry.factors)))
    assert entry.unit == square_class(unit)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_entry_product_is_entry_of_product(data):
    pool = data.draw(factor_pools())
    x1 = _value(*data.draw(elements(pool)))
    x2 = _value(*data.draw(elements(pool)))
    x12 = RationalFunction(P.pmul(x1.num, x2.num), P.pmul(x1.den, x2.den))
    assert ff_entry_product(ff_entry(x1), ff_entry(x2)) == ff_entry(x12)


def _reference_kt_witt_equal(q1, q2):
    """kt_witt_equal without cancellation: residues at every place of the
    whole difference's support, then one specialization."""
    diff = q1.perp(q2.neg())
    if diff.dim % 2:
        return False
    for pi in diff.support():
        if not residue2_vanishes(diff, Place("poly", pi=pi)):
            return False
    if diff.dim == 0:
        return True
    c = good_points(diff)[0]
    return is_witt_zero(diff.specialize(c))


def _verdict(decide, q1, q2):
    try:
        return decide(q1, q2)
    except UnsupportedResidueField:
        return "refused"


# the splitting suite's irreducibles; pads also carry t^3 - 2, whose
# residue field has degree 3
SUITE_IRREDUCIBLES = [P.poly([0, 1]), P.poly([-1, 1]), P.poly([2, 1]),
                      P.poly([1, 0, 1]), P.poly([-2, 0, 1])]
CUBIC = P.poly([-2, 0, 0, 1])


@st.composite
def ff_entries(draw, pool=tuple(SUITE_IRREDUCIBLES)):
    unit = draw(st.integers(-10, 10).filter(bool))
    fs = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    return ff_class(unit, [(f, 1) for f in fs])


@st.composite
def rewritten(draw, q):
    """q shuffled, each entry times a square (a rational square and the
    square of an irreducible), with pairs <e, -e> inserted anywhere."""
    out = []
    for e in q.entries:
        r = draw(st.integers(1, 6))
        g = draw(st.sampled_from(SUITE_IRREDUCIBLES))
        out.append(ff_class(e.unit * r * r,
                            [(f, 1) for f in e.factors] + [(g, 2)]))
    for e in draw(st.lists(ff_entries(tuple(SUITE_IRREDUCIBLES) + (CUBIC,)),
                           max_size=3)):
        out += [e, FFEntry(-e.unit, e.factors)]
    return FunctionFieldForm(tuple(draw(st.permutations(out))))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data())
def test_pads_shuffles_and_square_rescalings_are_equal(data):
    q = FunctionFieldForm(tuple(data.draw(st.lists(ff_entries(),
                                                   max_size=4))))
    assert kt_witt_equal(q, data.draw(rewritten(q))) is True


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.data())
def test_cancellation_keeps_every_decided_verdict(data):
    q1 = FunctionFieldForm(tuple(data.draw(st.lists(ff_entries(),
                                                    min_size=1, max_size=4))))
    q2 = data.draw(rewritten(q1))
    # drop some entries or add some, so that verdicts of both kinds and
    # refusals at degree-2 places occur
    keep = data.draw(st.one_of(st.just(q2.dim), st.integers(0, q2.dim)))
    extra = data.draw(st.lists(ff_entries(), max_size=2))
    q2 = FunctionFieldForm(q2.entries[:keep] + tuple(extra))
    want = _verdict(_reference_kt_witt_equal, q1, q2)
    got = _verdict(kt_witt_equal, q1, q2)
    hypothesis.event(f"reference {want}, cancelled {got}")
    if want != "refused":
        assert got == want
    # the new decision refuses only where the reference does
    if got == "refused":
        assert want == "refused"


def _reference_cancel_pairs(q):
    """The Counter cancellation of kt_witt_equal's difference: entries
    grouped by their factors, and for each unit u > 0, min(n(u), n(-u))
    pairs of u and -u dropped."""
    units = {}
    for e in q.entries:
        units.setdefault(e.factors, []).append(e.unit)
    left = []
    for factors, us in units.items():
        count = Counter(us)
        for u in list(count):
            if u > 0:
                m = min(count[u], count[-u])
                count[u] -= m
                count[-u] -= m
        left += [FFEntry(u, factors) for u in count.elements()]
    return FunctionFieldForm(tuple(left))


def _reference_residue2_vanishes(q, v):
    """residue2_vanishes with the pop loop at degree-2 places: the last
    class left takes the first partner left, and the loop stops at the
    first class with none."""
    if v.kind == "infinite" or P.degree(v.pi) != 2:
        return residue2_vanishes(q, v)
    pi = v.pi
    red = {}
    classes = [_entry_residue(e, pi, red) for e in q.entries
               if pi in e.factors]
    if len(classes) % 2:
        return False
    pool = list(classes)
    while pool:
        z = pool.pop()
        k = next((k for k, w in enumerate(pool) if _quadratic_square(
            pi, P.pmod(P.pmul(P.pneg(z), w), pi))), None)
        if k is None:
            break
        del pool[k]
    else:
        return True
    disc = P.constant((-1) ** (len(classes) // 2))
    for z in classes:
        disc = P.pmod(P.pmul(disc, z), pi)
    if not _quadratic_square(pi, disc):
        return False
    raise UnsupportedResidueField("does not cancel in pairs")


def _reference_cancelled_kt_witt_equal(q1, q2):
    """kt_witt_equal through the two references above."""
    if (q1.dim + q2.dim) % 2:
        return False
    diff = _reference_cancel_pairs(q1.perp(q2.neg()))
    if not diff.entries:
        return True
    for pi in diff.support():
        if not _reference_residue2_vanishes(diff, Place("poly", pi=pi)):
            return False
    c = good_points(diff)[0]
    return is_witt_zero(diff.specialize(c))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.data())
def test_cancelled_difference_equals_the_counter_reference(data):
    """The same entries are left as a multiset, in another order, and
    every verdict and refusal is the reference's."""
    q1 = FunctionFieldForm(tuple(data.draw(st.lists(ff_entries(),
                                                    min_size=1, max_size=4))))
    q2 = data.draw(rewritten(q1))
    keep = data.draw(st.integers(0, q2.dim))
    extra = data.draw(st.lists(ff_entries(), max_size=2))
    q2 = FunctionFieldForm(q2.entries[:keep] + tuple(extra))
    left = []

    def spy(items, opposite):
        left.append(cancel_pairs(items, opposite))
        return left[-1]

    with mock.patch.object(funcfield, "cancel_pairs", spy):
        got = _verdict(kt_witt_equal, q1, q2)
    want = _verdict(_reference_cancelled_kt_witt_equal, q1, q2)
    hypothesis.event(f"{want}")
    assert got == want
    if (q1.dim + q2.dim) % 2 == 0:
        # the first call cancels the difference; later ones pair residues
        assert Counter(left[0]) == Counter(
            _reference_cancel_pairs(q1.perp(q2.neg())).entries)


QUADRATIC = [P.poly([1, 0, 1]), P.poly([3, 0, 1]), P.poly([-2, 0, 1])]


@st.composite
def degree2_residues(draw):
    """A place t^2 + 1, t^2 + 3 or t^2 - 2 and up to eight shuffled
    entries that it divides, each with a unit and up to two other factors
    and maybe its negative, so that the residue classes are rational or
    not, and pair off, fail or refuse."""
    pi = draw(st.sampled_from(QUADRATIC))
    others = [f for f in LINEAR[:3] + QUADRATIC if f != pi]
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        unit = draw(st.sampled_from([1, -1, 2, -2, 3, -3, 6, -6]))
        fs = draw(st.lists(st.sampled_from(others), unique=True,
                           max_size=2))
        e = ff_class(unit, [(f, 1) for f in [pi] + fs])
        entries += [e, FFEntry(-e.unit, e.factors)] if draw(st.booleans()) \
            else [e]
    return (Place("poly", pi=pi),
            FunctionFieldForm(tuple(draw(st.permutations(entries)))))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(degree2_residues())
def test_degree2_pairing_equals_the_pop_loop_reference(data):
    v, q = data
    want = _verdict(_reference_residue2_vanishes, q, v)
    hypothesis.event(f"{want}")
    assert _verdict(residue2_vanishes, q, v) == want


def test_degree2_repro_is_refused_as_by_the_pop_loop():
    """<t^2 + 3, t^2 + 3> against <2(t^2 + 3), 2(t^2 + 3)>: the residues
    <1, 1, -2, -2> at t^2 + 3 have a square discriminant and no pair."""
    q1 = parse_input('{"entries": [[3, 0, 1], [3, 0, 1]]}')
    q2 = parse_input('{"entries": [[6, 0, 2], [6, 0, 2]]}')
    diff = q1.perp(q2.neg())
    v = Place("poly", pi=P.poly([3, 0, 1]))
    assert _verdict(residue2_vanishes, diff, v) == "refused"
    assert _verdict(_reference_residue2_vanishes, diff, v) == "refused"
    assert _verdict(kt_witt_equal, q1, q2) == "refused"
    assert _verdict(_reference_cancelled_kt_witt_equal, q1, q2) == "refused"


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(ff_entries(), ff_entries())
def test_entry_product_equals_the_set_xor_reference(e1, e2):
    """A factor of both entries is a square in the product."""
    hypothesis.event(f"{len(set(e1.factors) & set(e2.factors))} shared")
    assert ff_entry_product(e1, e2) == FFEntry(
        sq_mul(e1.unit, e2.unit),
        tuple(sorted(set(e1.factors) ^ set(e2.factors))))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.data())
def test_times_the_uniformizer_swaps_the_residues(data):
    """Times <pi>, each entry's valuation at v changes parity and its
    residue class does not.  Over another uniformizer u pi the entries
    that move into the second residue would gain <u>, and so would fail
    this for u not a square."""
    pi = data.draw(st.sampled_from(LINEAR + [None]))
    v = Place("infinite") if pi is None else Place("poly", pi=pi)
    pool = tuple(SUITE_IRREDUCIBLES) + (() if pi is None else (pi,))
    q = FunctionFieldForm(tuple(data.draw(st.lists(ff_entries(pool),
                                                   max_size=4))))
    hypothesis.event(f"{sum(e.valuation(v) % 2 for e in q.entries)} odd")
    r = residue(q, v)
    # 1/t and t differ by a square
    uniformizer = P.poly([0, 1]) if pi is None else pi
    assert residue(q.tensor(ff_form([uniformizer])), v) \
        == GroupRingElem(r.odd, r.even)
