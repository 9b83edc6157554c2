"""Property test for hyperbolicity certificates over integral and
non-integral division algebras (needs hypothesis).  The witness is checked
with quaternion arithmetic written out here, not the library's product."""

from fractions import Fraction
from math import gcd, isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt import fields, hermitian  # noqa: E402
from quatwitt.errors import (  # noqa: E402
    FactorizationLimitExceeded,
    NotDivision,
)
from quatwitt.fields import rational_sqrt, sq_mul, square_class  # noqa: E402
from quatwitt.hermitian import (  # noqa: E402
    AntiHermForm,
    cancel_hyperbolic_pairs,
    herm_screen,
    hyperbolic_pair,
    hyperbolicity_certificate,
    morita_transfer,
    rank_one_isometric,
    square_multiple,
)
from quatwitt.mixed import closed_form_diag, mixed  # noqa: E402
from quatwitt.quadforms import (  # noqa: E402
    EMPTY,
    QuadForm,
    is_isotropic,
    is_witt_zero,
    qf,
    witt_class,
)
from quatwitt.quaternions import (  # noqa: E402
    QuatAlgebra,
    _mul_coords,
    find_nilpotent,
    is_split,
    norm_form,
    nrd_class,
    nrd_ratio_root,
)

# certificates refuse split algebras (tests/test_hermitian.py)
ALGEBRAS = [(-1, -1), (-1, -3), (Fraction(-1, 2), -3),
            (Fraction(-2, 3), Fraction(-5, 7)), (-1, Fraction(-1, 4)),
            (Fraction(3, 2), Fraction(-7, 3))]

coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
pure = st.tuples(coord, coord, coord).filter(any)
square = st.builds(lambda n, d: Fraction(n, d) ** 2,
                   st.integers(1, 3), st.integers(1, 3))
settings = hypothesis.settings(max_examples=60, deadline=None)


def _mul(x, y, a, b):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def _pairing(x, y, entries, a, b):
    """h(x, y) = sum gamma(x_k) z_k y_k for the diagonal form <z_k>."""
    total = (0, 0, 0, 0)
    for xk, z, yk in zip(x, entries, y):
        conj = (xk[0], -xk[1], -xk[2], -xk[3])
        term = _mul(_mul(conj, z, a, b), yk, a, b)
        total = tuple(s + t for s, t in zip(total, term))
    return total


def _reference_rank_one_isometric(z1, z2):
    """The rank-1 decision with a commutator when z1 + z2 / c' = 0: then
    r = z1 u - u z1 for the first u of (i, j, ij) outside Q(z1), which
    anticommutes with z1, and p = s r exists iff <1, n1> represents
    c' / Nrd(r), as in the other case."""
    n1 = z1.nrd()
    c = rational_sqrt(z2.nrd() / n1)
    if c is None:
        return False
    A = z1.algebra
    for root in (c, -c):
        r = z1 + z2.scale(1 / root)
        if r.is_zero():
            r = next(w for w in (z1 * u - u * z1
                                 for u in (A.i(), A.j(), A.ij()))
                     if not w.is_zero())
        if is_isotropic(qf([1, n1, -root / r.nrd()])):
            return True
    return False


def _peeling_rank_one_isometric(z1, z2):
    """The rank-1 decision reading the dimension of the kernel of
    <-a, -b, ab, -n1, -c'> off the W(Q) peel when z1 + z2 / c' = 0."""
    n1 = z1.nrd()
    c = rational_sqrt(z2.nrd() / n1)
    if c is None:
        return False
    for root in (c, -c):
        r = z1 + z2.scale(1 / root)
        if r.is_zero():
            diag = QuadForm(norm_form(z1.algebra).reps()[1:]
                            + (-square_class(n1), -square_class(root)))
            if witt_class(diag).dim == 1:
                return True
        elif is_isotropic(qf([1, n1, -root / r.nrd()])):
            return True
    return False


# the sandwich kernel is an identity of the multiplication table, so it
# holds over a split algebra too: (1/4, -3) splits, as 1/4 is a square
KERNEL_ALGEBRAS = ALGEBRAS + [(Fraction(5, 4), Fraction(-9, 2)),
                              (Fraction(1, 4), -3)]
big = st.integers(-10 ** 6, 10 ** 6)


@settings
@hypothesis.given(st.sampled_from(KERNEL_ALGEBRAS), st.tuples(big, big, big),
                  st.integers(1, 3),
                  st.sampled_from([hermitian._height_box,
                                   hermitian._normalized_box]))
def test_sandwich_row_equals_the_two_table_products(ab, z, bound, box):
    """The closed-form sandwich value of each p of the box is the product
    (gamma(p) z) p on the integer table, and pure."""
    k = QuatAlgebra(*ab).table
    z = (0,) + z
    row = list(hermitian._sandwich_row(z, box(bound), k))
    assert [p for p, _ in row] == list(box(bound))
    for p, val in row:
        conj = (p[0], -p[1], -p[2], -p[3])
        assert val == _mul_coords(_mul_coords(conj, z, k), p, k)
        assert val[0] == 0


def _second_entry(A, z1, c2, m, shape, k):
    """z2 of the given shape: independent of z1, the multiple m z1, the
    square multiple m^2 z1, or one of its near misses -m^2 z1, 2 m^2 z1
    and m^2 z1 with coordinate k moved by 1."""
    if shape == "independent":
        return A.pure(*c2)
    scale = {"multiple": m, "square": m * m, "minus square": -m * m,
             "twice square": 2 * m * m, "nudged square": m * m}[shape]
    z2 = z1.scale(scale)
    if shape == "nudged square":
        coords = list(z2.coords[1:])
        coords[k] += 1
        z2 = A.pure(*coords)
    return z2


SHAPES = ("independent", "multiple", "square", "minus square",
          "twice square", "nudged square")


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS), pure, pure,
                  coord.filter(bool), st.sampled_from(SHAPES),
                  st.integers(0, 2))
def test_rank_one_isometric_equals_the_commutator_reference(ab, c1, c2, m,
                                                            shape, k):
    """z2 is drawn independently of z1, as a rational multiple m z1, where
    one of z1 + z2 / c' is 0, as the square multiple m^2 z1, which the
    shortcut answers, or as one of its near misses -m^2 z1, 2 m^2 z1 and
    m^2 z1 with one coordinate changed, which it must leave to the
    norms."""
    A = QuatAlgebra(*ab)
    z1 = A.pure(*c1)
    z2 = _second_entry(A, z1, c2, m, shape, k)
    hypothesis.assume(z2.is_invertible())
    got = rank_one_isometric(z1, z2)
    hypothesis.event(shape + (", isometric" if got else ", not isometric"))
    assert got == _reference_rank_one_isometric(z1, z2)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS), pure,
                  st.builds(Fraction, st.integers(-30, 30).filter(bool),
                            st.integers(1, 30)))
def test_rank_one_isometric_on_multiples_equals_the_peeling_reference(
        ab, c, m):
    """z2 = m z1 makes z1 + z2 / c' = 0 for c' = -m: the kernel's
    dimension read from the local invariants decides as the peel did."""
    A = QuatAlgebra(*ab)
    z1 = A.pure(*c)
    got = rank_one_isometric(z1, z1.scale(m))
    hypothesis.event("isometric" if got else "not isometric")
    assert got == _peeling_rank_one_isometric(z1, z1.scale(m))


# the division algebras of KERNEL_ALGEBRAS: (5/4, -9/2) ramifies at 2 and 5
DIVISION_ALGEBRAS = ALGEBRAS + [(Fraction(5, 4), Fraction(-9, 2))]
wide = st.builds(Fraction, st.integers(-100, 100), st.integers(1, 9))
wide_pure = st.tuples(wide, wide, wide).filter(any)
ratio = st.builds(Fraction, st.integers(-30, 30).filter(bool),
                  st.integers(1, 30))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.sampled_from(DIVISION_ALGEBRAS), wide_pure, ratio)
def test_square_multiples_are_isometric(ab, c, lam):
    """<z> ~ <lambda^2 z> for every rational lambda (p = lambda), as the
    reference decides it through the norms."""
    A = QuatAlgebra(*ab)
    z = A.pure(*c)
    z2 = z.scale(lam * lam)
    assert rank_one_isometric(z, z2)
    assert _reference_rank_one_isometric(z, z2)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.sampled_from(DIVISION_ALGEBRAS),
                  st.tuples(wide, wide, wide, wide).filter(any),
                  st.tuples(wide, wide, wide, wide).filter(any),
                  st.booleans())
def test_integer_norm_helpers_equal_the_fraction_route(ab, c1, c2, sandwich):
    """nrd_class(x) is square_class(x.nrd()), and factors the same numbers
    in the same order; nrd_ratio_root(x, y) is rational_sqrt(y.nrd() /
    x.nrd()).  Half the draws take y = gamma(q) x q, whose norm ratio
    Nrd(q)^2 is a square."""
    A = QuatAlgebra(*ab)
    x = A.element(*c1)
    q = A.element(*c2)
    y = q.conj() * x * q if sandwich else q
    factored = []
    factorize = fields.factorize

    def spy(n):
        factored.append(n)
        return factorize(n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "factorize", spy)
        got = nrd_class(x)
        ours = factored[:]
        factored.clear()
        assert got == square_class(x.nrd())
    assert ours == factored
    got = nrd_ratio_root(x, y)
    hypothesis.event("square ratio" if got is not None else "no root")
    assert got == rational_sqrt(y.nrd() / x.nrd())


def _reference_screen(h):
    """`herm_screen` over a division algebra as the product of the square
    classes of the Fraction norms."""
    if h.rank % 2:
        return "distinct"
    disc = 1
    for z in h.diag:
        disc = sq_mul(disc, square_class(z.nrd()))
    return None if disc == 1 else "distinct"


@st.composite
def screen_forms(draw):
    """Forms of rank 2 to 6 over a division algebra, with denominators.
    Besides independent entries they hold partners +-gamma(q) z q and
    +-lambda^2 z of earlier entries, whose norms are Nrd(z) times a
    square, so that square discriminants are frequent."""
    A = QuatAlgebra(*draw(st.sampled_from(DIVISION_ALGEBRAS)))
    entries = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["independent", "sandwich", "square"]))
        if kind == "independent" or not entries:
            z = A.pure(*draw(wide_pure))
        elif kind == "sandwich":
            q = A.element(*draw(st.tuples(coord, coord, coord, coord)
                                .filter(any)))
            z = q.conj() * draw(st.sampled_from(entries)) * q
        else:
            lam = draw(ratio)
            z = draw(st.sampled_from(entries)).scale(lam * lam)
        entries.append(z if draw(st.booleans()) else -z)
    return AntiHermForm(tuple(entries), A)


_KERNEL_DIVISION = QuatAlgebra(Fraction(5, 4), Fraction(-9, 2))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(screen_forms())
# Nrd(-2j) = 18 = -Nrd(-j - 2ij): a product of norms that is minus a square
@hypothesis.example(AntiHermForm((_KERNEL_DIVISION.pure(0, -2, 0),
                                  _KERNEL_DIVISION.pure(0, -1, -2)),
                                 _KERNEL_DIVISION))
def test_integer_screen_equals_the_square_class_reference(h):
    """herm_screen decides square discriminants on integer numerators;
    it answers as the product of square classes wherever that answers."""
    try:
        want = _reference_screen(h)
    except FactorizationLimitExceeded:
        hypothesis.reject()
    hypothesis.event(f"rank {h.rank}: {want}")
    assert herm_screen(h) == want


def _reference_cancel(h):
    """`cancel_hyperbolic_pairs` over the reference rank-1 test."""
    left = []
    for z in h.diag:
        k = next((k for k, w in enumerate(left)
                  if _reference_rank_one_isometric(z, -w)), None)
        if k is None:
            left.append(z)
        else:
            del left[k]
    return tuple(left)


@st.composite
def cancel_forms(draw):
    """Shuffled entries from one to three pure z, each with up to two
    partners: -lambda^2 z and -gamma(q) z q, which cancel z, and lambda^2 z
    and independent entries, which need not."""
    A = QuatAlgebra(*draw(st.sampled_from(DIVISION_ALGEBRAS)))
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        z = A.pure(*draw(pure))
        entries.append(z)
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["-square", "square", "-sandwich",
                                         "independent"]))
            if kind == "-sandwich":
                q = A.element(*draw(st.tuples(coord, coord, coord, coord)
                                    .filter(any)))
                entries.append(-(q.conj() * z * q))
            elif kind == "independent":
                entries.append(A.pure(*draw(pure)))
            else:
                lam = draw(ratio)
                entries.append(z.scale(lam * lam if kind == "square"
                                       else -lam * lam))
    return AntiHermForm(tuple(draw(st.permutations(entries))), A)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(cancel_forms())
def test_cancel_hyperbolic_pairs_equals_the_reference_loop(h):
    """The same entries are left, in the same order, as by the reference
    rank-1 test and by the library's test on the negated entry; the
    leftover, built without checks, passes them."""
    left = cancel_hyperbolic_pairs(h)
    hypothesis.event(f"{h.rank} -> {left.rank}")
    assert left.diag == _reference_cancel(h)
    assert left == _negating_cancel(h, rank_one_isometric)
    assert AntiHermForm(left.diag, h.algebra) == left


def _transfer_everything_screen(h):
    """`herm_screen` over a split algebra without the square-multiple
    cancellation: the whole form is transferred along `find_nilpotent`."""
    q = morita_transfer(h, find_nilpotent(h.algebra))
    return "equal" if is_witt_zero(q) else "distinct"


SPLIT_ALGEBRAS = [(1, 1), (2, 7), (5, -1)]


@st.composite
def split_forms(draw):
    """Shuffled entries over a split algebra from one to three pure
    invertible z, each with up to two partners: -lambda^2 z, which cancels
    z, and lambda^2 z, -c z (c = 2..7), gamma(q) z q and independent
    entries, which need not; lambda is negative or fractional as often as
    not."""
    A = QuatAlgebra(*draw(st.sampled_from(SPLIT_ALGEBRAS)))
    invertible = pure.map(lambda c: A.pure(*c)).filter(
        lambda z: z.is_invertible())
    entries = []
    for _ in range(draw(st.integers(1, 3))):
        z = draw(invertible)
        entries.append(z)
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["-square", "-square", "square",
                                         "-multiple", "sandwich",
                                         "independent"]))
            if kind == "-multiple":
                entries.append(z.scale(-draw(st.integers(2, 7))))
            elif kind == "sandwich":
                q = A.element(*draw(st.tuples(coord, coord, coord, coord)))
                hypothesis.assume(q.is_invertible())
                entries.append(q.conj() * z * q)
            elif kind == "independent":
                entries.append(draw(invertible))
            else:
                lam = draw(ratio)
                entries.append(z.scale(lam * lam if kind == "square"
                                       else -lam * lam))
    return AntiHermForm(tuple(draw(st.permutations(entries))), A)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(split_forms())
def test_split_screen_equals_the_whole_form_transfer(h):
    """Cancelling square-multiple pairs before the transfer changes no
    verdict of the split screen."""
    want = _transfer_everything_screen(h)
    hypothesis.event(f"rank {h.rank}: {want}")
    assert herm_screen(h) == want


# ---------------------------------------------------------------------------
# pair tests that take the sign, and forms that carry their checks over


def _negating_cancel(h, same):
    """The leftover of h when each pair test builds -w and asks same(z, -w):
    the cancellation as it was before the pair tests took the sign."""
    left = []
    for z in h.diag:
        k = next((k for k, w in enumerate(left) if same(z, -w)), None)
        if k is None:
            left.append(z)
        else:
            del left[k]
    return AntiHermForm(tuple(left), h.algebra)


@st.composite
def entry_pairs(draw):
    """(kind, z, w) over a division or a split algebra: w is -z,
    -lambda^2 z or lambda^2 z (lambda negative or fractional as often as
    not), gamma(q) z q or its negative, or unrelated to z."""
    A = QuatAlgebra(*draw(st.sampled_from(ALGEBRAS + SPLIT_ALGEBRAS)))
    invertible = pure.map(lambda c: A.pure(*c)).filter(
        lambda z: z.is_invertible())
    z = draw(invertible)
    kind = draw(st.sampled_from(["negated", "-square", "square", "sandwich",
                                 "-sandwich", "unrelated"]))
    if kind == "negated":
        w = -z
    elif kind in ("-square", "square"):
        lam = draw(ratio)
        w = z.scale(lam * lam if kind == "square" else -lam * lam)
    elif kind == "unrelated":
        w = draw(invertible)
    else:
        q = A.element(*draw(st.tuples(coord, coord, coord, coord)))
        hypothesis.assume(q.is_invertible())
        w = q.conj() * z * q
        w = w if kind == "sandwich" else -w
    return kind, z, w


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(entry_pairs())
def test_pair_tests_with_the_sign_equal_the_tests_on_the_negated_entry(
        pair):
    """`hyperbolic_pair`(z, w) is the Fraction-route reference on z, -w
    over a division algebra, and refuses a split one, where r = z1 + z2 / c
    may be a zero divisor.  `square_multiple` holds over any algebra."""
    kind, z, w = pair
    assert square_multiple(z, w, -1) == square_multiple(z, -w)
    if is_split(z.algebra):
        hypothesis.event(f"{kind}: split")
        with pytest.raises(NotDivision):
            hyperbolic_pair(z, w)
        return
    got = hyperbolic_pair(z, w)
    hypothesis.event(f"{kind}: {got}")
    assert got == _peeling_rank_one_isometric(z, -w)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(split_forms())
def test_split_screen_cancels_as_the_negating_loop(h):
    """The leftover `herm_screen` transfers over a split algebra has the
    entries, in order, that cancelling with square_multiple(z, -w) leaves,
    and passes the checks it was not put through."""
    transferred = []

    def spy(left, z0):
        transferred.append(left)
        return morita_transfer(left, z0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermitian, "morita_transfer", spy)
        verdict = herm_screen(h)
    want = _negating_cancel(h, square_multiple)
    hypothesis.event(f"{h.rank} -> {want.rank}")
    if not want.diag:
        assert verdict == "equal" and transferred == []
    else:
        assert transferred == [want]
        assert AntiHermForm(want.diag, h.algebra) == transferred[0]


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS + SPLIT_ALGEBRAS), st.data())
def test_forms_that_carry_the_checks_over_pass_them(ab, data):
    """neg, perp and the odd part of a mixed product build their forms
    without checking the entries; checking them finds nothing wrong."""
    A = QuatAlgebra(*ab)
    invertible = pure.map(lambda c: A.pure(*c)).filter(
        lambda z: z.is_invertible())
    h1, h2 = (AntiHermForm(tuple(data.draw(st.lists(invertible, max_size=3))),
                           A) for _ in range(2))
    even = st.lists(st.integers(-30, 30).filter(bool), max_size=2).map(
        lambda vs: witt_class(qf(vs)))
    x = mixed(A, data.draw(even), h1.diag)
    y = mixed(A, data.draw(even), h2.diag[:1])
    for f in (h1.neg(), h1.perp(h2), h1.perp(h2.neg()), (x * y).odd):
        assert AntiHermForm(f.diag, A) == f


@st.composite
def forms(draw):
    """(algebra, entries, bound): <z, -c^2 z> or <z1, z2, -c^2 z2, -z1>,
    hyperbolic by construction, or random entries of rank 2 or 4."""
    a, b = draw(st.sampled_from(ALGEBRAS))
    shape = draw(st.sampled_from(["pair", "double", "random2", "random4"]))
    z1, z2 = draw(pure), draw(pure)
    if shape == "pair":
        c = draw(square)
        entries, bound = [z1, tuple(-c * v for v in z1)], 2
    elif shape == "double":
        c = draw(square)
        entries = [z1, z2, tuple(-c * v for v in z2), tuple(-v for v in z1)]
        bound = 2
    elif shape == "random2":
        entries, bound = [z1, z2], 2
    else:
        entries, bound = [z1, z2, draw(pure), draw(pure)], 1
    A = QuatAlgebra(a, b)
    quats = [A.pure(*z) for z in entries]
    hypothesis.assume(all(z.is_invertible() for z in quats))
    return A, [(0,) + z for z in entries], quats, bound


@settings
@hypothesis.given(forms())
def test_hyperbolic_witness_pairs_to_zero(data):
    A, entries, quats, bound = data
    cert = hyperbolicity_certificate(AntiHermForm(tuple(quats), A), bound)
    hypothesis.event(cert.status)
    if cert.status != "hyperbolic":
        return
    assert len(cert.witness) == len(entries) // 2
    vectors = [[tuple(Fraction(c) for c in q.coords) for q in v]
               for v in cert.witness]
    for x in vectors:
        assert any(any(q) for q in x)
        for y in vectors:
            assert not any(_pairing(x, y, entries, A.a, A.b))


@st.composite
def early_return_forms(draw):
    """(algebra, entries, bound): rank 2 at bounds 1-4, random or
    <z, -c^2 z>, random rank 4 at bound 1 (at bound 2 the hash searches
    take seconds per form), and at bounds 1-4 three rank-4 shapes:
    <z1, -z1, z2, z3>, which always splits a plane at height 1 and leaves
    a rank-2 remainder; shuffled <z1, z2, c^2 z1, -c^2 z2>, whose pair z1,
    c^2 z1 has a square norm ratio but need not be opposite; and n_Q <z>
    = <z, -a z, -b z, ab z>, whose slots all have square norm ratios and
    which the rank-1 test may or may not pair."""
    A = QuatAlgebra(*draw(st.sampled_from(ALGEBRAS)))
    shape = draw(st.sampled_from(["random2", "pair", "random4", "plane4",
                                  "twins4", "nq"]))
    bound = draw(st.integers(1, 1 if shape == "random4" else 4))
    z1, z2 = draw(pure), draw(pure)
    if shape == "random2":
        entries = [z1, z2]
    elif shape == "pair":
        c = draw(square)
        entries = [z1, tuple(-c * v for v in z1)]
    elif shape == "random4":
        entries = [z1, z2, draw(pure), draw(pure)]
    elif shape == "plane4":
        entries = [z1, tuple(-v for v in z1), z2, draw(pure)]
    elif shape == "twins4":
        c = draw(square)
        entries = draw(st.permutations([z1, z2, tuple(c * v for v in z1),
                                        tuple(-c * v for v in z2)]))
    else:
        entries = [tuple(m * v for v in z1)
                   for m in (1, -A.a, -A.b, A.a * A.b)]
    quats = [A.pure(*z) for z in entries]
    hypothesis.assume(all(z.is_invertible() for z in quats))
    return A, quats, bound


H = QuatAlgebra(-1, -1)
SEVEN = QuatAlgebra(-1, -7)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(early_return_forms())
# the norm ratio 2 is not a square: the rank-1 test pairs no slots
@hypothesis.example((H, [H.pure(1, 0, 0), H.pure(0, 1, 1)], 4))
# hyperbolic, but only the height-4 pair rung, which the gate opens, finds it
@hypothesis.example((SEVEN, [SEVEN.pure(2, 0, 0), SEVEN.pure(156, 0, -52)], 4))
def test_early_return_changes_no_result(data):
    """The pair rule, which runs the pair searches past height 1 only when
    the rank-1 test pairs two slots, gives the status and witness of the
    full search, which is the certificate with the rank-1 test always
    passing.  (The rule replaced an early return at rank 2.)"""
    A, quats, bound = data
    h = AntiHermForm(tuple(quats), A)
    refuted = []
    exact = hermitian._hyperbolic_pair

    def spy(x, y):
        out = exact(x, y)
        refuted.append(not out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermitian, "_hyperbolic_pair", spy)
        cert = hyperbolicity_certificate(h, bound)
        mp.setattr(hermitian, "_hyperbolic_pair", lambda x, y: True)
        reference = hyperbolicity_certificate(h, bound)
    assert cert == reference
    hypothesis.event("a pair ruled out" if any(refuted) else
                     "certified" if cert.status == "hyperbolic" else
                     cert.status)


# ---------------------------------------------------------------------------
# reference: the pair search without the norm gate or lazy tables, and the
# plane split that always projects and re-runs Gram-Schmidt


def _reference_pair_vector(h, bound, hits):
    """Every slot pair, every sandwich table built up front; (s, t, n_s,
    n_t) of each hit is appended to `hits`."""
    rows, by_dir = [], []
    tables = hermitian._sandwich_tables(h, hermitian._normalized_box(bound))
    for entries in tables:
        row, table = [], {}
        for p, val in entries:
            g = gcd(*val)
            d = tuple(c // g for c in val)
            row.append((p, d, g))
            table.setdefault(d, []).append((p, g))
        rows.append(row)
        by_dir.append(table)
    for s in range(h.rank):
        for t in range(s + 1, h.rank):
            for q, d, gq in rows[t]:
                for p, gp in by_dir[s].get(tuple(-c for c in d), ()):
                    root = isqrt(gp * gq)
                    if root * root != gp * gq:
                        continue
                    hits.append((s, t, h.diag[s].nrd(), h.diag[t].nrd()))
                    vec = [h.algebra.element(0, 0, 0, 0)] * h.rank
                    vec[s] = h.algebra.element(*p)
                    vec[t] = h.algebra.element(*q).scale(Fraction(root, gq))
                    return vec
    return None


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(DIVISION_ALGEBRAS), pure,
                  st.tuples(coord, coord, coord, coord).filter(any), square,
                  st.integers(1, 2), st.one_of(st.none(), pure))
def test_lazy_pair_search_finds_the_hit_of_the_full_tables(ab, c, qc, lam2,
                                                           bound, middle):
    """<z, -lambda^2 gamma(q) z q>, with another slot between the two when
    `middle` is drawn: the table of slot 0, drawn only as far as each
    lookup needs and kept from t = 1 to t = 2, gives the first hit of the
    tables built whole."""
    A = QuatAlgebra(*ab)
    z, q = A.pure(*c), A.element(*qc)
    entries = [z, -(q.conj() * z * q).scale(lam2)]
    if middle is not None:
        entries.insert(1, A.pure(*middle))
    h = AntiHermForm(tuple(entries), A)
    got = hermitian._isotropic_pair_vector(h, bound)
    hypothesis.event("hit" if got is not None else "no hit")
    assert got == _reference_pair_vector(h, bound, [])


def _reference_certificate(h, bound, hits):
    A = h.algebra
    if h.rank % 2:
        return hermitian.HyperbolicityResult("anisotropic-at-bound")
    zero = A.element(0, 0, 0, 0)
    basis = hermitian._identity(A, h.rank)
    diag = list(h.diag)
    witness = []

    def gram_eval(x, y):
        acc = zero
        for xk, z, yk in zip(x, h.diag, y):
            if not (xk.is_zero() or yk.is_zero()):
                acc = acc + xk.conj() * z * yk
        return acc

    def pair(sub, b):
        return _reference_pair_vector(sub, b, hits)

    hash_vector = hermitian._isotropic_hash_vector
    while diag:
        sub = AntiHermForm(tuple(diag), A)
        found = pair(sub, 1)
        if (found is None and sub.rank == 2
                and not hermitian.rank_one_isometric(diag[0], -diag[1])):
            return hermitian.HyperbolicityResult("anisotropic-at-bound")
        if found is None and bound >= 2:
            found = pair(sub, 2)
        if found is None:
            found = hash_vector(sub, 1, single_bound=min(bound, 4))
        if found is None and bound >= 4:
            found = pair(sub, 4)
        if found is None and bound not in (1, 2, 4):
            found = pair(sub, bound)
        if found is None and bound >= 2 and sub.rank <= 4:
            found = hash_vector(sub, 2, single_bound=2)
        if found is None:
            return hermitian.HyperbolicityResult("anisotropic-at-bound")
        m = len(diag)
        v = [zero] * h.rank
        for x, f in zip(basis, found):
            if not f.is_zero():
                v = [vk if xk.is_zero() else vk + xk * f
                     for vk, xk in zip(v, x)]
        witness.append(tuple(v))
        w = next(x for x in basis if not gram_eval(v, x).is_zero())
        beta = gram_eval(v, w)
        binv = hermitian._quat_inv(beta)
        hww = gram_eval(w, w)
        gamma_binv = hermitian._quat_inv(beta.conj())
        new_basis = []
        for x in basis:
            bcoef = binv * gram_eval(v, x)
            acoef = gamma_binv * (gram_eval(w, x) - hww * bcoef)
            new_basis.append(hermitian._sub_multiple(
                hermitian._sub_multiple(x, v, acoef), w, bcoef))
        basis, diag = hermitian._orthogonalize(gram_eval, new_basis, A)
        assert len(diag) == m - 2
    return hermitian.HyperbolicityResult("hyperbolic", tuple(witness))


@st.composite
def reference_forms(draw):
    """(algebra, entries, bound) over the division algebras at bounds 1-4:
    shuffled <z, -c^2 z> blocks of rank 2 or 4, the same beside <z, c^2 z>
    (a square norm ratio, hyperbolic or not, that may come first), n_Q <z>
    = <z, -a z, -b z, ab z>, or random entries (rank 4 only at bound 1: at
    bound 2 the hash searches take seconds per form)."""
    A = QuatAlgebra(*draw(st.sampled_from(ALGEBRAS)))
    shape = draw(st.sampled_from(["blocks2", "blocks4", "twins4", "nq",
                                  "random2", "random4"]))
    bound = draw(st.integers(1, 1 if shape == "random4" else 4))
    z1, z2 = draw(pure), draw(pure)
    if shape in ("blocks2", "blocks4", "twins4"):
        half = [z1] if shape == "blocks2" else [z1, z2]
        c = draw(square)
        sign = 1 if shape == "twins4" else -1
        entries = draw(st.permutations(
            half + [tuple(sign * c * v for v in z1)]
            + [tuple(-c * v for v in z) for z in half[1:]]))
    elif shape == "nq":
        entries = [tuple(m * v for v in z1)
                   for m in (1, -A.a, -A.b, A.a * A.b)]
    elif shape == "random2":
        entries = [z1, z2]
    else:
        entries = [z1, z2, draw(pure), draw(pure)]
    quats = [A.pure(*z) for z in entries]
    hypothesis.assume(all(z.is_invertible() for z in quats))
    return A, quats, bound


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(reference_forms())
def test_certificate_matches_the_reference_search(data):
    """The norm-gated lazy pair search and the two-slot split give the
    status and witness of the ungated search with the Gram-Schmidt split,
    and every hit of the ungated search has a square norm ratio."""
    A, quats, bound = data
    h = AntiHermForm(tuple(quats), A)
    hits = []
    reference = _reference_certificate(h, bound, hits)
    assert hyperbolicity_certificate(h, bound) == reference
    for s, t, ns, nt in hits:
        assert rational_sqrt(nt / ns) is not None, (s, t)
    hypothesis.event(reference.status)


# ---------------------------------------------------------------------------
# traces read from the integer table


# split, with a and b rational: (2/9, 7) ~ (2, 7), (-3/4, 3) ~ (-3, 3), and
# 1/4 is a square
RATIONAL_SPLIT = [(Fraction(2, 9), 7), (Fraction(-3, 4), 3),
                  (Fraction(1, 4), Fraction(-5, 7))]


def _reference_trace(x, y):
    """Trd(x y) as a Fraction, from the coordinates and the product written
    out above."""
    A = x.algebra
    return 2 * _mul(x.coords, y.coords, A.a, A.b)[0]


def _reference_closed_form_diag(z1, z2):
    """`closed_form_diag` with t = Trd(z1 z2) and the reduced norms read as
    Fractions by `square_class`."""
    t = _reference_trace(z1, z2)
    if not t:
        return EMPTY
    c = square_class(-t)
    n1, n2 = square_class(z1.nrd()), square_class(z2.nrd())
    vs = (1, n2, n1, sq_mul(n1, n2)) + tuple(
        -r for r in norm_form(z1.algebra).reps())
    return QuadForm(tuple(sq_mul(c, v) for v in vs))


def _reference_morita_transfer(h, z0):
    """<-T, T z^2> per slot, T = Trd(z z0) as a Fraction and the class of
    T z^2 = -T Nrd(z) factored whole; <1, -1> when T = 0."""
    entries = []
    for z in h.diag:
        t = _reference_trace(z, z0)
        entries += ([1, -1] if not t
                    else [-square_class(t), square_class(-t * z.nrd())])
    return QuadForm(tuple(entries))


def _trace_free(x, u):
    """x u - u x, whose trace against the pure x is 0."""
    return x * u - u * x


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.sampled_from(ALGEBRAS + SPLIT_ALGEBRAS + RATIONAL_SPLIT),
                  wide_pure, wide_pure, st.booleans())
def test_closed_form_diag_equals_the_fraction_route(ab, c1, c2, trace_free):
    A = QuatAlgebra(*ab)
    z1, z2 = A.pure(*c1), A.pure(*c2)
    if trace_free:
        z2 = _trace_free(z1, z2)
    hypothesis.assume(z1.is_invertible() and z2.is_invertible())
    want = _reference_closed_form_diag(z1, z2)
    hypothesis.event(f"{'split' if is_split(A) else 'division'}, "
                     f"t {'= 0' if not want.dim else '!= 0'}")
    assert closed_form_diag(z1, z2) == want


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.sampled_from(SPLIT_ALGEBRAS + RATIONAL_SPLIT),
                  st.lists(st.tuples(wide_pure, st.booleans()), min_size=1,
                           max_size=4), ratio)
def test_morita_transfer_equals_the_fraction_route(ab, drawn, lam):
    """Over split algebras, along a multiple of `find_nilpotent` with a
    denominator as often as not; some entries have T = 0."""
    A = QuatAlgebra(*ab)
    z0 = find_nilpotent(A).scale(lam)
    entries = []
    for c, trace_free in drawn:
        z = A.pure(*c)
        entries.append(_trace_free(z0, z) if trace_free else z)
    hypothesis.assume(all(z.is_invertible() for z in entries))
    h = AntiHermForm(tuple(entries), A)
    hypothesis.event(f"{sum(not _reference_trace(z, z0) for z in entries)}"
                     " slots of T = 0")
    assert morita_transfer(h, z0) == _reference_morita_transfer(h, z0)
