"""Forms over Q(t): residues, Witt equality via the Milnor sequence, conic
parametrization of split algebras and the generic-splitting map.

A form entry is only ever needed up to squares, so it is stored as its
square class: a squarefree integer unit times distinct monic irreducible
polynomials, built by ff_class.  Witt equality over Q(t) first drops every
pair of entries <e, -e> from the difference, which is hyperbolic; then
second residues at the finite places of what is left plus one good
specialization decide it.  A residue at a place pi reduces only the entries
that pi divides, and those one factor at a time.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from . import polys as P
from .errors import (
    NoGoodSpecializationPoint,
    NotSplit,
    UnsupportedResidueField,
    VerificationFailed,
    ZeroElement,
    quoted,
)
from .fields import rational_sqrt, sq_mul, square_class
from .mixed import MixedClass, mixed
from .polys import RationalFunction
from .quadforms import (
    GroupRingElem,
    QuadForm,
    cancel_pairs,
    is_witt_zero,
    pfister,
    qf,
    witt_class,
)
from .quaternions import QuatAlgebra, is_split, nrd_class, pure_norm_zeros
from .record import Record


# ---------------------------------------------------------------------------
# places and factored entries


class Place(Record):
    """A place of Q(t): kind "poly", at the monic irreducible pi of Q[t],
    or "infinite", the 1/t-adic place.  A place of Q is a plain integer
    (see fields)."""

    __slots__ = ("kind", "pi")

    def __init__(self, kind: str, pi: P.Poly | None = None):
        if kind not in ("poly", "infinite") \
                or (pi is None) != (kind == "infinite"):
            raise ValueError(f"not a place of Q(t): {kind!r}, pi={pi!r}")
        self.kind = kind
        self.pi = pi

    def __repr__(self):
        return "v_inf" if self.kind == "infinite" else f"v_({self.pi})"


class FFEntry(Record):
    """The square class of a nonzero element of Q(t): a squarefree integer
    unit times the product of distinct monic irreducible factors, sorted.
    Two entries are equal exactly when their elements differ by a square."""

    __slots__ = ("unit", "factors")

    def __init__(self, unit: int, factors: tuple[P.Poly, ...]):
        self.unit = unit
        self.factors = factors

    def value_at(self, c: Fraction) -> Fraction:
        out = Fraction(self.unit)
        for f in self.factors:
            out *= P.peval(f, c)
        return out

    def valuation(self, v: Place) -> int:
        if v.kind == "infinite":
            return -sum(P.degree(f) for f in self.factors)
        return int(v.pi in self.factors)


def ff_class(unit, factors) -> FFEntry:
    """The entry of unit * prod(f^e) over (f, e) in factors, for a nonzero
    rational unit and irreducible f (repeats allowed): the monic factors of
    odd total exponent times the squarefree part of the unit and of the
    leading coefficients that are not 1.  The factors are few, so
    cancel_pairs pairs them off, comparing polynomials without hashing."""
    odd = []
    for f, e in factors:
        if e % 2:
            if f[-1] != 1:
                unit *= f[-1]
                f = P.monic(f)
            odd.append(f)
    return FFEntry(square_class(unit),
                   tuple(sorted(cancel_pairs(odd, operator.eq))))


def ff_entry(x) -> FFEntry:
    """The entry of a nonzero rational, polynomial coefficient list or
    RationalFunction."""
    if isinstance(x, (int, Fraction)):
        if not x:
            raise ZeroElement("zero entry in a function-field form")
        return ff_class(x, ())
    # num/den and num*den agree up to squares
    polys = ((x.num, x.den) if isinstance(x, RationalFunction)
             else (P.poly(x),))
    if not polys[0]:
        raise ZeroElement("zero entry in a function-field form")
    unit, factors = 1, []
    for p in polys:
        u, fs = P.factor_poly(p)
        unit, factors = unit * u, factors + fs
    return ff_class(unit, factors)


def ff_entry_product(e1: FFEntry, e2: FFEntry) -> FFEntry:
    """Product of two entries: no factorization is needed."""
    return FFEntry(sq_mul(e1.unit, e2.unit), tuple(sorted(
        cancel_pairs(e1.factors + e2.factors, operator.eq))))


class FunctionFieldForm(Record):
    """Diagonal form over Q(t) with factored entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[FFEntry, ...]):
        self.entries = entries

    @property
    def dim(self) -> int:
        return len(self.entries)

    def perp(self, other: "FunctionFieldForm") -> "FunctionFieldForm":
        return FunctionFieldForm(self.entries + other.entries)

    def neg(self) -> "FunctionFieldForm":
        return FunctionFieldForm(
            tuple(FFEntry(-e.unit, e.factors) for e in self.entries)
        )

    def tensor(self, other: "FunctionFieldForm") -> "FunctionFieldForm":
        out = []
        for e1 in self.entries:
            for e2 in other.entries:
                out.append(ff_entry_product(e1, e2))
        return FunctionFieldForm(tuple(out))

    def support(self) -> list[P.Poly]:
        return sorted({f for e in self.entries for f in e.factors})

    def specialize(self, c: Fraction) -> QuadForm:
        """The form of the entries' values at t = c, each distinct factor
        evaluated once."""
        c = Fraction(c)
        at = {f: P.peval(f, c) for f in self.support()}
        if not all(at.values()):
            raise NoGoodSpecializationPoint(f"t = {c} kills an entry")
        vals = []
        for e in self.entries:
            v = Fraction(e.unit)
            for f in e.factors:
                v *= at[f]
            vals.append(v)
        return qf(vals)

    def __repr__(self):
        parts = []
        for e in self.entries:
            s = str(e.unit)
            for f in e.factors:
                s += f"*({P.poly_str(f)})"
            parts.append(s)
        return "<" + ", ".join(parts) + ">_Q(t)"


def ff_form(values: Sequence) -> FunctionFieldForm:
    return FunctionFieldForm(tuple(ff_entry(v) for v in values))


# ---------------------------------------------------------------------------
# residues


def _entry_residue(e: FFEntry, pi: P.Poly, red: dict):
    """The class of e / pi^v at the place pi of degree <= 2, v the valuation
    of e at pi: the unit times the reduction of each other factor.  That is
    its value at the root of a linear pi (a Fraction), and its remainder mod
    a quadratic pi (a polynomial of degree <= 1).  red memoizes the factor
    reductions for one call."""
    linear = P.degree(pi) == 1
    out = Fraction(e.unit) if linear else P.constant(e.unit)
    for f in e.factors:
        if f == pi:
            continue
        if f not in red:
            red[f] = P.peval(f, -pi[0]) if linear else P.pmod(f, pi)
        out = out * red[f] if linear else P.pmod(P.pmul(out, red[f]), pi)
    return out


def residue(q: FunctionFieldForm, v: Place) -> GroupRingElem:
    """First and second residue at v, packed into W(Q)[Z/2Z].

    The uniformizer is the place's own: pi at a finite place, 1/t at
    infinity.  Another uniformizer u*pi, for u a unit at v with residue u0
    in Q, leaves the first residue as it is and scales the second by <u0>:
    for r = residue(q, v) it gives
    GroupRingElem(r.even, r.odd.scale(square_class(u0))).

    Only degree-1 finite places and the infinite place land in W(Q); at a
    degree-2 place use residue2_vanishes instead.
    """
    if v.kind == "poly" and P.degree(v.pi) != 1:
        raise UnsupportedResidueField(
            "group-ring residues only at residue field Q"
        )
    first, second = [], []
    red = {}
    for e in q.entries:
        # at infinity, entry * t^{-val} reduces to the unit times the
        # (monic, hence 1) leading coefficients
        cls = (Fraction(e.unit) if v.kind == "infinite"
               else _entry_residue(e, v.pi, red))
        (second if e.valuation(v) % 2 else first).append(cls)
    return GroupRingElem(witt_class(qf(first)), witt_class(qf(second)))


def _quadratic_square(pi: P.Poly, z: P.Poly) -> bool:
    """Whether a nonzero element s + t*theta of Q[t]/(pi) is a square,
    for pi = X^2 + beta X + c0 monic irreducible (theta a root).

    z = u^2 implies N(z) = N(u)^2 is a rational square w^2, and then
    (z + w)^2 = z (Tr(z) + 2w), so z is a square iff Tr(z) +- 2w is a
    nonzero rational square; rational z reduces to s or s*disc square.
    """
    s = z[0] if len(z) > 0 else Fraction(0)
    t = z[1] if len(z) > 1 else Fraction(0)
    beta, c0 = pi[1], pi[0]
    if t == 0:
        disc = beta * beta - 4 * c0
        return (rational_sqrt(s) is not None
                or rational_sqrt(s * disc) is not None)
    norm = s * s - beta * s * t + c0 * t * t
    w = rational_sqrt(norm)
    if w is None:
        return False
    trace = 2 * s - beta * t
    for sign in (1, -1):
        v = trace + 2 * sign * w
        if v > 0 and rational_sqrt(v) is not None:
            return True
    return False


def residue2_vanishes(q: FunctionFieldForm, v: Place) -> bool:
    """Whether the second residue at v vanishes.

    The second residue comes from the entries of odd valuation at v alone:
    at a finite place pi those that pi divides, each reduced factor by
    factor.  kt_witt_equal calls this only after dropping the pairs
    <e, -e> of its difference, so only the entries that did not cancel are
    reduced.

    At residue field Q this is a complete decision.  At a degree-2 residue
    field Q[t]/(pi) vanishing is certified when the classes cancel in pairs
    <z, w> with -zw a square (cancel_pairs, whose result does not depend on
    their order), and refuted by an odd count or a signed discriminant that
    is not a square; UnsupportedResidueField when neither settles it (only
    possible in dimension >= 4, as pairing is complete in dimension 2)."""
    if v.kind == "infinite":
        classes = [Fraction(e.unit) for e in q.entries
                   if e.valuation(v) % 2]
        return is_witt_zero(qf(classes))
    pi = v.pi
    if P.degree(pi) > 2:
        raise UnsupportedResidueField("only degree <= 2 residue fields")
    red = {}
    classes = [_entry_residue(e, pi, red) for e in q.entries
               if pi in e.factors]
    if P.degree(pi) == 1:
        return is_witt_zero(qf(classes))
    if len(classes) % 2:
        return False
    # <z, w> hyperbolic iff -z/w = -zw/w^2 is a square in the residue field
    if not cancel_pairs(classes, lambda z, w: _quadratic_square(
            pi, P.pmod(P.pmul(P.pneg(z), w), pi))):
        return True
    disc = P.constant((-1) ** (len(classes) // 2))
    for z in classes:
        disc = P.pmod(P.pmul(disc, z), pi)
    if not _quadratic_square(pi, disc):
        return False
    raise UnsupportedResidueField(
        "second residue at a degree-2 place has a square discriminant but"
        " does not cancel in pairs"
    )


# ---------------------------------------------------------------------------
# Witt equality over Q(t)


def good_points(q: FunctionFieldForm, how_many: int = 1) -> list[Fraction]:
    """The first how_many integers c >= 0 where no entry of q vanishes,
    that is where no factor of its support does."""
    support = q.support()
    out = []
    c = 0
    while len(out) < how_many:
        if c > 10000:
            raise NoGoodSpecializationPoint("no good integer point below 10000")
        cc = Fraction(c)
        if all(P.peval(f, cc) for f in support):
            out.append(cc)
        c += 1
    return out


def kt_witt_equal(q1: FunctionFieldForm, q2: FunctionFieldForm) -> bool:
    """Witt equality in W(Q(t)), by the Milnor exact sequence (Milnor 1970;
    Lam, Introduction to Quadratic Forms over Fields, Ch. IX): all second
    residues of the difference vanish and its constant part specializes to
    0 in W(Q) at one good point.

    The order is parity, then cancellation, then residues.  An odd
    difference is "distinct" at once.  Then every pair <e, -e> is dropped
    (cancel_pairs: the same entries are left in any order); an empty
    leftover is "equal", and only the leftover's support gets residues and
    a specialization.

    Dropping the pairs changes no verdict.  At a place pi a pair is either
    prime to pi (no second residue) or gives two residue classes z and -z.
    At residue field Q, <z, -z> is hyperbolic.  At a degree-2 place the
    pairing test matches a class C against -C, so by cancel_pairs the pair
    changes neither whether the classes cancel, nor the count's parity,
    nor the signed discriminant (-1 * z * -z is a square).  So the second
    residue vanishes, fails, or is refused at every place of the leftover
    exactly as it did for the whole difference, and the specialization,
    taken once every residue vanishes, is the same class of W(Q) at any good
    point.  The one change is that a place whose factor cancels out of the
    support is no longer visited: where that place has degree >= 3, a
    refusal (UnsupportedResidueField) becomes a verdict."""
    if (q1.dim + q2.dim) % 2:
        return False
    diff = FunctionFieldForm(tuple(cancel_pairs(
        q1.perp(q2.neg()).entries,
        lambda e, f: e.unit == -f.unit and e.factors == f.factors)))
    if not diff.entries:
        return True
    for pi in diff.support():
        if not residue2_vanishes(diff, Place("poly", pi=pi)):
            return False
    c = good_points(diff)[0]
    return is_witt_zero(diff.specialize(c))


def w0_membership(q: FunctionFieldForm,
                  places: Sequence[Place] | None = None) -> bool:
    """Unramifiedness: second residues vanish at the given places, or at
    every finite place of the support when none are supplied."""
    if places is None:
        places = [Place("poly", pi=pi) for pi in q.support()]
    return all(residue2_vanishes(q, v) for v in places)


def conic_w0_places(q: FunctionFieldForm, conic: "ConicData") -> list[Place]:
    """Places of Q(t) corresponding to affine points of the parametrized
    conic that meet the support of q: the parametrization sends the zeros
    of D = a + b t^2 to the conic's points at infinity (excluded, every
    factor of D: two linear ones when -a/b is a square), while the
    t-infinite place is an affine conic point (included)."""
    poles = conic.D_entry.factors
    out = [Place("poly", pi=pi) for pi in q.support() if pi not in poles]
    out.append(Place("infinite"))
    return out


# ---------------------------------------------------------------------------
# conic parametrization and the generic-splitting map


class ConicData(Record):
    """Rational parametrization x = X/D, y = Y/D of the conic
    -a x^2 - b y^2 + ab = 0 over D = a + b t^2, through the rational
    point `point`.  D_entry is the square class of D, shared by every
    psi_split image; x_t and y_t are X/D and Y/D in lowest terms."""

    __slots__ = ("point", "X", "Y", "D", "D_entry", "x_t", "y_t")

    def __init__(self, point: tuple[Fraction, Fraction], X: P.Poly,
                 Y: P.Poly, D: P.Poly, D_entry: FFEntry,
                 x_t: RationalFunction, y_t: RationalFunction):
        self.point = point
        self.X = X
        self.Y = Y
        self.D = D
        self.D_entry = D_entry
        self.x_t = x_t
        self.y_t = y_t


@lru_cache(maxsize=2**8)
def conic_parametrize(A: QuatAlgebra) -> ConicData:
    """The verified conic parametrization, cached per algebra: the line of
    slope t through the point (x0, y0) meets the conic again at
    (X/D, Y/D), for (x0, y0) = (c1/c3, c2/c3) with (c3, c1, c2) the least
    zero with c3 >= 1 in the first shell of `pure_norm_zeros` with one."""
    if not is_split(A):
        raise NotSplit(f"{quoted(A)} is a division algebra; its conic has no"
                       " rational point")
    a, b = A.a, A.b
    for shell in pure_norm_zeros(A):
        points = [(c3, c1, c2) for c1, c2, c3 in shell if c3 >= 1]
        if points:
            c3, c1, c2 = min(points)
            break
    x0, y0 = Fraction(c1, c3), Fraction(c2, c3)
    X = P.poly([-a * x0, -2 * b * y0, b * x0])
    Y = P.poly([a * y0, -2 * a * x0, -b * y0])
    D = P.poly([a, 0, b])
    check = P.padd(P.padd(P.pscale(-a, P.pmul(X, X)),
                          P.pscale(-b, P.pmul(Y, Y))),
                   P.pscale(a * b, P.pmul(D, D)))
    if check:
        raise VerificationFailed("parametrization does not satisfy the conic")
    return ConicData((x0, y0), X, Y, D, ff_entry(D),
                     RationalFunction(X, D), RationalFunction(Y, D))


def psi_split(x: MixedClass, conic: ConicData | None = None
              ) -> FunctionFieldForm:
    """Scalar extension to Q(t) on the even part, Morita transfer along the
    generic nilpotent x(t) i + y(t) j + ij on the odd part.  It squares to
    0 because (x(t), y(t)) lies on the conic, which conic_parametrize
    verifies.

    Each odd slot z gives <-T, T z^2> with T = Trd(z (x(t) i + y(t) j +
    ij)) = L/D for the polynomial L = l1 X + l2 Y + l3 D of degree <= 2,
    l_k = Trd(z e_k) for e_k in (i, j, ij); up to squares T is L D, whose
    entry is the product of the entries of L and D.  L != 0: (l1, l2, l3)
    != 0 for z != 0, and X, Y, D are linearly independent, as the conic
    points (X/D, Y/D) lie on no line."""
    A = x.algebra
    if conic is None:
        conic = conic_parametrize(A)
    basis = (A.i(), A.j(), A.ij())
    entries = [FFEntry(r, ()) for r in x.even.anis.reps()]
    for z in x.odd.diag:
        l1, l2, l3 = ((z * e).trd() for e in basis)
        L = P.padd(P.padd(P.pscale(l1, conic.X), P.pscale(l2, conic.Y)),
                   P.pscale(l3, conic.D))
        ld = ff_entry_product(ff_entry(L), conic.D_entry)
        zsq = -nrd_class(z)  # the class of z^2 = -Nrd(z) for pure z
        entries += [FFEntry(-ld.unit, ld.factors),
                    FFEntry(sq_mul(ld.unit, zsq), ld.factors)]
    return FunctionFieldForm(tuple(entries))


def kernel_generator(A: QuatAlgebra) -> MixedClass:
    """The mixed class <2><<(ij)^2>> - <ij>_gamma spanning the kernel of
    the generic-splitting map over a split algebra."""
    A.require_generic_basis()
    ij_sq = -A.a * A.b
    even = witt_class(pfister([ij_sq]).scale(square_class(2)))
    return mixed(A, even=even, odd_entries=(-A.ij(),))
