"""Forms over Q(t): residues, Witt equality via the Milnor sequence, conic
parametrization of split algebras and the generic-splitting map.

A form entry is only ever needed up to squares, so it is stored as its
square class: a squarefree integer unit times distinct monic irreducible
polynomials, built by ff_class.  Second residues at all finite places plus
one good specialization decide Witt equality over Q(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from . import polys as P
from .errors import (
    MissingFactorization,
    NoGoodSpecializationPoint,
    NotSplit,
    SearchBoundExceeded,
    UnsupportedResidueField,
    VerificationFailed,
    ZeroElement,
)
from .fields import Place, rational_sqrt, sq_mul, square_class
from .mixed import MixedClass, mixed
from .hermitian import morita_transfer_entries
from .polys import RationalFunction
from .quadforms import (
    GroupRingElem,
    QuadForm,
    is_witt_zero,
    pfister,
    qf,
    witt_class,
)
from .quaternions import QuatAlgebra, height_shell, is_split

INFINITE_PLACE = Place("infinite")
CONIC_HEIGHT_BOUND = 60


# ---------------------------------------------------------------------------
# factored entries


@dataclass(frozen=True)
class FFEntry:
    """The square class of a nonzero element of Q(t): a squarefree integer
    unit times the product of distinct monic irreducible factors, sorted.
    Two entries are equal exactly when their elements differ by a square."""

    unit: int
    factors: Tuple[P.Poly, ...]

    def value_at(self, c: Fraction) -> Fraction:
        out = Fraction(self.unit)
        for f in self.factors:
            out *= P.peval(f, c)
        return out

    def valuation(self, v: Place) -> int:
        if v.kind == "poly":
            return int(v.pi in self.factors)
        if v.kind == "infinite":
            return -sum(P.degree(f) for f in self.factors)
        raise UnsupportedResidueField(f"no valuation at {v}")


def ff_class(unit, factors) -> FFEntry:
    """The entry of unit * prod(f^e) over (f, e) in factors, for a nonzero
    rational unit and irreducible f (repeats allowed): the monic factors of
    odd total exponent times the squarefree part of the unit and of their
    leading coefficients."""
    odd = set()
    for f, e in factors:
        if e % 2:
            unit *= P.leading(f)
            odd ^= {P.monic(f)}
    return FFEntry(square_class(unit).repr, tuple(sorted(odd)))


def ff_entry(x) -> FFEntry:
    """The entry of a nonzero rational, polynomial coefficient list or
    RationalFunction."""
    if isinstance(x, (int, Fraction)):
        x = RationalFunction.from_const(Fraction(x))
    elif isinstance(x, (list, tuple)):
        x = RationalFunction(P.poly(x))
    if x.is_zero():
        raise ZeroElement("zero entry in a function-field form")
    # num/den and num*den agree up to squares
    try:
        unit_n, factors_n = P.factor_poly(x.num)
        unit_d, factors_d = P.factor_poly(x.den)
    except NotImplementedError as exc:
        raise MissingFactorization(str(exc)) from exc
    return ff_class(unit_n * unit_d, factors_n + factors_d)


def ff_entry_product(e1: FFEntry, e2: FFEntry) -> FFEntry:
    """Product of two entries: no factorization is needed."""
    return FFEntry(sq_mul(e1.unit, e2.unit),
                   tuple(sorted(set(e1.factors) ^ set(e2.factors))))


@dataclass(frozen=True)
class FunctionFieldForm:
    """Diagonal form over Q(t) with factored entries."""

    entries: Tuple[FFEntry, ...]

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

    def support(self) -> List[P.Poly]:
        return sorted({f for e in self.entries for f in e.factors})

    def specialize(self, c: Fraction) -> QuadForm:
        vals = [e.value_at(Fraction(c)) for e in self.entries]
        if any(v == 0 for v in vals):
            raise NoGoodSpecializationPoint(f"t = {c} kills an entry")
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


FF_EMPTY = FunctionFieldForm(())


# ---------------------------------------------------------------------------
# residues


def _entry_residue_data(e: FFEntry, v: Place, unif: Optional[RationalFunction]):
    """(parity, residue class data) of one entry at a place.

    For a degree-1 place the class is a Fraction; for the infinite place a
    Fraction; for a degree-2 place a linear polynomial s + t*theta.
    """
    val = e.valuation(v)
    if v.kind == "infinite":
        # reduction of entry * t^{-val} at t = infinity: the unit times the
        # (monic, hence 1) leading coefficients
        cls = Fraction(e.unit)
        if unif is not None:
            cls *= _inf_unit_residue(unif) ** val
        return val % 2, cls
    pi = v.pi
    d = P.degree(pi)
    cof = P.constant(e.unit)
    for f in e.factors:
        if f != pi:
            cof = P.pmul(cof, f)
    if d == 1:
        c = -pi[0]  # root of the monic linear pi
        cls = P.peval(cof, c)
        if unif is not None:
            g = unif / RationalFunction(pi)
            gval = g.evaluate(c)
            cls *= gval ** val
        return val % 2, cls
    if d == 2:
        red = P.pmod(cof, pi)
        if unif is not None:
            raise UnsupportedResidueField(
                "alternate uniformizers only at degree-1 places"
            )
        return val % 2, red
    raise UnsupportedResidueField(
        f"residue field of degree {d} not supported"
    )


def _inf_unit_residue(unif: RationalFunction) -> Fraction:
    """Residue at infinity of unif * t (a v_inf-unit when unif has
    valuation 1, i.e. degree -1)."""
    num, den = unif.num, unif.den
    if P.degree(den) - P.degree(num) != 1:
        raise ZeroElement("uniformizer at infinity must have valuation 1")
    return P.leading(num) / P.leading(den)


def residue(q: FunctionFieldForm, v: Place,
            uniformizer: Optional[RationalFunction] = None) -> GroupRingElem:
    """First and second residue at v, packed into W(Q)[Z/2Z].

    Only degree-1 finite places and the infinite place land in W(Q); at a
    degree-2 place use residue2_vanishes instead.
    """
    if v.kind == "poly" and P.degree(v.pi) != 1:
        raise UnsupportedResidueField(
            "group-ring residues only at residue field Q"
        )
    first, second = [], []
    for e in q.entries:
        parity, cls = _entry_residue_data(e, v, uniformizer)
        (second if parity else first).append(cls)
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
        if s == 0:
            return False
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

    At residue field Q this is a complete decision.  At a degree-2 residue
    field Q[t]/(pi) vanishing is certified by pairwise cancellation with an
    exact squareness test, and refuted by an odd count or a signed
    discriminant that is not a square; UnsupportedResidueField when neither
    settles it (only possible in dimension >= 4, as pairing is complete in
    dimension 2)."""
    if v.kind == "infinite" or P.degree(v.pi) == 1:
        return residue(q, v).odd.is_zero()
    if P.degree(v.pi) != 2:
        raise UnsupportedResidueField("only degree <= 2 residue fields")
    pi = v.pi
    classes = []
    for e in q.entries:
        parity, red = _entry_residue_data(e, v, None)
        if parity:
            classes.append(red)
    if len(classes) % 2:
        return False
    pool = list(classes)
    while pool:
        z = pool.pop()
        matched = None
        for idx, w in enumerate(pool):
            # <z, w> hyperbolic iff -z/w is a square in the residue field
            ratio = _field_div(pi, P.pneg(z), w)
            if ratio is not None and _quadratic_square(pi, ratio):
                matched = idx
                break
        if matched is None:
            break
        pool.pop(matched)
    else:
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


def _field_div(pi: P.Poly, num: P.Poly, den: P.Poly) -> Optional[P.Poly]:
    """num / den in Q[t]/(pi) via the extended Euclid inverse."""
    if P.is_zero(den):
        return None
    inv = _mod_inverse(den, pi)
    if inv is None:
        return None
    return P.pmod(P.pmul(num, inv), pi)


def _mod_inverse(a: P.Poly, pi: P.Poly) -> Optional[P.Poly]:
    r0, r1 = pi, P.pmod(a, pi)
    s0, s1 = P.ZERO, P.ONE
    while not P.is_zero(r1):
        qpoly, rem = P.pdivmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, P.psub(s0, P.pmul(qpoly, s1))
    if P.degree(r0) != 0:
        return None
    return P.pscale(1 / r0[0], s0)


# ---------------------------------------------------------------------------
# Witt equality over Q(t)


def good_points(q: FunctionFieldForm, how_many: int = 1) -> List[Fraction]:
    out = []
    c = 0
    while len(out) < how_many:
        if c > 10000:
            raise NoGoodSpecializationPoint("no good integer point below 10000")
        cc = Fraction(c)
        if all(e.value_at(cc) != 0 for e in q.entries):
            out.append(cc)
        c += 1
    return out


def kt_witt_equal(q1: FunctionFieldForm, q2: FunctionFieldForm) -> bool:
    """Witt equality in W(Q(t)): all second residues of the difference
    vanish and the constant part specializes to 0 in W(Q)."""
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


def w0_membership(q: FunctionFieldForm,
                  places: Optional[Sequence[Place]] = None) -> bool:
    """Unramifiedness: second residues vanish at the given places, or at
    every finite place of the support when none are supplied."""
    if places is None:
        places = [Place("poly", pi=pi) for pi in q.support()]
    return all(residue2_vanishes(q, v) for v in places)


def conic_w0_places(q: FunctionFieldForm, conic: "ConicData") -> List[Place]:
    """Places of Q(t) corresponding to affine points of the parametrized
    conic that meet the support of q: the parametrization sends the zeros
    of a + b t^2 to the conic's point at infinity (which is excluded),
    while the t-infinite place is an affine conic point (included)."""
    pole = P.monic(P.poly([conic.a, Fraction(0), conic.b]))
    out = [Place("poly", pi=pi) for pi in q.support() if pi != pole]
    out.append(Place("infinite"))
    return out


# ---------------------------------------------------------------------------
# conic parametrization and the generic-splitting map


@dataclass(frozen=True)
class ConicData:
    """Rational parametrization of the conic -a x^2 - b y^2 + ab = 0."""

    a: Fraction
    b: Fraction
    point: Tuple[Fraction, Fraction]
    x_t: RationalFunction
    y_t: RationalFunction


def _conic_point(A: QuatAlgebra):
    """Rational point of -a x^2 - b y^2 + ab = 0, from a zero of the pure
    norm form with nonzero ij-coordinate and height <= CONIC_HEIGHT_BOUND."""
    a, b = A.a, A.b
    for h in range(1, CONIC_HEIGHT_BOUND + 1):
        for c3, c1, c2 in height_shell(h, 3):
            if c3 >= 1 and -a * c1 * c1 - b * c2 * c2 + a * b * c3 * c3 == 0:
                return (Fraction(c1, c3), Fraction(c2, c3))
    raise SearchBoundExceeded("no conic point within the height bound")


@lru_cache(maxsize=2**8)
def conic_parametrize(A: QuatAlgebra) -> ConicData:
    """The verified conic parametrization, cached per algebra."""
    if not is_split(A):
        raise NotSplit(f"{A!r} is a division algebra; its conic has no"
                       " rational point")
    a, b = A.a, A.b
    x0, y0 = _conic_point(A)
    t = RationalFunction(P.T)
    denom = a + b * t * t
    s = (-2) * (a * x0 + b * y0 * t) / denom
    x_t = x0 + s
    y_t = y0 + t * s
    check = -a * x_t * x_t - b * y_t * y_t + a * b
    if not check.is_zero():
        raise VerificationFailed("parametrization does not satisfy the conic")
    return ConicData(a, b, (x0, y0), x_t, y_t)


def psi_split(x: MixedClass, conic: Optional[ConicData] = None
              ) -> FunctionFieldForm:
    """Scalar extension to Q(t) on the even part, Morita transfer along the
    generic nilpotent x(t) i + y(t) j + ij on the odd part.  It squares to
    0 because (x(t), y(t)) lies on the conic, which conic_parametrize
    verifies."""
    if conic is None:
        conic = conic_parametrize(x.algebra)
    values: List = [Fraction(r) for r in x.even.anis.reps()]
    values.extend(morita_transfer_entries(x.odd, (conic.x_t, conic.y_t, 1)))
    return ff_form(values)


def kernel_generator(A: QuatAlgebra) -> MixedClass:
    """The mixed class <2><<(ij)^2>> - <ij>_gamma spanning the kernel of
    the generic-splitting map over a split algebra."""
    A.require_generic_basis()
    ij_sq = -A.a * A.b
    even = witt_class(pfister([ij_sq]).scale(square_class(2)))
    return mixed(A, even=even, odd_entries=(-A.ij(),))
