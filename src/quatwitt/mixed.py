"""The mixed Witt ring W(k) + W^{-1}(Q, gamma).

Elements have an even part (a Witt class of quadratic forms over k) and an
odd part (an anti-hermitian form over (Q, gamma) up to Witt equivalence).
The odd*odd product lands in the even part through the twisted trace form,
whose Gram matrix is built and diagonalized on integers.  Every product is
cross-checked against the closed form <-Trd(z1 z2)> (<<z1^2, z2^2>> - n_Q)
by one Witt-equality decision on its 8-entry diagonal.
"""

from __future__ import annotations


from .errors import AlgebraMismatch, AsymmetryDetected, ZeroSlot
from .fields import sq_mul, square_class
from .hermitian import (
    DEFAULT_SEARCH_BOUND,
    AntiHermForm,
    herm_verdict,
    morita_transfer,
)
from .quadforms import (
    EMPTY,
    QuadForm,
    WittClass,
    integer_gram_form,
    qf,
    witt_class,
    witt_equal,
    witt_zero,
)
from .quaternions import (
    QuatAlgebra,
    Quaternion,
    _mul_coords,
    find_nilpotent,
    norm_form,
    nrd_class,
)
from .record import Record

_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def twisted_trace_form(z1: Quaternion, z2: Quaternion) -> QuadForm:
    """The 4-dimensional form x |-> Trd(gamma(x) z1 x gamma(z2)) over k,
    diagonalized from its Gram matrix on the basis e = (1, i, j, ij).

    The Gram matrix is M / D with M an integer matrix.  With the table
    k = (e, e a, e b, e ab) of the algebra, two `_mul_coords` products of
    integer numerators give V_t, the numerators of u = z1 e_t gamma(z2)
    over e^2 den(z1) den(z2).  Column t is read off u: Trd(gamma(e_s) u) =
    2 w_s u_s with w = (1, -a, -b, ab), since gamma(e_s) e_s = w_s and the
    other basis products are trace-free.  So M_st = 2 e w_s V_t[s] and
    D = e^3 den(z1) den(z2).  M must come out symmetric; if it does not,
    the quaternion arithmetic is broken and we refuse to continue.
    """
    if z1.algebra != z2.algebra:
        raise AlgebraMismatch("twisted trace form across algebras")
    k = z1.algebra.table
    e, ea, eb, eab = k
    w = (2 * e, -2 * ea, -2 * eb, 2 * eab)
    n0, n1, n2, n3 = z2.num
    z2bar = (n0, -n1, -n2, -n3)
    cols = [_mul_coords(_mul_coords(z1.num, et, k), z2bar, k) for et in _BASIS]
    m = [[w[s] * v[s] for v in cols] for s in range(4)]
    for s in range(4):
        for t in range(s + 1, 4):
            if m[s][t] != m[t][s]:
                raise AsymmetryDetected(
                    f"Gram entry ({s},{t}): {m[s][t]} vs {m[t][s]} "
                    f"(over the common denominator)"
                )
    return integer_gram_form(m, e ** 3 * z1.den * z2.den)


def closed_form_diag(z1: Quaternion, z2: Quaternion) -> QuadForm:
    """The diagonal of <-t> (<<z1^2, z2^2>> - n_Q), t = Trd(z1 z2): eight
    entries, none when t = 0.

    With c the square class of -t and n_k that of Nrd z_k = -z_k^2, the
    Pfister form <<z1^2, z2^2>> is <1, n1> <1, n2> = <1, n2, n1, n1 n2>,
    so the entries are c v for v in (1, n2, n1, n1 n2) and then in the
    negated entries of n_Q: products of squarefree integers, taken by
    `sq_mul`."""
    t = (z1 * z2).trd()
    if t == 0:
        return EMPTY
    if not (z1.is_invertible() and z2.is_invertible()):
        raise ZeroSlot("Pfister slot must be nonzero")
    c = square_class(-t)
    n1, n2 = nrd_class(z1), nrd_class(z2)
    vs = (1, n2, n1, sq_mul(n1, n2)) + tuple(
        -r for r in norm_form(z1.algebra).reps())
    return QuadForm(tuple(sq_mul(c, v) for v in vs))


def odd_product_closed_form(z1: Quaternion, z2: Quaternion) -> WittClass:
    """<z1>_gamma * <z2>_gamma = <-Trd(z1 z2)> (<<z1^2, z2^2>> - n_Q)."""
    return witt_class(closed_form_diag(z1, z2))


class MixedClass(Record):
    """even + odd element of the mixed Witt ring."""

    __slots__ = ("even", "odd", "algebra")

    def __init__(self, even: WittClass, odd: AntiHermForm,
                 algebra: QuatAlgebra):
        self.even = even
        self.odd = odd
        self.algebra = algebra

    def __eq__(self, other):
        if other.__class__ is not MixedClass:
            return NotImplemented
        return ((self.even, self.odd, self.algebra)
                == (other.even, other.odd, other.algebra))

    def __hash__(self):
        return hash((self.even, self.odd, self.algebra))

    def __add__(self, other: "MixedClass") -> "MixedClass":
        self._check(other)
        return MixedClass(self.even + other.even,
                          self.odd.perp(other.odd), self.algebra)

    def __neg__(self) -> "MixedClass":
        return MixedClass(-self.even, self.odd.neg(), self.algebra)

    def __sub__(self, other: "MixedClass") -> "MixedClass":
        return self + (-other)

    def __mul__(self, other: "MixedClass") -> "MixedClass":
        self._check(other)
        even = self.even * other.even
        for zs in self.odd.diag:
            for zt in other.odd.diag:
                term = witt_class(twisted_trace_form(zs, zt))
                if not witt_equal(term.anis, closed_form_diag(zs, zt)):
                    raise AsymmetryDetected(
                        "twisted trace form disagrees with its closed form"
                    )
                even = even + term
        odd_entries = []
        for c in self.even.anis.reps():
            for z in other.odd.diag:
                odd_entries.append(z.scale(c))
        for c in other.even.anis.reps():
            for z in self.odd.diag:
                odd_entries.append(z.scale(c))
        return MixedClass(even, AntiHermForm(tuple(odd_entries), self.algebra),
                          self.algebra)

    def _check(self, other: "MixedClass"):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("mixed classes over different algebras")

    def __repr__(self):
        return f"Mixed(even={self.even!r}, odd={self.odd!r})"


def mixed(algebra: QuatAlgebra, even: WittClass | None = None,
          odd_entries: tuple[Quaternion, ...] = ()) -> MixedClass:
    if even is None:
        even = witt_zero()
    return MixedClass(even, AntiHermForm(tuple(odd_entries), algebra), algebra)


def mixed_even(algebra: QuatAlgebra, cls: WittClass) -> MixedClass:
    return mixed(algebra, even=cls)


def mixed_odd(algebra: QuatAlgebra, *entries: Quaternion) -> MixedClass:
    return mixed(algebra, odd_entries=tuple(entries))


def mixed_zero(algebra: QuatAlgebra) -> MixedClass:
    return mixed(algebra)


def mixed_one(algebra: QuatAlgebra) -> MixedClass:
    return mixed(algebra, even=witt_class(qf([1])))


# ---------------------------------------------------------------------------
# equality


def phi_z0(x: MixedClass, z0: Quaternion | None = None) -> WittClass:
    """The Morita isomorphism onto W(k) in the split case: identity on the
    even part, transfer along z0 on the odd part."""
    if z0 is None:
        z0 = find_nilpotent(x.algebra)
    return x.even + witt_class(morita_transfer(x.odd, z0))


def mixed_equal(x: MixedClass, y: MixedClass,
                search_bound: int = DEFAULT_SEARCH_BOUND) -> str:
    """"equal", "distinct" or "unknown": x = y iff the even parts agree,
    compared exactly, and the odd difference is 0 in W^{-1}(Q, gamma)
    (`herm_verdict` at `search_bound`)."""
    x._check(y)
    if x.even != y.even:
        return "distinct"
    return herm_verdict(x.odd.perp(y.odd.neg()), search_bound)
