"""Lambda operations on anti-hermitian forms and the module of formal
invariants sum_d x_d lambda^d.

lambda^2(<z>) = <Nrd z> and lambda^d(<z>) = 0 for d > 2, so lambda of a
diagonal form is the convolution of the per-entry polynomials
1 + <z> t + <Nrd z> t^2 with products taken in the mixed ring.  Constancy
of an invariant reduces to membership of its higher coefficients in the
ideal n_Q W(k), decided exactly by a local-global criterion.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from math import comb

from .errors import (
    DegreeTooLarge,
    LengthMismatch,
    RankMismatch,
    SchemaViolation,
    UnsupportedField,
    quoted,
)
from .hermitian import (
    DEFAULT_SEARCH_BOUND,
    AntiHermForm,
    herm_screen,
    herm_verdict,
)
from .mixed import (
    MixedClass,
    _sum,
    mixed_equal,
    mixed_even,
    mixed_odd,
    mixed_one,
    mixed_zero,
)
from .quadforms import (
    QuadForm,
    WittClass,
    local_anisotropic_dims,
    witt_class,
)
from .quaternions import (QuatAlgebra, draw_pure, norm_form, nrd_class,
                          ramified_places)
from .record import Record


def n_q_class(A: QuatAlgebra) -> WittClass:
    return witt_class(norm_form(A))


def n_q_mixed(A: QuatAlgebra) -> MixedClass:
    return mixed_even(A, n_q_class(A))


def int_multiple(n: int, x: MixedClass) -> MixedClass:
    """n x as the orthogonal sum of |n| copies of x (of -x for n < 0)."""
    return _sum(x.algebra, [x if n > 0 else -x] * abs(n))


# ---------------------------------------------------------------------------
# lambda operations


def lambda_herm(d: int, h: AntiHermForm) -> MixedClass:
    """Coefficient of t^d in prod_i (1 + <z_i> t + <Nrd z_i> t^2)."""
    r = h.rank
    if d < 0 or d > 2 * r:
        raise DegreeTooLarge(f"lambda^{quoted(d)} of a rank-{r} form")
    return _lambda_upto(d, h)[d]


def lambda_all(h: AntiHermForm) -> list[MixedClass]:
    """lambda^0, ..., lambda^{2r} of h, from one convolution."""
    return _lambda_upto(2 * h.rank, h)


def _lambda_upto(top: int, h: AntiHermForm) -> list[MixedClass]:
    """lambda^0, ..., lambda^top of h.  Multiplying by the factor
    1 + <z> t + <n> t^2, n = Nrd z, gives the coefficients
    c'_d = c_{d-2} <n> + c_{d-1} <z> + c_d, summed in that order, so the
    convolution stops at degree top: no c'_d up to top reads past it.  The
    product by 1 is left out, and so is the sum with 0: each returns its
    argument exactly, as a kernel is its own kernel.  The product by the
    even <n> runs no odd-by-odd terms."""
    A = h.algebra
    coeffs = [mixed_one(A)]
    for z in h.diag:
        odd = mixed_odd(A, z)
        nrd = mixed_even(A, witt_class(QuadForm((nrd_class(z),))))
        times_z = [c * odd for c in coeffs[:top]]
        times_n = [c * nrd for c in coeffs[:max(top - 1, 0)]]
        new = []
        for d in range(min(len(coeffs) + 2, top + 1)):
            terms = [t[i] for t, i in ((times_n, d - 2), (times_z, d - 1),
                                       (coeffs, d)) if 0 <= i < len(t)]
            new.append(sum(terms[1:], terms[0]))
        coeffs = new
    return coeffs


# ---------------------------------------------------------------------------
# formal invariants


def _require_rank(r: int):
    if r < 1:
        raise RankMismatch("r must be at least 1")


class LambdaInvariant(Record):
    """Formal invariant sum_{d=0}^{2r} x_d lambda^d with mixed coefficients."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs: tuple[MixedClass, ...]):
        _require_rank(r)
        if len(coeffs) != 2 * r + 1:
            raise LengthMismatch(
                f"expected {2 * r + 1} coefficients, got {len(coeffs)}"
            )
        algebras = {c.algebra for c in coeffs}
        if len(algebras) > 1:
            raise RankMismatch("coefficients over different algebras")
        self.r = r
        self.coeffs = coeffs

    @property
    def algebra(self) -> QuatAlgebra:
        return self.coeffs[0].algebra

    def __sub__(self, other: "LambdaInvariant") -> "LambdaInvariant":
        if self.r != other.r or self.algebra != other.algebra:
            raise RankMismatch("invariants of different shape")
        return LambdaInvariant(
            self.r, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )


def lambda_basis_invariant(r: int, d: int, A: QuatAlgebra,
                           scale: MixedClass | None = None) -> LambdaInvariant:
    """The invariant x * lambda^d (x defaults to 1)."""
    _require_rank(r)
    if d < 0 or d > 2 * r:
        raise DegreeTooLarge(f"lambda^{quoted(d)} of a rank-{r} form")
    coeffs = [mixed_zero(A) for _ in range(2 * r + 1)]
    coeffs[d] = mixed_one(A) if scale is None else scale
    return LambdaInvariant(r, tuple(coeffs))


def eval_invariant(alpha: LambdaInvariant, h: AntiHermForm) -> MixedClass:
    if h.rank != alpha.r:
        raise RankMismatch(f"form has rank {h.rank}, invariant expects {alpha.r}")
    return _sum(alpha.algebra,
                [x * l for x, l in zip(alpha.coeffs, lambda_all(h))])


def chi(r: int, coeffs: Sequence[MixedClass]) -> MixedClass:
    """sum_i C(r, i) x_{2i}."""
    if len(coeffs) != 2 * r + 1:
        raise LengthMismatch(f"expected {2 * r + 1} coefficients")
    return _sum(coeffs[0].algebra, [x for i in range(r + 1)
                                    for x in [coeffs[2 * i]] * comb(r, i)])


# ---------------------------------------------------------------------------
# membership in n_Q W(k)


def nq_membership(x: WittClass, A: QuatAlgebra) -> str:
    """Membership of x in the ideal n_Q W(Q): "member" or "nonmember".
    UnsupportedField for a class that is not over Q.

    For split Q the ideal is 0.  For a division algebra Q, with its
    ramified places from `ramified_places`, x lies in n_Q W(Q) iff
      - x is in I^2: even dimension and signed discriminant d = 1.  At
        even dimension the local dimension at p is 2 exactly where d is
        not a square in Q_p, and a squarefree d != 1 is not a square in
        Q_2 (d = -1, 2 or -2) or in Q_p for an odd prime p of d, which is
        a prime of x; so d = 1 iff no place of x has local dimension 2
        (|signature| = 2 at the real place needs d < 0 too);
      - x is 0 at every place v where Q splits: local anisotropic
        dimension 0 over Q_v (|signature| at the real place v = -1);
      - the Clifford invariant of x is 0 or [Q]: it is nontrivial at all
        of Q's ramified places or at none.  At a ramified prime it is
        nontrivial iff x_p != 0, as I^2(Q_p) = {0, n_Q}.  The Clifford
        invariant is nontrivial at an even number of places (Hilbert
        reciprocity), all of them ramified in Q by the previous condition,
        so a ramified real place agrees with the primes and is not checked.
    Only if: n_Q y = dim(y) n_Q mod I^3, and n_Q is 0 wherever Q splits.
    If: with e = 0 or 1 as the Clifford invariant is 0 or [Q], x - e n_Q
    has trivial Hasse invariants everywhere, so by Hasse-Minkowski (Serre,
    *A Course in Arithmetic*, Ch. IV) it is fixed by its signature.  That
    is 0, or, when Q ramifies at the real place, a multiple 8k, and then
    x - e n_Q = k n_Q <1, 1>.  The places of x checked are those that
    `local_anisotropic_dims` reads, all from one local reading of x: the
    real place, 2 and the primes of x.  x is read from `x.form`, any
    diagonal of its class, as the parity and the local dimensions are Witt
    invariants, so no kernel is peeled.  At any other prime every entry of
    x is a unit, so x, already in I^2, is 0 there; that holds at a ramified
    prime x does not touch too.
    """
    if x.field.p is not None:
        raise UnsupportedField("n_Q-membership is decided over Q only")
    ramified = ramified_places(A)
    if not ramified:
        return "member" if x.is_zero() else "nonmember"
    q = x.form
    if q.dim % 2:
        return "nonmember"
    dims = local_anisotropic_dims(q)
    if 2 in dims.values():
        return "nonmember"
    nonzero = {v for v, d in dims.items() if d}
    if nonzero - set(ramified):
        return "nonmember"
    clifford = {p in nonzero for p in ramified if p != -1}
    return "member" if len(clifford) <= 1 else "nonmember"


# ---------------------------------------------------------------------------
# constancy and equality of invariants


class ConstancyResult(Record):
    __slots__ = ("status", "value", "witness")

    def __init__(self, status: str, value: MixedClass | None = None,
                 witness: int | None = None):
        self.status = status  # "constant" | "nonconstant" | "unknown"
        self.value = value
        self.witness = witness


def is_constant_invariant(alpha: LambdaInvariant,
                          search_bound: int = DEFAULT_SEARCH_BOUND
                          ) -> ConstancyResult:
    """Constant iff x_d lies in n_Q W(k) for every d > 0; the constant
    value is then chi(r, coeffs).  That needs the even part of x_d in
    n_Q W(k), which nq_membership decides exactly and is checked first,
    and the odd part hyperbolic, so the result is "unknown" only when an
    odd part's hyperbolicity is (`herm_verdict` at `search_bound`)."""
    A = alpha.algebra
    saw_unknown = False
    for d in range(1, 2 * alpha.r + 1):
        x = alpha.coeffs[d]
        if nq_membership(x.even, A) == "nonmember":
            return ConstancyResult("nonconstant", witness=d)
        odd_status = herm_verdict(x.odd, search_bound)
        if odd_status == "distinct":
            return ConstancyResult("nonconstant", witness=d)
        if odd_status == "unknown":
            saw_unknown = True
    if saw_unknown:
        return ConstancyResult("unknown")
    return ConstancyResult("constant", value=chi(alpha.r, alpha.coeffs))


def invariant_equal(alpha: LambdaInvariant, beta: LambdaInvariant,
                    search_bound: int = DEFAULT_SEARCH_BOUND) -> str:
    """Equality through the presentation: alpha - beta is the zero
    invariant iff it is constant of value 0 (`mixed_equal` at
    `search_bound`)."""
    res = is_constant_invariant(alpha - beta, search_bound=search_bound)
    if res.status == "nonconstant":
        return "distinct"
    if res.status == "unknown":
        return "unknown"
    return mixed_equal(res.value, mixed_zero(alpha.algebra),
                       search_bound=search_bound)


# ---------------------------------------------------------------------------
# versal sampling


class SampleCheck(Record):
    __slots__ = ("status", "point")

    def __init__(self, status: str,
                 point: tuple[tuple[int, int, int], ...] | None = None):
        self.status = status  # "consistent" | "refuted"
        self.point = point


def versal_sample_check(alpha: LambdaInvariant, claimed: MixedClass,
                        n_samples: int = 50, seed: int = 0,
                        height: int = 12) -> SampleCheck:
    """Evaluate alpha on random specializations of the generic diagonal
    form <s i + t j + u ij, ...> (pure-norm vanishing locus rejected) and
    compare against the claimed constant value: the even parts exactly,
    the odd difference by the exact tier of its zero test, `herm_screen`."""
    if n_samples < 1:  # with no draw, "consistent" would rest on nothing
        raise SchemaViolation(
            f"n_samples: must be at least 1: {quoted(n_samples)}")
    A = alpha.algebra
    rng = random.Random(seed)
    for _ in range(n_samples):
        h = AntiHermForm(tuple(draw_pure(rng, A, height)
                               for _slot in range(alpha.r)), A)
        value = eval_invariant(alpha, h)
        if (value.even != claimed.even or herm_screen(
                value.odd.perp(claimed.odd.neg())) == "distinct"):
            # draw_pure gives integer coordinates, so den is 1
            point = tuple(z.num[1:] for z in h.diag)
            return SampleCheck("refuted", point=point)
    return SampleCheck("consistent")
