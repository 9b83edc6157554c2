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
from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

from .errors import DegreeTooLarge, LengthMismatch, RankMismatch
from .fields import REAL_PLACE, finite_place, hilbert_symbol, relevant_primes
from .hermitian import AntiHermForm
from .mixed import (
    MixedClass,
    mixed,
    mixed_equal,
    mixed_even,
    mixed_odd,
    mixed_one,
    mixed_zero,
    screened_distinct,
)
from .quadforms import (
    WittClass,
    local_anisotropic_dim,
    qf,
    signature,
    signed_disc,
    witt_class,
)
from .quaternions import QuatAlgebra, draw_pure, is_split, norm_forms


def n_q_class(A: QuatAlgebra) -> WittClass:
    return witt_class(norm_forms(A)["n_Q"])


def n_q_mixed(A: QuatAlgebra) -> MixedClass:
    return mixed_even(A, n_q_class(A))


def int_multiple(n: int, x: MixedClass) -> MixedClass:
    out = mixed_zero(x.algebra)
    step = x if n >= 0 else -x
    for _ in range(abs(n)):
        out = out + step
    return out


# ---------------------------------------------------------------------------
# lambda operations


def lambda_herm(d: int, h: AntiHermForm) -> MixedClass:
    """Coefficient of t^d in prod_i (1 + <z_i> t + <Nrd z_i> t^2)."""
    r = h.rank
    if d < 0 or d > 2 * r:
        raise DegreeTooLarge(f"lambda^{d} of a rank-{r} form")
    return lambda_all(h)[d]


def lambda_all(h: AntiHermForm) -> List[MixedClass]:
    """lambda^0, ..., lambda^{2r} of h, from one convolution."""
    A = h.algebra
    coeffs = [mixed_one(A)]
    for z in h.diag:
        entry = [
            mixed_one(A),
            mixed_odd(A, z),
            mixed_even(A, witt_class(qf([z.nrd()]))),
        ]
        new = [mixed_zero(A) for _ in range(len(coeffs) + 2)]
        for i, c in enumerate(coeffs):
            for j, e in enumerate(entry):
                new[i + j] = new[i + j] + c * e
        coeffs = new
    return coeffs


# ---------------------------------------------------------------------------
# formal invariants


@dataclass(frozen=True)
class LambdaInvariant:
    """Formal invariant sum_{d=0}^{2r} x_d lambda^d with mixed coefficients."""

    r: int
    coeffs: Tuple[MixedClass, ...]

    def __post_init__(self):
        if self.r < 1:
            raise RankMismatch("r must be at least 1")
        if len(self.coeffs) != 2 * self.r + 1:
            raise LengthMismatch(
                f"expected {2 * self.r + 1} coefficients, got {len(self.coeffs)}"
            )
        algebras = {c.algebra for c in self.coeffs}
        if len(algebras) > 1:
            raise RankMismatch("coefficients over different algebras")

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
                           scale: Optional[MixedClass] = None) -> LambdaInvariant:
    """The invariant x * lambda^d (x defaults to 1)."""
    coeffs = [mixed_zero(A) for _ in range(2 * r + 1)]
    coeffs[d] = mixed_one(A) if scale is None else scale
    return LambdaInvariant(r, tuple(coeffs))


def eval_invariant(alpha: LambdaInvariant, h: AntiHermForm) -> MixedClass:
    if h.rank != alpha.r:
        raise RankMismatch(f"form has rank {h.rank}, invariant expects {alpha.r}")
    lam = lambda_all(h)
    out = mixed_zero(alpha.algebra)
    for x, l in zip(alpha.coeffs, lam):
        out = out + x * l
    return out


def chi(r: int, coeffs: Sequence[MixedClass]) -> MixedClass:
    """sum_i C(r, i) x_{2i}."""
    if len(coeffs) != 2 * r + 1:
        raise LengthMismatch(f"expected {2 * r + 1} coefficients")
    out = mixed_zero(coeffs[0].algebra)
    for i in range(r + 1):
        out = out + int_multiple(comb(r, i), coeffs[2 * i])
    return out


# ---------------------------------------------------------------------------
# membership in n_Q W(k)


def nq_membership(x: WittClass, A: QuatAlgebra) -> str:
    """Membership of x in the ideal n_Q W(Q): "member" or "nonmember".

    For split Q the ideal is 0.  For a division algebra Q, x lies in
    n_Q W(Q) iff
      - x is in I^2: even dimension and signed discriminant 1;
      - x is 0 at every place where Q splits: signature 0 at the real
        place, anisotropic dimension 0 over Q_p at a prime;
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
    x - e n_Q = k n_Q <1, 1>.  At a prime outside 2 and the primes of x, a
    and b, every entry is a unit and x and n_Q are both 0, so only those
    primes are checked.
    """
    if is_split(A):
        return "member" if x.is_zero() else "nonmember"
    q = x.anis
    if q.dim % 2 or not signed_disc(q).is_one():
        return "nonmember"
    a, b = A.a, A.b
    if hilbert_symbol(a, b, REAL_PLACE) == 1 and signature(q):
        return "nonmember"
    clifford = []  # whether x_p != 0, at each prime where Q ramifies
    for p in relevant_primes(list(q.reps()) + [a, b]):
        nonzero = local_anisotropic_dim(q, p) != 0
        if hilbert_symbol(a, b, finite_place(p)) == -1:
            clifford.append(nonzero)
        elif nonzero:
            return "nonmember"
    return "member" if all(clifford) or not any(clifford) else "nonmember"


# ---------------------------------------------------------------------------
# constancy and equality of invariants


@dataclass(frozen=True)
class ConstancyResult:
    status: str  # "constant" | "nonconstant" | "unknown"
    value: Optional[MixedClass] = None
    witness: Optional[int] = None


def is_constant_invariant(alpha: LambdaInvariant) -> ConstancyResult:
    """Constant iff x_d lies in n_Q W(k) for every d > 0; the constant
    value is then chi(r, coeffs).  That needs the even part of x_d in
    n_Q W(k), which nq_membership decides exactly and is checked first,
    and the odd part hyperbolic, so the result is "unknown" only when an
    odd part's hyperbolicity is."""
    A = alpha.algebra
    saw_unknown = False
    for d in range(1, 2 * alpha.r + 1):
        x = alpha.coeffs[d]
        if nq_membership(x.even, A) == "nonmember":
            return ConstancyResult("nonconstant", witness=d)
        odd_status = mixed_equal(mixed(A, odd_entries=x.odd.diag), mixed_zero(A))
        if odd_status == "distinct":
            return ConstancyResult("nonconstant", witness=d)
        if odd_status == "unknown":
            saw_unknown = True
    if saw_unknown:
        return ConstancyResult("unknown")
    return ConstancyResult("constant", value=chi(alpha.r, alpha.coeffs))


def invariant_equal(alpha: LambdaInvariant, beta: LambdaInvariant) -> str:
    """Equality through the presentation: alpha - beta is the zero
    invariant iff it is constant of value 0."""
    res = is_constant_invariant(alpha - beta)
    if res.status == "nonconstant":
        return "distinct"
    if res.status == "unknown":
        return "unknown"
    zero = mixed_equal(res.value, mixed_zero(alpha.algebra))
    if zero == "equal":
        return "equal"
    if zero == "distinct":
        return "distinct"
    return "unknown"


# ---------------------------------------------------------------------------
# versal sampling


@dataclass(frozen=True)
class SampleCheck:
    status: str  # "consistent" | "refuted"
    point: Optional[Tuple[Tuple[int, int, int], ...]] = None


def versal_sample_check(alpha: LambdaInvariant, claimed: MixedClass,
                        n_samples: int = 50, seed: int = 0,
                        height: int = 12) -> SampleCheck:
    """Evaluate alpha on random specializations of the generic diagonal
    form <s i + t j + u ij, ...> (pure-norm vanishing locus rejected) and
    compare against the claimed constant value."""
    A = alpha.algebra
    rng = random.Random(seed)
    for _ in range(n_samples):
        h = AntiHermForm(tuple(draw_pure(rng, A, height)
                               for _slot in range(alpha.r)), A)
        if screened_distinct(eval_invariant(alpha, h), claimed):
            # draw_pure gives integer coordinates, so den is 1
            point = tuple(z.num[1:] for z in h.diag)
            return SampleCheck("refuted", point=point)
    return SampleCheck("consistent")
