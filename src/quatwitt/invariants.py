"""Lambda operations on anti-hermitian forms and the module of formal
invariants sum_d x_d lambda^d.

lambda^2(<z>) = <Nrd z> and lambda^d(<z>) = 0 for d > 2, so lambda of a
diagonal form is the convolution of the per-entry polynomials
1 + <z> t + <Nrd z> t^2 with products taken in the mixed ring.  Constancy
of an invariant reduces to membership of its higher coefficients in the
ideal n_Q W(k), decided by a bounded search plus sound local screens.
"""

from __future__ import annotations

import itertools
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
    _square_class_candidates,
    local_anisotropic_dim,
    qf,
    signature,
    witt_class,
    witt_equal,
)
from .quaternions import QuatAlgebra, draw_pure, norm_forms


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


NQ_SEARCH_TERMS = 2


def nq_membership(x: WittClass, A: QuatAlgebra) -> str:
    """Tri-state membership of x in the ideal n_Q W(Q):
    "member", "nonmember" or "unknown".

    Sound negatives come from local screens: wherever the algebra splits
    locally the ideal restricts to 0, and at the real place signatures of
    multiples of n_Q are divisible by 4.  Positives come from a bounded
    search for y with x = n_Q (x) y, a sum of at most NQ_SEARCH_TERMS square
    classes supported on the primes of x and 2ab.
    """
    nq = n_q_class(A)
    if nq.is_zero():
        return "member" if x.is_zero() else "nonmember"
    if x.is_zero():
        return "member"
    if x.anis.dim % 2:
        return "nonmember"
    a, b = A.a, A.b
    if hilbert_symbol(a, b, REAL_PLACE) == 1:
        if signature(x.anis) != 0:
            return "nonmember"
    elif signature(x.anis) % 4:
        return "nonmember"
    primes = relevant_primes(list(x.anis.reps()) + [a, b])
    # the class must restrict to 0 in W(Q_p) wherever the algebra splits
    for p in primes:
        if hilbert_symbol(a, b, finite_place(p)) == 1 \
                and local_anisotropic_dim(x.anis, p):
            return "nonmember"
    # bounded positive search
    cands = _square_class_candidates(primes)
    nqf = nq.anis
    for k in range(1, NQ_SEARCH_TERMS + 1):
        for combo in itertools.combinations_with_replacement(cands, k):
            y = qf(list(combo))
            if witt_equal(x.anis, nqf.tensor(y)):
                return "member"
    return "unknown"


# ---------------------------------------------------------------------------
# constancy and equality of invariants


@dataclass(frozen=True)
class ConstancyResult:
    status: str  # "constant" | "nonconstant" | "unknown"
    value: Optional[MixedClass] = None
    witness: Optional[int] = None


def is_constant_invariant(alpha: LambdaInvariant) -> ConstancyResult:
    """Constant iff x_d lies in n_Q W(k) for every d > 0; the constant
    value is then chi(r, coeffs)."""
    A = alpha.algebra
    saw_unknown = False
    for d in range(1, 2 * alpha.r + 1):
        x = alpha.coeffs[d]
        odd_status = mixed_equal(mixed(A, odd_entries=x.odd.diag), mixed_zero(A))
        if odd_status == "distinct":
            return ConstancyResult("nonconstant", witness=d)
        if odd_status == "unknown":
            saw_unknown = True
            continue
        m = nq_membership(x.even, A)
        if m == "nonmember":
            return ConstancyResult("nonconstant", witness=d)
        if m == "unknown":
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
