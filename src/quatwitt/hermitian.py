"""Anti-hermitian (-1-hermitian) forms over (Q, gamma).

Diagonal forms carry pure invertible quaternion entries.  In the split case
Morita transfer along a nilpotent pure quaternion turns everything into
quadratic forms over the base field, which is where all complete decisions
happen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Optional, Sequence, Tuple

from .errors import (
    AlgebraMismatch,
    DegenerateForm,
    NotNilpotent,
    NotPureInvertible,
    NotSplit,
    SearchBoundExceeded,
    VerificationFailed,
)
from .fields import SquareClass, square_class
from .quadforms import QuadForm, qf
from .quaternions import (
    QuatAlgebra,
    Quaternion,
    _mul_coords,
    height_shell,
    is_split,
)

DEFAULT_SEARCH_BOUND = 8


@dataclass(frozen=True)
class AntiHermForm:
    """Diagonal anti-hermitian form <z_1,...,z_r>_gamma."""

    diag: Tuple[Quaternion, ...]
    algebra: QuatAlgebra

    def __post_init__(self):
        for z in self.diag:
            if z.algebra != self.algebra:
                raise AlgebraMismatch("entry from a different algebra")
            if not z.is_pure() or not z.is_invertible():
                raise NotPureInvertible(f"{z!r} is not pure invertible")

    @property
    def rank(self) -> int:
        return len(self.diag)

    @property
    def reduced_dim(self) -> int:
        return 2 * len(self.diag)

    def perp(self, other: "AntiHermForm") -> "AntiHermForm":
        if self.algebra != other.algebra:
            raise AlgebraMismatch("orthogonal sum across algebras")
        return AntiHermForm(self.diag + other.diag, self.algebra)

    def neg(self) -> "AntiHermForm":
        return AntiHermForm(tuple(-z for z in self.diag), self.algebra)

    def __repr__(self):
        return f"Herm<{', '.join(repr(z) for z in self.diag)}>"


def herm_diag(entries: Sequence[Quaternion], algebra: QuatAlgebra) -> AntiHermForm:
    return AntiHermForm(tuple(entries), algebra)


def _identity(algebra: QuatAlgebra, n: int):
    zero = algebra.element(0, 0, 0, 0)
    return [[algebra.one() if s == t else zero for t in range(n)]
            for s in range(n)]


def _quat_inv(x: Quaternion) -> Quaternion:
    n = x.nrd()
    if not n:
        raise ZeroDivisionError("non-invertible quaternion")
    return x.conj().scale(1 / n)


def _normalized(c) -> bool:
    """gcd 1 and first nonzero coordinate positive: one integer tuple per
    line through the origin."""
    return gcd(*c) == 1 and next(v for v in c if v) > 0


@lru_cache(maxsize=16)
def _height_box(bound: int) -> tuple:
    """Integer 4-tuples of height <= bound in lexicographic order (not by
    height: the isotropy tables keep the first quaternion per value, so
    this order fixes the witnesses)."""
    return tuple(sorted(itertools.chain.from_iterable(
        height_shell(h, 4) for h in range(bound + 1))))


@lru_cache(maxsize=16)
def _normalized_box(bound: int) -> tuple:
    """The _normalized tuples of _height_box(bound), in the same order."""
    return tuple(c for c in _height_box(bound) if _normalized(c))


def _orthogonalize(pair, vectors, algebra: QuatAlgebra):
    """Hermitian Gram-Schmidt of a spanning list of vectors under the
    sesquilinear form `pair`; returns (orthogonal vectors, their values).

    The pivot is the first vector with an invertible value.  Failing that,
    v_s + v_t q for the first (s, t) in permutations order and the first
    normalized q of height 1.  Leftover vectors that all pair to zero are
    dropped, since no mixing can help; SearchBoundExceeded when mixing
    finds no pivot.
    """
    pool = [v for v in vectors if not all(c.is_zero() for c in v)]
    basis, values = [], []
    while pool:
        piv = next((k for k, v in enumerate(pool)
                    if pair(v, v).is_invertible()), None)
        if piv is None:
            if all(pair(x, y).is_zero() for x in pool for y in pool):
                break
            piv = _mixed_pivot(pair, pool, algebra)
        v = pool.pop(piv)
        d = pair(v, v)
        basis.append(v)
        values.append(d)
        dinv = _quat_inv(d)
        projected = []
        for x in pool:
            w = _sub_multiple(x, v, dinv * pair(v, x))
            if not all(q.is_zero() for q in w):
                projected.append(w)
        pool = projected
    return basis, values


def _sub_multiple(x, v, c):
    """The vector x - v c, skipping the products in zero slots of v."""
    if c.is_zero():
        return list(x)
    return [xk if vk.is_zero() else xk - vk * c for xk, vk in zip(x, v)]


def _mixed_pivot(pair, pool, algebra) -> int:
    """Replace pool[s] by the first invertible v_s + v_t q, q of height 1;
    returns s."""
    for s, t in itertools.permutations(range(len(pool)), 2):
        for c in height_shell(1, 4):
            if not _normalized(c):
                continue
            q = algebra.element(*c)
            cand = [x + y * q for x, y in zip(pool[s], pool[t])]
            if pair(cand, cand).is_invertible():
                pool[s] = cand
                return s
    raise SearchBoundExceeded("no invertible pivot within search bound")


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class HermWittData:
    reduced_dim: int
    disc: SquareClass


def herm_invariants(h: AntiHermForm) -> HermWittData:
    """Reduced dimension and the reduced-norm discriminant."""
    prod = Fraction(1)
    for z in h.diag:
        prod *= z.nrd()
    return HermWittData(h.reduced_dim, square_class(prod))


# ---------------------------------------------------------------------------
# Morita transfer (split case)


def _check_nilpotent(z0: Quaternion):
    if z0.is_zero() or not z0.is_pure() or not (z0 * z0).is_zero():
        raise NotNilpotent(f"{z0!r} is not a nonzero nilpotent pure quaternion")


def trd_coefficients(z: Quaternion) -> Tuple[Fraction, Fraction, Fraction]:
    """(l1, l2, l3) = (2a z1, 2b z2, -2ab z3) for a pure z: the linear form
    Trd(z (c1 i + c2 j + c3 ij)) = l1 c1 + l2 c2 + l3 c3."""
    a, b = z.algebra.a, z.algebra.b
    _, z1, z2, z3 = z.num
    d = z.den
    return (Fraction(2 * z1, d) * a, Fraction(2 * z2, d) * b,
            Fraction(-2 * z3, d) * a * b)


def morita_transfer_entries(h: AntiHermForm, c) -> list:
    """Diagonal entries of the quadratic form transferred along the
    nilpotent c1 i + c2 j + c3 ij, given by its rational pure coordinates
    c: <-T, T z^2> per slot with T = Trd(z (c1 i + c2 j + c3 ij)), and
    <1, -1> when T = 0.  The caller vouches for nilpotency."""
    out = []
    for z in h.diag:
        l1, l2, l3 = trd_coefficients(z)
        t = l1 * c[0] + l2 * c[1] + l3 * c[2]
        if not t:
            out.extend([Fraction(1), Fraction(-1)])
        else:
            zsq = -z.nrd()  # z^2 for pure z
            out.extend([-t, t * zsq])
    return out


def morita_transfer(h: AntiHermForm, z0: Quaternion) -> QuadForm:
    if h.algebra != z0.algebra:
        raise AlgebraMismatch("transfer datum from a different algebra")
    if not is_split(h.algebra):
        raise NotSplit("Morita transfer needs a split algebra")
    _check_nilpotent(z0)
    return qf(morita_transfer_entries(h, z0.coords[1:]))


def morita_gram(z: Quaternion, z0: Quaternion):
    """The 2x2 Gram of b_{z0,z} on the basis (z0, z z0); None when
    Trd(z z0) = 0 (the basis degenerates, the form is hyperbolic)."""
    _check_nilpotent(z0)
    t = (z * z0).trd()
    if not t:
        return None
    # b(z1 z0, z2 z0) = -Trd(z0 gamma(z1) z z2) on the basis (z0, z z0),
    # i.e. z1, z2 running over (1, z)
    gens = [z.algebra.one(), z]
    return [[-(z0 * x.conj() * z * y).trd() for y in gens] for x in gens]


# ---------------------------------------------------------------------------
# hyperbolicity certificates


@dataclass(frozen=True)
class HyperbolicityResult:
    status: str  # "hyperbolic" | "anisotropic-at-bound" | "unknown"
    witness: Optional[Tuple[Tuple[Quaternion, ...], ...]] = None


def _sandwich_tables(h: AntiHermForm, box):
    """[(p, gamma(p) z p) for p in box] per entry z of h, in integers.

    On the algebra's integer table (`QuatAlgebra.table`, e = den(a) den(b))
    every product of integer coordinates comes out times e, and each entry
    is written over d, the lcm of the entries' denominators.  Each value is
    then e^2 d times the true one: one positive scalar for the whole form,
    so exact sums, negation, primitive directions and content ratios match
    exactly where those of the true values do.
    """
    k = h.algebra.table
    d = lcm(*(z.den for z in h.diag))
    zs = [tuple(d // z.den * c for c in z.num) for z in h.diag]
    return [[(p, _mul_coords(_mul_coords((p[0], -p[1], -p[2], -p[3]), z, k),
                             p, k)) for p in box]
            for z in zs]


def _neg(v):
    return tuple(-c for c in v)


def _isotropic_pair_vector(h: AntiHermForm, bound: int):
    """Search v = e_s p + e_t q with h(v, v) = 0, p, q integer quaternions
    of height <= bound.  Each value is split into its content g and its
    primitive direction; q pairs with the first p of the opposite direction
    whose content ratio g_p / g_q is a square lambda^2 (g_p g_q is an
    integer square), and then v = e_s p + e_t q lambda.  No content is
    factorized.  Zero values (zero divisors of a split algebra) are
    skipped."""
    r = h.rank
    rows, by_dir = [], []
    for entries in _sandwich_tables(h, _normalized_box(bound)):
        row, table = [], {}
        for p, val in entries:
            g = gcd(*val)
            if g:
                d = tuple(c // g for c in val)
                row.append((p, d, g))
                table.setdefault(d, []).append((p, g))
        rows.append(row)
        by_dir.append(table)
    for s in range(r):
        for t in range(s + 1, r):
            for q, d, gq in rows[t]:
                for p, gp in by_dir[s].get(_neg(d), ()):
                    root = isqrt(gp * gq)
                    if root * root != gp * gq:
                        continue
                    vec = [h.algebra.element(0, 0, 0, 0)] * r
                    vec[s] = h.algebra.element(*p)
                    vec[t] = h.algebra.element(*q).scale(
                        Fraction(root, gq))
                    return vec
    return None


def _isotropic_hash_vector(h: AntiHermForm, bound: int, single_bound: int):
    """Exact search for isotropic vectors supported on 3 or 4 slots: sums
    of sandwich values gamma(q) z_m q over two slots are hashed and matched
    against the negated contribution of one or two further slots."""
    r = h.rank
    if r < 3:
        return None
    tables = _sandwich_tables(h, _height_box(bound))
    single_tables = (tables if single_bound == bound else
                     _sandwich_tables(h, _height_box(single_bound)))

    pair_dicts = {}
    for s, t in itertools.combinations(range(r), 2):
        d = {}
        for p, ap in tables[s]:
            a0, a1, a2, a3 = ap
            for q, (b0, b1, b2, b3) in tables[t]:
                d.setdefault((a0 + b0, a1 + b1, a2 + b2, a3 + b3), (p, q))
        pair_dicts[(s, t)] = d

    def build(assign):
        vec = [(0, 0, 0, 0)] * r
        for idx, q in assign:
            vec[idx] = q
        if not any(any(q) for q in vec):
            return None
        return [h.algebra.element(*q) for q in vec]

    # 3-slot support: pair (s, t) against a single slot u
    for (s, t), d in pair_dicts.items():
        for u in range(r):
            if u in (s, t):
                continue
            for w, aw in single_tables[u]:
                hit = d.get(_neg(aw))
                if hit is not None:
                    vec = build([(s, hit[0]), (t, hit[1]), (u, w)])
                    if vec is not None:
                        return vec
    # 4-slot support: two disjoint pairs
    pairs = sorted(pair_dicts)
    for i1 in range(len(pairs)):
        s, t = pairs[i1]
        d1 = pair_dicts[pairs[i1]]
        for i2 in range(i1 + 1, len(pairs)):
            u, v2 = pairs[i2]
            if len({s, t, u, v2}) != 4:
                continue
            d2 = pair_dicts[pairs[i2]]
            for k2, (w1, w2) in d2.items():
                hit = d1.get(_neg(k2))
                if hit is not None:
                    vec = build([(s, hit[0]), (t, hit[1]), (u, w1), (v2, w2)])
                    if vec is not None:
                        return vec
    return None


def hyperbolicity_certificate(h: AntiHermForm,
                              bound: int = DEFAULT_SEARCH_BOUND
                              ) -> HyperbolicityResult:
    """Search a totally isotropic half-rank subspace, splitting hyperbolic
    planes off recursively; the witness is re-verified exactly."""
    if h.rank % 2:
        return HyperbolicityResult("anisotropic-at-bound")
    alg = h.algebra
    r0 = h.rank
    zero = alg.element(0, 0, 0, 0)
    # work with the Gram (diagonal) and a basis in original coordinates
    basis = _identity(alg, r0)
    diag = list(h.diag)
    witness = []

    def gram_eval(x, y):
        # basis columns, witnesses and projections are mostly zero slots
        acc = zero
        for xk, z, yk in zip(x, h.diag, y):
            if not (xk.is_zero() or yk.is_zero()):
                acc = acc + xk.conj() * z * yk
        return acc

    while diag:
        sub = AntiHermForm(tuple(diag), alg)
        found = None
        for b in (1, 2):
            if b > bound:
                break
            found = _isotropic_pair_vector(sub, b)
            if found is not None:
                break
        if found is None:
            found = _isotropic_hash_vector(sub, 1, single_bound=min(bound, 4))
        if found is None and bound >= 4:
            found = _isotropic_pair_vector(sub, 4)
        if found is None and bound > 4:
            found = _isotropic_pair_vector(sub, bound)
        if found is None and bound >= 2 and sub.rank <= 4:
            found = _isotropic_hash_vector(sub, 2, single_bound=2)
        if found is None:
            return HyperbolicityResult("anisotropic-at-bound")
        m = len(diag)
        v = [zero] * r0
        for x, f in zip(basis, found):
            if not f.is_zero():
                v = [vk if xk.is_zero() else vk + xk * f
                     for vk, xk in zip(v, x)]
        witness.append(tuple(v))
        # a basis vector w with h(v, w) invertible; no right multiple x q
        # can do better, since h(v, x q) = h(v, x) q and Nrd is multiplicative
        w = next((x for x in basis if gram_eval(v, x).is_invertible()), None)
        if w is None:
            return HyperbolicityResult("unknown")
        beta = gram_eval(v, w)
        binv = _quat_inv(beta)
        hww = gram_eval(w, w)
        gamma_binv = _quat_inv(beta.conj())
        new_basis = []
        for idx in range(m):
            x = basis[idx]
            bcoef = binv * gram_eval(v, x)
            acoef = gamma_binv * (gram_eval(w, x) - hww * bcoef)
            new_basis.append(_sub_multiple(_sub_multiple(x, v, acoef),
                                           w, bcoef))
        # re-diagonalize the projected span; rank drops by exactly 2
        try:
            basis, diag = _orthogonalize(gram_eval, new_basis, alg)
        except SearchBoundExceeded:
            return HyperbolicityResult("unknown")
        if len(diag) != m - 2:
            raise DegenerateForm("hyperbolic split lost the wrong rank")
    # exact verification of the witness
    for x in witness:
        for y in witness:
            val = gram_eval(list(x), list(y))
            if not val.is_zero():
                raise VerificationFailed("witness failed exact verification")
    return HyperbolicityResult("hyperbolic", tuple(witness))
