"""Anti-hermitian (-1-hermitian) forms over (Q, gamma).

Diagonal forms carry pure invertible quaternion entries.  In the split case
Morita transfer along a nilpotent pure quaternion turns everything into
quadratic forms over the base field, where the decisions are complete.
Over a division algebra, isometry of rank-1 forms is decided exactly
(Skolem-Noether and Hasse-Minkowski); larger forms get hyperbolicity
certificates from a bounded search, which refuses split algebras.  The
search splits off one hyperbolic plane at a time: a plane found on two
slots of the current orthogonal basis drops those slots without a new
Gram-Schmidt, and the pair search skips slot pairs whose reduced-norm
ratio is not a rational square, which no isotropic pair vector has.
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
    NotDivision,
    NotNilpotent,
    NotPureInvertible,
    NotSplit,
    SchemaViolation,
    VerificationFailed,
)
from .fields import QQ, SquareClass, rational_sqrt, square_class
from .quadforms import QuadForm, is_isotropic, qf
from .quaternions import (
    QuatAlgebra,
    Quaternion,
    _mul_coords,
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
    # integer coordinates are in lowest terms over the denominator 1
    zero = Quaternion((0, 0, 0, 0), 1, algebra)
    one = Quaternion((1, 0, 0, 0), 1, algebra)
    return [[one if s == t else zero for t in range(n)] for s in range(n)]


def _quat_inv(x: Quaternion) -> Quaternion:
    n = x.nrd()
    if not n:
        raise ZeroDivisionError("non-invertible quaternion")
    return x.conj().scale(1 / n)


def _normalized(c) -> bool:
    """gcd 1 and first nonzero coordinate positive: one integer tuple per
    line through the origin."""
    return gcd(*c) == 1 and next(v for v in c if v) > 0


def _height_box(bound: int) -> tuple:
    """Integer 4-tuples of height <= bound in lexicographic order (not by
    height: the isotropy tables keep the first quaternion per value, so
    this order fixes the witnesses)."""
    return tuple(itertools.product(range(-bound, bound + 1), repeat=4))


@lru_cache(maxsize=16)
def _normalized_box(bound: int) -> tuple:
    """The _normalized tuples of _height_box(bound), in the same order."""
    return tuple(c for c in _height_box(bound) if _normalized(c))


def _orthogonalize(pair, vectors, algebra: QuatAlgebra):
    """Hermitian Gram-Schmidt of a spanning list of vectors under the
    sesquilinear form `pair`; returns (orthogonal vectors, their values).

    The pivot is the first vector with an invertible value.  Failing that,
    v_s + v_t q for the first (s, t) in permutations order and the first
    normalized q of height 1 (`_mixed_pivot`).  Leftover vectors that all
    pair to zero are dropped, since no mixing can help.
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
    returns s.

    Over a division algebra one exists: there every pool value is 0 and
    some u = pair(v_s, v_t) is not, so the anti-hermitian value of
    v_s + v_t q is u q - gamma(u q), nonzero as soon as u q is not a
    scalar, which q = 1 or q = i achieves."""
    for s, t in itertools.permutations(range(len(pool)), 2):
        for c in _normalized_box(1):
            q = Quaternion(c, 1, algebra)
            cand = [x + y * q for x, y in zip(pool[s], pool[t])]
            if pair(cand, cand).is_invertible():
                pool[s] = cand
                return s


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class HermWittData:
    reduced_dim: int
    disc: SquareClass


def herm_invariants(h: AntiHermForm) -> HermWittData:
    """Reduced dimension and the product of the norms' square classes."""
    disc = SquareClass(1, QQ)
    for z in h.diag:
        disc = disc * square_class(z.nrd())
    return HermWittData(h.reduced_dim, disc)


# ---------------------------------------------------------------------------
# rank-1 isometry and pairwise cancellation (division algebras)


def rank_one_isometric(z1: Quaternion, z2: Quaternion) -> bool:
    """Exact decision of <z1>_gamma ~ <z2>_gamma for pure invertible z1, z2
    over a division algebra.

    The forms are isometric iff gamma(p) z1 p = z2 for some p.  Since
    gamma(p) = Nrd(p) p^-1 this is p^-1 z1 p = z2 / Nrd(p), and comparing
    reduced norms gives Nrd(p)^2 = n2 / n1 (n_k = Nrd(z_k)): no p unless
    n2 / n1 is a square c^2, and then Nrd(p) = c' for c' = c or -c.  By
    Skolem-Noether r^-1 z1 r = z2 / c' has the solution r = z1 + z2 / c'
    (z1 r = z1 z2 / c' - n1 = r z2 / c'), or, when that sum is 0, any pure
    r anticommuting with z1, such as the commutator z1 u - u z1 with u not
    in Q(z1).  All solutions are p = s r with s in Q(z1)^*, whose reduced
    norms are the values of <1, n1>; so p exists iff <1, n1> represents
    c' / Nrd(r), i.e. <1, n1, -c' / Nrd(r)> is isotropic (Hasse-Minkowski).
    """
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


def cancel_hyperbolic_pairs(h: AntiHermForm) -> AntiHermForm:
    """What is left of h, over a division algebra, after greedily cancelling
    pairs of entries z, w with <z> ~ <-w>: each such <z, w> is a hyperbolic
    plane, so the leftover is Witt-equivalent to h.  Every two leftover
    entries were tested against each other, so a rank-2 leftover is
    anisotropic (an isotropic plane is hyperbolic) and h is not 0 in the
    Witt group."""
    left = []
    for z in h.diag:
        k = next((k for k, w in enumerate(left)
                  if rank_one_isometric(z, -w)), None)
        if k is None:
            left.append(z)
        else:
            del left[k]
    return AntiHermForm(tuple(left), h.algebra)


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
    status: str  # "hyperbolic" | "anisotropic-at-bound"
    witness: Optional[Tuple[Tuple[Quaternion, ...], ...]] = None


def _scaled_entries(h: AntiHermForm):
    """The entries of h as integer numerator tuples over d, the lcm of
    their denominators."""
    d = lcm(*(z.den for z in h.diag))
    return [tuple(d // z.den * c for c in z.num) for z in h.diag]


def _sandwich_row(z, box, k):
    """(p, gamma(p) z p) for p in box, lazily, for an integer entry z of
    `_scaled_entries` on the integer table k: the one sandwich routine of
    both isotropy searches."""
    for p in box:
        yield p, _mul_coords(_mul_coords((p[0], -p[1], -p[2], -p[3]), z, k),
                             p, k)


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
    return [list(_sandwich_row(z, box, k)) for z in _scaled_entries(h)]


def _neg(v):
    return tuple(-c for c in v)


def _isotropic_pair_vector(h: AntiHermForm, bound: int):
    """Search v = e_s p + e_t q with h(v, v) = 0, p, q integer quaternions
    of height <= bound, slot pairs (s, t) in order.  Each value is split
    into its content g and its primitive direction; q pairs with the first
    p of the opposite direction whose content ratio g_p / g_q is a square
    lambda^2 (g_p g_q is an integer square), and then v = e_s p + e_t q
    lambda.  No content is factorized; over a division algebra no value
    is 0.

    A hit gamma(p) z_s p = -lambda^2 gamma(q) z_t q has reduced norms
    Nrd(p)^2 n_s = lambda^4 Nrd(q)^2 n_t, so a pair whose norm ratio
    n_t / n_s is not a rational square is skipped.  The direction table
    of slot s is built on first use, and row t is streamed until its
    first hit."""
    k = h.algebra.table
    box = _normalized_box(bound)
    zs = _scaled_entries(h)
    norms = [z.nrd() for z in h.diag]
    by_dir = {}
    for s, t in itertools.combinations(range(h.rank), 2):
        if rational_sqrt(norms[t] / norms[s]) is None:
            continue
        if s not in by_dir:
            table = by_dir[s] = {}
            for p, val in _sandwich_row(zs[s], box, k):
                g = gcd(*val)
                table.setdefault(tuple(c // g for c in val), []).append(
                    (p, g))
        for q, val in _sandwich_row(zs[t], box, k):
            gq = gcd(*val)
            for p, gp in by_dir[s].get(tuple(-c // gq for c in val), ()):
                root = isqrt(gp * gq)
                if root * root != gp * gq:
                    continue
                vec = [Quaternion((0, 0, 0, 0), 1, h.algebra)] * h.rank
                vec[s] = Quaternion(p, 1, h.algebra)
                vec[t] = Quaternion(q, 1, h.algebra).scale(Fraction(root, gq))
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
        return [Quaternion(q, 1, h.algebra) for q in vec]

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
    """Search a totally isotropic half-rank subspace of h over a division
    algebra, splitting hyperbolic planes off recursively; the witness is
    re-verified exactly.  A rank-2 remainder that rank_one_isometric rules
    out ends the search at once as "anisotropic-at-bound".

    A split algebra is refused (NotDivision): Morita transfer decides
    hyperbolicity there exactly (`mixed_equal`, `morita_transfer`)."""
    if bound < 1:
        raise SchemaViolation(f"bound: must be at least 1: {bound}")
    if is_split(h.algebra):
        raise NotDivision("certificates need a division algebra; over a "
                          "split one use mixed_equal or morita_transfer")
    if h.rank % 2:
        return HyperbolicityResult("anisotropic-at-bound")
    alg = h.algebra
    r0 = h.rank
    zero = Quaternion((0, 0, 0, 0), 1, alg)
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
        found = _isotropic_pair_vector(sub, 1)
        # An isotropic e_1 p + e_2 q of <d1, d2> has p, q != 0 (gamma(p) d p
        # = 0 needs p = 0), both invertible, so gamma(p) d1 p = -gamma(q) d2
        # q gives <d1> ~ <-d2>.  If the exact rank-1 test refutes that, no
        # pair search can hit and the hash searches need rank >= 3.
        if (found is None and sub.rank == 2
                and not rank_one_isometric(diag[0], -diag[1])):
            return HyperbolicityResult("anisotropic-at-bound")
        if found is None and bound >= 2:
            found = _isotropic_pair_vector(sub, 2)
        if found is None:
            found = _isotropic_hash_vector(sub, 1, single_bound=min(bound, 4))
        if found is None and bound >= 4:
            found = _isotropic_pair_vector(sub, 4)
        if found is None and bound not in (1, 2, 4):
            found = _isotropic_pair_vector(sub, bound)
        if found is None and bound >= 2 and sub.rank <= 4:
            found = _isotropic_hash_vector(sub, 2, single_bound=2)
        if found is None:
            return HyperbolicityResult("anisotropic-at-bound")
        m = len(diag)
        slots = [i for i, f in enumerate(found) if not f.is_zero()]
        v = [zero] * r0
        for i in slots:
            v = [vk if xk.is_zero() else vk + xk * found[i]
                 for vk, xk in zip(v, basis[i])]
        witness.append(tuple(v))
        if len(slots) == 2:
            # v = b_s f_s + b_t f_t on the orthogonal basis, s < t, with
            # f_s, f_t != 0 (gamma(f) d f = 0 needs f = 0).  h(v, b_i) =
            # gamma(f_i) d_i is nonzero exactly at s and t, so the general
            # split below would pick w = b_s, and span(v, b_s) =
            # span(b_s, b_t) as f_t is invertible.  Its update fixes every
            # other b_i, sends b_s to 0 and b_t to 2 v f_t^-1, which pairs
            # to zero with all that is left; Gram-Schmidt drops it and
            # returns the other b_i and d_i unchanged and in order.
            basis = [x for i, x in enumerate(basis) if i not in slots]
            diag = [d for i, d in enumerate(diag) if i not in slots]
            continue
        # a basis vector w with h(v, w) != 0, hence invertible: v != 0 and
        # the span's form is nondegenerate
        w = next(x for x in basis if not gram_eval(v, x).is_zero())
        beta = gram_eval(v, w)
        binv = _quat_inv(beta)
        hww = gram_eval(w, w)
        gamma_binv = _quat_inv(beta.conj())
        # x' = x - v acoef - w bcoef has h(v, x') = 0 but h(w, x') =
        # 2 (h(w, x) - hww bcoef), as h(w, v) = -gamma(beta): not the
        # projection onto the plane's complement.  It maps the span onto
        # v^perp (w to 0, v to 2 v), whose radical v D Gram-Schmidt
        # drops, leaving a form isometric to v^perp / v D, the complement
        # of the plane span(v, w).  The witnesses depend on this update.
        new_basis = []
        for idx in range(m):
            x = basis[idx]
            bcoef = binv * gram_eval(v, x)
            acoef = gamma_binv * (gram_eval(w, x) - hww * bcoef)
            new_basis.append(_sub_multiple(_sub_multiple(x, v, acoef),
                                           w, bcoef))
        # re-diagonalize v^perp; rank drops by exactly 2
        basis, diag = _orthogonalize(gram_eval, new_basis, alg)
        if len(diag) != m - 2:
            raise DegenerateForm("hyperbolic split lost the wrong rank")
    _verify_witness(gram_eval, witness)
    return HyperbolicityResult("hyperbolic", tuple(witness))


def _verify_witness(pair, witness):
    """Exact check that the witness vectors span a totally isotropic
    subspace of dimension len(witness): every two pair to 0 under `pair`,
    and elimination with scalars on the right finds a pivot in each (the
    two-slot split skips the general split's rank check)."""
    for x in witness:
        for y in witness:
            if not pair(x, y).is_zero():
                raise VerificationFailed("witness failed exact verification")
    pivots = []  # (k, u): u[k] != 0, u[k'] = 0 at every earlier pivot k'
    for x in witness:
        for k, u in pivots:
            if not x[k].is_zero():
                x = _sub_multiple(x, u, _quat_inv(u[k]) * x[k])
        k = next((k for k, c in enumerate(x) if not c.is_zero()), None)
        if k is None:
            raise VerificationFailed("witness vectors are right-linearly "
                                     "dependent")
        pivots.append((k, x))
