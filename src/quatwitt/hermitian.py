"""Anti-hermitian (-1-hermitian) forms over (Q, gamma).

Diagonal forms carry pure invertible quaternion entries.  In the split case
square-multiple pairs <z, -lambda^2 z> cancel as hyperbolic planes, and
Morita transfer along a nilpotent pure quaternion turns what is left into
quadratic forms over the base field, where the decisions are complete.
Over a division algebra, isometry of rank-1 forms is decided exactly, by
`hyperbolic_pair` alone: a square multiple at once (p = lambda), read
by cross-multiplying the integer numerators, with nothing factored, and
any other pair by Skolem-Noether and Hasse-Minkowski, on classes read
from integer numerators (`nrd_class`, `nrd_ratio_root`, `ratio_class`).
Larger forms get hyperbolicity certificates from a bounded search.  The
pair tests and the certificates refuse split algebras, which the first
tiers decide.  The search splits off one hyperbolic plane at a time: a
plane found on two slots of the current orthogonal basis drops those
slots without a new Gram-Schmidt.  A plane on two slots needs their
rank-1 forms to be opposite, so past height 1 the pair searches run only
where the exact rank-1 test pairs two slots.  The searches work on integer
numerators (`_sandwich_row`); while every split is two-slot the witness is
the quaternions they return, placed at their original slots, and only a
split on 3 or 4 slots updates basis rows in quaternion arithmetic.  The
final check reads the witness as integer numerators too, but sums h(x, y)
with the table product `_mul_coords`, never with `_sandwich_row`.
`herm_verdict` runs these tiers as the one test of whether a form is 0 in
the Witt group W^{-1}(Q, gamma); every odd-part verdict asks it.

Entries are checked (pure, invertible, in the form's algebra) where they
enter: by `AntiHermForm(...)`, so by `herm_diag`, `mixed`, the parsers, the
suites and the certificate's Gram-Schmidt values.  Operations that keep
those properties carry the checks over and do not repeat them: `neg`,
`perp`, the leftovers of both pair cancellations (`_cancelled`), the slots
a two-slot split leaves and the odd entries of a mixed product.  The pair
tests never build -w.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

from .errors import (
    AlgebraMismatch,
    DegenerateForm,
    FactorizationLimitExceeded,
    NotDivision,
    NotNilpotent,
    NotPureInvertible,
    NotSplit,
    SchemaViolation,
    VerificationFailed,
    quoted,
)
from .fields import ratio_class, sq_mul, square_class
from .quadforms import (QuadForm, _anis_dim, _local_q, cancel_pairs,
                        is_isotropic, is_witt_zero)
from .quaternions import (
    QuatAlgebra,
    Quaternion,
    _mul_coords,
    _nrd_parts,
    _reduced,
    _trd_parts,
    find_nilpotent,
    is_split,
    norm_form,
    nrd_class,
    nrd_ratio_root,
)
from .record import Record

DEFAULT_SEARCH_BOUND = 8
# The pair search at the full bound b keeps about (2b + 1)^4 / 2 quaternions
# and as many directions: at b = 16 a rank-2 certificate that reaches it
# peaks near 250 MB (CPython 3.11, x86-64).
MAX_SEARCH_BOUND = 16


def check_search_bound(name: str, bound: int) -> None:
    """Refuse (SchemaViolation, naming `name`) a search bound that is not
    an int (True is a bool) or is outside 1..MAX_SEARCH_BOUND.  Bound 0
    would still run the height-1 searches; past the maximum, the memory of
    the full-bound pair search grows as the fourth power of the bound."""
    if type(bound) is not int:
        raise SchemaViolation(f"{name}: must be an integer: {quoted(bound)}")
    if bound < 1:
        raise SchemaViolation(f"{name}: must be at least 1: {quoted(bound)}")
    if bound > MAX_SEARCH_BOUND:
        raise SchemaViolation(
            f"{name}: must be at most {MAX_SEARCH_BOUND}: {quoted(bound)}")


class AntiHermForm(Record):
    """Diagonal anti-hermitian form <z_1,...,z_r>_gamma.

    `AntiHermForm(...)` checks that every entry is pure, invertible and in
    `algebra`.  `neg`, `perp` and the cancellations carry those checks over
    from the forms they start from (`_carried`), so a form is checked once,
    where its entries enter the library."""

    __slots__ = ("diag", "algebra")

    def __init__(self, diag: tuple[Quaternion, ...], algebra: QuatAlgebra):
        for z in diag:
            if z.algebra != algebra:
                raise AlgebraMismatch("entry from a different algebra")
            if not z.is_pure() or not z.is_invertible():
                raise NotPureInvertible(f"{quoted(z)} is not pure invertible")
        self.diag = diag
        self.algebra = algebra

    @classmethod
    def _carried(cls, diag: tuple[Quaternion, ...],
                 algebra: QuatAlgebra) -> "AntiHermForm":
        """The form on entries made from those of checked forms by an
        operation that keeps them pure, invertible and in `algebra`;
        nothing is checked again.  Each caller says why."""
        h = object.__new__(cls)
        h.diag = diag
        h.algebra = algebra
        return h

    @property
    def rank(self) -> int:
        return len(self.diag)

    def perp(self, other: "AntiHermForm") -> "AntiHermForm":
        if self.algebra != other.algebra:
            raise AlgebraMismatch("orthogonal sum across algebras")
        # the sum with the empty form is the other form as it stands
        if not other.diag:
            return self
        if not self.diag:
            return other
        # entries of two checked forms over one algebra
        return AntiHermForm._carried(self.diag + other.diag, self.algebra)

    def neg(self) -> "AntiHermForm":
        # -z is pure and invertible with z, and in its algebra
        return AntiHermForm._carried(tuple(-z for z in self.diag),
                                     self.algebra)

    def __repr__(self):
        return f"Herm<{', '.join(repr(z) for z in self.diag)}>"


def herm_diag(entries: Sequence[Quaternion], algebra: QuatAlgebra) -> AntiHermForm:
    return AntiHermForm(tuple(entries), algebra)


def _quat_inv(x: Quaternion) -> Quaternion:
    return x.conj().scale(1 / x.nrd())


def _height_box(bound: int) -> tuple:
    """The integer 4-tuples of height <= bound in lexicographic order, up
    to 0.  The isotropy tables keep the first quaternion per value, so the
    order fixes the witnesses; gamma(-p) z (-p) = gamma(p) z p, and -p
    precedes p past 0, so no first hit of the whole box lies past 0."""
    side = range(-bound, bound + 1)
    return tuple(itertools.islice(itertools.product(side, repeat=4),
                                  len(side) ** 4 // 2 + 1))


# a certificate asks for at most four heights (1, 2, 4 and its bound;
# `_mixed_pivot` asks for 1), so four boxes serve one call and no more
@lru_cache(maxsize=4)
def _normalized_box(bound: int) -> tuple:
    """The box's tuples of gcd 1 past 0, in order: one per line through 0."""
    side = range(-bound, bound + 1)
    past_zero = itertools.islice(itertools.product(side, repeat=4),
                                 len(side) ** 4 // 2 + 1, None)
    return tuple(c for c in past_zero if gcd(*c) == 1)


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
# square multiples, rank-1 isometry and pairwise cancellation


def square_multiple(z1: Quaternion, z2: Quaternion, sign: int = 1) -> bool:
    """Whether sign z2 = lambda^2 z1 for a rational lambda (sign is 1 or
    -1), for pure z1 and z2; then <z1>_gamma ~ <sign z2>_gamma over any
    quaternion algebra: the scalar p = lambda has gamma(p) = lambda, so
    gamma(p) z1 p = lambda^2 z1.  It reads the integer numerators n1, n2
    and the denominators den1, den2.  With c the first nonzero pure
    coordinate of z1, the numerators are proportional iff n2[k] n1[c] =
    n2[c] n1[k] for k = 1, 2, 3, and then lambda^2 = sign n2[c] den1 /
    (n1[c] den2), a square iff sign n1[c] n2[c] den1 den2 is one: nothing
    is factored or negated."""
    (_, x1, x2, x3), (_, y1, y2, y3) = z1.num, z2.num
    x, y = (x1, y1) if x1 else (x2, y2) if x2 else (x3, y3)  # n1[c], n2[c]
    if y1 * x != x1 * y or y2 * x != x2 * y or y3 * x != x3 * y:
        return False
    m = sign * x * y * z1.den * z2.den
    return m >= 0 and isqrt(m) ** 2 == m


def _refuse_split(algebra: QuatAlgebra, what: str, use: str):
    if is_split(algebra):
        raise NotDivision(f"{what} need a division algebra; over a split "
                          f"one use {use}")


def hyperbolic_pair(z: Quaternion, w: Quaternion) -> bool:
    """Whether <z, w>_gamma is a hyperbolic plane, that is <z> ~ <-w>, for
    pure invertible z, w over a division algebra; -w is never built.

    The forms are isometric iff gamma(p) z p = -w for some p.  Since
    gamma(p) = Nrd(p) p^-1 this is p^-1 z p = -w / Nrd(p), and comparing
    reduced norms gives Nrd(p)^2 = n2 / n1 (n1 = Nrd(z), n2 = Nrd(w) =
    Nrd(-w)): no p unless n2 / n1 is a square c^2, and then Nrd(p) = c'
    for c' = c or -c.  By Skolem-Noether r^-1 z r = -w / c' has the
    solution r = z - w / c' (z r = -z w / c' - n1 = -r w / c').  All
    solutions are p = s r with s in Q(z)^*, whose reduced norms are the
    values of <1, n1>; so p exists iff <1, n1, -c' / Nrd(r)> is isotropic
    (Hasse-Minkowski).  When r = 0, p anticommutes with z: it is pure and
    orthogonal to z, so Nrd(p) is a value of B, <n1> + B = <-a, -b, ab>.
    So p exists iff the kernel of <-a, -b, ab, -n1, -c'> = H + B + <-c'>
    is 1-dimensional (B is anisotropic), read from square classes, so ab
    is never factored.  Square multiples (`square_multiple`, on the
    numerators and denominators of z and w) and norm ratios that are not
    squares (`nrd_ratio_root`, on the integer reduced norms) come first,
    unfactored.

    A split algebra is refused (NotDivision): there r may be a zero
    divisor, and `herm_verdict` and `morita_transfer` decide exactly."""
    _refuse_split(z.algebra, "pair tests", "herm_verdict or morita_transfer")
    return _hyperbolic_pair(z, w)


def _hyperbolic_pair(z: Quaternion, w: Quaternion) -> bool:
    """`hyperbolic_pair` with no split check."""
    if square_multiple(z, w, -1):
        return True
    c = nrd_ratio_root(z, w)
    if c is None:
        return False
    n1 = nrd_class(z)
    for root in (c, -c):
        r = z + w.scale(-1 / root)
        if r.is_zero():
            diag = QuadForm(norm_form(z.algebra).reps()[1:]
                            + (-n1, -square_class(root)))
            if _anis_dim(_local_q(diag)) == 1:
                return True
            continue
        n, d = _nrd_parts(r)  # -root / Nrd(r) = -root d / n
        t = ratio_class(-root.numerator * d, root.denominator * n)
        if is_isotropic(QuadForm((1, n1, t))):
            return True
    return False


def _cancelled(h: AntiHermForm, opposite) -> AntiHermForm:
    """What `cancel_pairs` leaves of h for a pair test `opposite` on two
    entries of h: entries of h, so nothing is checked again."""
    return AntiHermForm._carried(tuple(cancel_pairs(h.diag, opposite)),
                                 h.algebra)


def cancel_hyperbolic_pairs(h: AntiHermForm) -> AntiHermForm:
    """What is left of h, over a division algebra, after greedily cancelling
    pairs of entries z, w with <z> ~ <-w> (`hyperbolic_pair`): each such
    <z, w> is a hyperbolic plane, so the leftover is Witt-equivalent to h.
    Every two leftover entries were tested against each other, so a rank-2
    leftover is anisotropic (an isotropic plane is hyperbolic) and h is not
    0 in the Witt group.  A split algebra is refused (NotDivision), as by
    `hyperbolic_pair`."""
    _refuse_split(h.algebra, "pair tests", "herm_verdict or morita_transfer")
    return _cancelled(h, _hyperbolic_pair)


# ---------------------------------------------------------------------------
# Morita transfer (split case)


def _check_nilpotent(z0: Quaternion):
    if z0.is_zero() or not z0.is_pure() or not (z0 * z0).is_zero():
        raise NotNilpotent(
            f"{quoted(z0)} is not a nonzero nilpotent pure quaternion")


def morita_transfer(h: AntiHermForm, z0: Quaternion) -> QuadForm:
    """The quadratic form transferred along the nilpotent z0: <-T, T z^2>
    per slot with T = Trd(z z0), and <1, -1> when T = 0.  Each entry is
    built from the square classes of T and z^2 = -Nrd(z), so their
    product is never factored whole; T is read from `_trd_parts`."""
    if h.algebra != z0.algebra:
        raise AlgebraMismatch("transfer datum from a different algebra")
    if not is_split(h.algebra):
        raise NotSplit("Morita transfer needs a split algebra")
    _check_nilpotent(z0)
    entries = []
    for z in h.diag:
        tn, td = _trd_parts(z, z0)
        if not tn:
            entries += [1, -1]
        else:
            st = ratio_class(tn, td)
            entries += [-st, sq_mul(st, -nrd_class(z))]
    return QuadForm(tuple(entries))


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


class HyperbolicityResult(Record):
    __slots__ = ("status", "witness")

    def __init__(self, status: str,
                 witness: tuple[tuple[Quaternion, ...], ...] | None = None):
        self.status = status  # "hyperbolic" | "anisotropic-at-bound"
        self.witness = witness


def _numerators(qs):
    """The quaternions qs as integer numerator tuples over d, the lcm of
    their denominators, read from `num` and `den` with no gcd: the entries
    of a form, or a vector's lane."""
    d = lcm(*(q.den for q in qs))
    return [q.num if q.den == d else tuple(d // q.den * c for c in q.num)
            for q in qs]


def _sandwich_row(z, box, k):
    """(p, gamma(p) z p) for p in box, lazily, for an integer entry z of
    `_numerators` on the integer table k = (e, A, B, AB): the one
    sandwich routine of both isotropy searches.

    For pure z and p = p0 + v, v pure, gamma(p) z p = (p0^2 + v^2) z +
    p0 (z v - v z) - 2 beta v for the scalar beta = (v z + z v) / 2.  Below
    s = e (p0^2 + v^2) and t = 2 e beta, and the tuple is e^2 times the
    value: what the two table products, each times e, give."""
    e, a, b, ab = k
    _, z1, z2, z3 = z
    a2, b2, e2 = 2 * a, 2 * b, 2 * e
    za, zb, zab = a2 * z1, b2 * z2, 2 * ab * z3
    for p in box:
        p0, v1, v2, v3 = p
        s = e * p0 * p0 + a * v1 * v1 + b * v2 * v2 - ab * v3 * v3
        t = za * v1 + zb * v2 - zab * v3
        yield p, (0, e * (s * z1 + p0 * b2 * (z3 * v2 - z2 * v3) - t * v1),
                  e * (s * z2 + p0 * a2 * (z1 * v3 - z3 * v1) - t * v2),
                  e * (s * z3 + p0 * e2 * (z1 * v2 - z2 * v1) - t * v3))


def _sandwich_tables(h: AntiHermForm, box):
    """[(p, gamma(p) z p) for p in box] per entry z of h, in integers.

    On the algebra's integer table (`QuatAlgebra.table`, e = den(a) den(b))
    `_sandwich_row` gives e^2 times each value, and each entry is written
    over d, the lcm of the entries' denominators.  Each value is then e^2 d
    times the true one: one positive scalar for the whole form, so exact
    sums, negation, primitive directions and content ratios match exactly
    where those of the true values do.
    """
    k = h.algebra.table
    return [list(_sandwich_row(z, box, k)) for z in _numerators(h.diag)]


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
    of slot s is drawn from its row only as far as a lookup needs: q is
    looked up among the entries drawn so far, which precede the rest in
    box order, and then the row is drawn on until a direction match of
    square content ratio, or its end.  So the first hit is that of the
    whole table.  The table is dropped when s moves on, as combinations
    order never returns to it; row t is streamed until its first hit."""
    k = h.algebra.table
    box = _normalized_box(bound)
    zs = _numerators(h.diag)
    slot = None
    for s, t in itertools.combinations(range(h.rank), 2):
        if nrd_ratio_root(h.diag[s], h.diag[t]) is None:
            continue
        if s != slot:
            slot, table, row = s, {}, _sandwich_row(zs[s], box, k)
        for q, (_, v1, v2, v3) in _sandwich_row(zs[t], box, k):
            gq = gcd(v1, v2, v3)
            want = (-v1 // gq, -v2 // gq, -v3 // gq)
            for p, gp in (table.get(want, ()) if row is None else
                          _drawn_direction(table, row, want)):
                root = isqrt(gp * gq)
                if root * root != gp * gq:
                    continue
                vec = [Quaternion((0, 0, 0, 0), 1, h.algebra)] * h.rank
                vec[s] = Quaternion(p, 1, h.algebra)
                vec[t] = _reduced(tuple(root * c for c in q), gq, h.algebra)
                return vec
            row = None  # a miss has drawn the whole row into the table
    return None


def _drawn_direction(table, row, want):
    """The (p, content) of direction `want`, in box order: first those of
    the table, then those met while drawing the rest of `row` into it."""
    yield from table.get(want, ())
    for p, (_, v1, v2, v3) in row:
        g = gcd(v1, v2, v3)
        direction = (v1 // g, v2 // g, v3 // g)
        table.setdefault(direction, []).append((p, g))
        if direction == want:
            yield p, g


def _isotropic_hash_vector(h: AntiHermForm, bound: int, single_bound: int):
    """Exact search for isotropic vectors supported on 3 or 4 slots: sums
    of sandwich values gamma(q) z_m q over two slots are hashed and matched
    against the negated contribution of one or two further slots."""
    r = h.rank
    if r < 3:
        return None
    rows = _sandwich_tables(h, _height_box(bound))
    single_rows = (rows if single_bound == bound else
                   _sandwich_tables(h, _height_box(single_bound)))
    # P(v) = v1 + m (v2 + m v3) packs a pure value v, m = 8 V + 1 for V the
    # largest |coordinate| in the tables.  P is linear, and injective on
    # vectors whose coordinates are below m / 2 in absolute value.  A key
    # met twice, or a lookup of -P(c) or -key that hits, says that P of a
    # signed sum of at most four values is 0; its coordinates are at most
    # 4 V < m / 2, so that sum is 0: keys and hits are those of the sums.
    m = 8 * max(abs(c) for tab in (rows, single_rows) for row in tab
                for _, val in row for c in val) + 1

    def packed(tab):
        return [[(p, v1 + m * (v2 + m * v3)) for p, (_, v1, v2, v3) in row]
                for row in tab]

    tables = packed(rows)
    single_tables = tables if single_rows is rows else packed(single_rows)

    pair_dicts = {}
    for s, t in itertools.combinations(range(r), 2):
        d = {}
        for p, ap in tables[s]:
            for q, bq in tables[t]:
                d.setdefault(ap + bq, (p, q))
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
                hit = d.get(-aw)
                if hit is not None:
                    vec = build([(s, hit[0]), (t, hit[1]), (u, w)])
                    if vec is not None:
                        return vec
    # 4-slot support: two disjoint pairs
    for ((s, t), d1), ((u, v), d2) in itertools.combinations(
            pair_dicts.items(), 2):
        if len({s, t, u, v}) != 4:
            continue
        for k2, (w1, w2) in d2.items():
            hit = d1.get(-k2)
            if hit is not None:
                vec = build([(s, hit[0]), (t, hit[1]), (u, w1), (v, w2)])
                if vec is not None:
                    return vec
    return None


def hyperbolicity_certificate(h: AntiHermForm,
                              bound: int = DEFAULT_SEARCH_BOUND
                              ) -> HyperbolicityResult:
    """Search a totally isotropic half-rank subspace of h over a division
    algebra, splitting hyperbolic planes off recursively; the witness is
    re-verified exactly.  Past height 1 the pair searches run only when
    `hyperbolic_pair` pairs two remaining slots or cannot factor.

    The witness keeps the quaternions the searches return: while every
    split has been two-slot the basis rows are unit vectors, and each
    found vector is placed at their original slots with no arithmetic.  A
    split on 3 or 4 slots builds the rows and updates them (`_split_plane`).
    `_verify_witness` checks the witness on integer numerators with the
    table product, independently of the searches.

    A split algebra is refused (NotDivision): Morita transfer decides
    hyperbolicity there exactly (`herm_screen`, `morita_transfer`)."""
    check_search_bound("bound", bound)
    _refuse_split(h.algebra, "certificates", "mixed_equal or morita_transfer")
    if h.rank % 2:
        return HyperbolicityResult("anisotropic-at-bound")
    alg = h.algebra
    zero = Quaternion((0, 0, 0, 0), 1, alg)
    sub = h
    # the original slot of each basis row while the rows are unit vectors;
    # `basis` holds the rows from the first split on 3 or 4 slots on
    rows = range(h.rank)
    basis = None
    witness = []
    while sub.diag:
        found = _isotropic_pair_vector(sub, 1)
        # An isotropic e_s p + e_t q has invertible p, q (p = 0 would leave
        # gamma(q) d_t q = 0), so <d_s> ~ <-d_t>: later pair rungs need it.
        try:  # a pair the test cannot factor counts as possible
            pairs = found is None and bound >= 2 and any(
                _hyperbolic_pair(z, w)
                for z, w in itertools.combinations(sub.diag, 2))
        except FactorizationLimitExceeded:
            pairs = True
        if pairs:
            found = _isotropic_pair_vector(sub, 2)
        if found is None:
            found = _isotropic_hash_vector(sub, 1, single_bound=min(bound, 4))
        if found is None and pairs and bound >= 4:
            found = _isotropic_pair_vector(sub, 4)
        if found is None and pairs and bound not in (1, 2, 4):
            found = _isotropic_pair_vector(sub, bound)
        if found is None and bound >= 2 and sub.rank <= 4:
            found = _isotropic_hash_vector(sub, 2, single_bound=2)
        if found is None:
            return HyperbolicityResult("anisotropic-at-bound")
        slots = [i for i, f in enumerate(found) if not f.is_zero()]
        v = [zero] * h.rank
        if basis is None and len(slots) == 2:
            for i in slots:
                v[rows[i]] = found[i]
        else:
            if basis is None:
                one = Quaternion((1, 0, 0, 0), 1, alg)
                basis = [[one if k == o else zero for k in range(h.rank)]
                         for o in rows]
            for i in slots:
                v = [vk if xk.is_zero() else vk + xk * found[i]
                     for vk, xk in zip(v, basis[i])]
        witness.append(tuple(v))
        if len(slots) == 2:
            # v = b_s f_s + b_t f_t on the orthogonal basis, s < t, with
            # f_s, f_t != 0 (gamma(f) d f = 0 needs f = 0).  h(v, b_i) =
            # gamma(f_i) d_i is nonzero exactly at s and t, so the general
            # split would pick w = b_s, and span(v, b_s) = span(b_s, b_t)
            # as f_t is invertible.  Its update fixes every other b_i,
            # sends b_s to 0 and b_t to 2 v f_t^-1, which pairs to zero
            # with all that is left; Gram-Schmidt drops it and returns the
            # other b_i and d_i unchanged and in order.  They are entries
            # of the checked form `sub`.
            if basis is None:
                rows = [o for i, o in enumerate(rows) if i not in slots]
            else:
                basis = [x for i, x in enumerate(basis) if i not in slots]
            sub = AntiHermForm._carried(
                tuple(d for i, d in enumerate(sub.diag) if i not in slots),
                alg)
            continue
        basis, values = _split_plane(h, basis, v)
        # the Gram-Schmidt values are new entries, checked where they enter
        sub = AntiHermForm(tuple(values), alg)
    _verify_witness(h, witness)
    return HyperbolicityResult("hyperbolic", tuple(witness))


def _split_plane(h: AntiHermForm, basis, v):
    """The orthogonal basis rows and values of the complement of a
    hyperbolic plane through the isotropic v in the span of `basis`, in
    quaternion arithmetic on the original slots of h; the rank drops by
    exactly 2 (DegenerateForm otherwise)."""
    zero = Quaternion((0, 0, 0, 0), 1, h.algebra)

    def gram_eval(x, y):
        # basis rows, witnesses and projections are mostly zero slots
        acc = zero
        for xk, z, yk in zip(x, h.diag, y):
            if not (xk.is_zero() or yk.is_zero()):
                acc = acc + xk.conj() * z * yk
        return acc

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
    for x in basis:
        bcoef = binv * gram_eval(v, x)
        acoef = gamma_binv * (gram_eval(w, x) - hww * bcoef)
        new_basis.append(_sub_multiple(_sub_multiple(x, v, acoef),
                                       w, bcoef))
    # re-diagonalize v^perp; rank drops by exactly 2
    basis_out, values = _orthogonalize(gram_eval, new_basis, h.algebra)
    if len(values) != len(basis) - 2:
        raise DegenerateForm("hyperbolic split lost the wrong rank")
    return basis_out, values


def _conj_coords(x):
    x0, x1, x2, x3 = x
    return x0, -x1, -x2, -x3


def _verify_witness(h: AntiHermForm, witness) -> None:
    """Exact check, independent of the search, that the witness vectors
    span a totally isotropic subspace of h of dimension len(witness);
    VerificationFailed otherwise.

    Each vector is read as a lane, the integer numerators of its slots
    over one denominator (`_numerators`), as the entries z_k of h are.
    h(x, y) = sum gamma(x_k) z_k y_k, summed on them with `_mul_coords`,
    is a positive multiple of the true value and must be 0 for every x
    and every y from x on: h(y, x) = -gamma(h(x, y)), as each z_k is pure.

    Right-linear independence is fraction-free elimination on the same
    integers: a pivot lane u with u_k != 0 clears slot k of a later lane
    x by x Nrd(u_k) - u gamma(u_k) x_k, a nonzero multiple of x - u u_k^-1
    x_k.  Each table product carries a factor e = table[0], so the table
    gives the second term times e^2 and Nrd(u_k) times e, which x is
    scaled by times e.  A lane that reaches 0 is dependent.  The two-slot
    split skips the general split's rank check, so this checks the
    dimension."""
    k = h.algebra.table
    e = k[0]
    zs = _numerators(h.diag)
    lanes = [_numerators(x) for x in witness]
    for n, x in enumerate(lanes):
        left = [(s, _mul_coords(_conj_coords(xs), zs[s], k))
                for s, xs in enumerate(x) if any(xs)]
        for y in lanes[n:]:
            terms = [_mul_coords(ls, y[s], k) for s, ls in left if any(y[s])]
            if any(map(sum, zip(*terms))):
                raise VerificationFailed("witness failed exact verification")
    pivots = []  # (s, u): u[s] != 0, u[s'] = 0 at every earlier pivot s'
    for x in lanes:
        for s, u in pivots:
            if any(x[s]):
                g = _conj_coords(u[s])
                scale = e * _mul_coords(g, u[s], k)[0]
                c = _mul_coords(g, x[s], k)
                x = [tuple(scale * a - b
                           for a, b in zip(xj, _mul_coords(uj, c, k)))
                     for xj, uj in zip(x, u)]
        s = next((s for s, xs in enumerate(x) if any(xs)), None)
        if s is None:
            raise VerificationFailed("witness vectors are right-linearly "
                                     "dependent")
        pivots.append((s, x))


# ---------------------------------------------------------------------------
# the zero test in W^{-1}(Q, gamma)


def herm_screen(h: AntiHermForm) -> str | None:
    """The exact, cheap tier of the zero test of h: "equal", "distinct" or
    None.  Over a split algebra the pairs z, w with w = -lambda^2 z,
    lambda rational, cancel first (`square_multiple`): (lambda, 1) is
    isotropic in <z, -lambda^2 z> over any quaternion algebra, so each
    such pair is a hyperbolic plane.  When nothing is left h = 0, and no
    nilpotent is searched; otherwise `is_witt_zero` decides on the Morita
    transfer of the leftover along `find_nilpotent`, which is Witt-
    equivalent to h.  Over a division algebra h != 0 for an odd rank or
    for a reduced-norm discriminant that is not a square: at even rank,
    the product of the integer numerators Nrd(z) e den^2, read by `isqrt`
    with nothing factored (the factors e den^2 multiply to a square).
    These screens are unsound over a split algebra, where <i> over (1, 1)
    is 0."""
    if is_split(h.algebra):
        left = _cancelled(h, lambda z, w: square_multiple(z, w, -1))
        if not left.diag:
            return "equal"
        q = morita_transfer(left, find_nilpotent(h.algebra))
        return "equal" if is_witt_zero(q) else "distinct"
    disc = prod(z._nrd_num() for z in h.diag)
    square = not h.rank % 2 and disc > 0 and isqrt(disc) ** 2 == disc
    return None if square else "distinct"


def herm_verdict(h: AntiHermForm,
                 search_bound: int = DEFAULT_SEARCH_BOUND) -> str:
    """Whether h is 0 in W^{-1}(Q, gamma): "equal", "distinct" or
    "unknown".  After `herm_screen`, pairs cancel by the exact rank-1
    isometry test (`cancel_hyperbolic_pairs`): nothing left is "equal", a
    rank-2 leftover is anisotropic, so "distinct".  A leftover of rank >= 4
    is "equal" with a certificate within `search_bound`, else "unknown"."""
    verdict = herm_screen(h)
    if verdict is not None:
        return verdict
    # herm_screen has decided every split algebra
    left = _cancelled(h, _hyperbolic_pair)
    if left.rank < 4:
        return "distinct" if left.rank else "equal"
    cert = hyperbolicity_certificate(left, bound=search_bound)
    return "equal" if cert.status == "hyperbolic" else "unknown"
