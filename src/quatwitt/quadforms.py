"""Quadratic forms and the Witt ring W(k) for k = Q or F_p.

Diagonal forms carry square-class entries.  Over F_p the pair (dim mod 2,
signed discriminant) classifies W(F_p).

Over Q one local classification does the work (Serre, *A Course in
Arithmetic*, Ch. IV).  A diagonal of squarefree entries is summarised by its
dimension, discriminant, signature and Hasse symbols at 2 and at the primes
of its entries; these give the dimension of its anisotropic part over every
Q_p.  By Hasse-Minkowski the anisotropic kernel over Q has the largest of
the local dimensions and the signature, which decides isotropy and Witt
equality.  The kernel is built slot by slot: while k >= 2 slots remain, the
first candidate square class c with dim(x - <c>) = k - 1 is a value of the
kernel, so <c> splits off.  Candidates are the entries, the square classes
on the primes of x, and those times one further prime; Dirichlet's theorem
puts a value of the kernel among the last, so the search always ends.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DegenerateForm,
    EvenOrCompositeModulus,
    FieldMismatch,
    NonSymmetricMatrix,
    UnsupportedField,
    VerificationFailed,
    ZeroSlot,
)
from .fields import (
    REAL_PLACE,
    FieldSpec,
    Place,
    QQ,
    SquareClass,
    factorize,
    finite_place,
    hilbert_symbol_p,
    is_padic_square,
    is_prime,
    sq_mul,
    square_class,
)

# ---------------------------------------------------------------------------
# diagonal forms


@dataclass(frozen=True)
class QuadForm:
    """Diagonal quadratic form; entries are square classes, order is
    irrelevant up to isometry."""

    entries: Tuple[SquareClass, ...]
    field: FieldSpec = QQ

    def __post_init__(self):
        for e in self.entries:
            if e.field != self.field:
                raise FieldMismatch("entry field does not match form field")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def reps(self) -> Tuple[int, ...]:
        return tuple(e.repr for e in self.entries)

    def perp(self, other: "QuadForm") -> "QuadForm":
        if self.field != other.field:
            raise FieldMismatch("orthogonal sum over different fields")
        return QuadForm(self.entries + other.entries, self.field)

    def neg(self) -> "QuadForm":
        return QuadForm(tuple(-e for e in self.entries), self.field)

    def scale(self, c: SquareClass) -> "QuadForm":
        return QuadForm(tuple(c * e for e in self.entries), self.field)

    def tensor(self, other: "QuadForm") -> "QuadForm":
        if self.field != other.field:
            raise FieldMismatch("tensor over different fields")
        entries = tuple(
            a * b for a in self.entries for b in other.entries
        )
        return QuadForm(entries, self.field)

    def __repr__(self):
        return "<" + ",".join(str(r) for r in self.reps()) + ">"


def qf(values: Iterable, field: FieldSpec = QQ) -> QuadForm:
    """Diagonal form from raw nonzero field elements."""
    return QuadForm(tuple(square_class(v, field) for v in values), field)


EMPTY = QuadForm((), QQ)


def hyperbolic(m: int, field: FieldSpec = QQ) -> QuadForm:
    return qf([1, -1] * m, field)


# ---------------------------------------------------------------------------
# invariants


def signature(q: QuadForm) -> int:
    if q.field.kind != "Q":
        raise UnsupportedField("signature only defined over Q")
    return sum(1 if r > 0 else -1 for r in q.reps())


def signed_disc(q: QuadForm) -> SquareClass:
    n = q.dim
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    out = square_class(sign, q.field)
    for e in q.entries:
        out = out * e
    return out


def hasse_at(q: QuadForm, v: Place) -> int:
    if v.kind == "real":
        return _hyperbolic_hasse(sum(1 for r in q.reps() if r < 0), -1)
    if v.kind != "finite":
        raise UnsupportedField(f"Hasse symbol of a form over Q at {v}")
    return _local_q(q).hasse.get(v.p, 1)


@dataclass(frozen=True)
class WittInvariants:
    dim: int
    signed_disc: SquareClass
    hasse: Dict[Place, int]
    signature: Optional[int]


def witt_invariants(q: QuadForm) -> WittInvariants:
    """Classical invariants: dimension, signed discriminant, Hasse symbols
    at the relevant places, and (over Q) the signature."""
    if q.field.kind == "Q":
        loc = _local_q(q)
        hasse = {REAL_PLACE: _hyperbolic_hasse((loc.dim - loc.sig) // 2, -1)}
        hasse.update((finite_place(p), s)
                     for p, s in sorted(loc.hasse.items()))
        disc = SquareClass(_signed(loc.dim, loc.disc), QQ)
        return WittInvariants(loc.dim, disc, hasse, loc.sig)
    if q.field.kind == "Fp":
        return WittInvariants(q.dim, signed_disc(q), {}, None)
    raise UnsupportedField("invariants over Q(t) live in funcfield")


# ---------------------------------------------------------------------------
# local classification over Q_p


class _Local(NamedTuple):
    """Invariants of a diagonal of squarefree integers: dimension, plain
    discriminant, signature, and the Hasse symbols keyed by the prime, at 2
    and at the odd primes of the entries (the symbol is 1 at every other
    prime)."""

    dim: int
    disc: int
    sig: int
    hasse: Dict[int, int]


_NO_ENTRIES = _Local(0, 1, 0, {2: 1})


def _hasse_with(loc: _Local, c: int):
    """The Hasse symbols (p, s_p) of x + <c>, one prime at a time: s_p
    picks up (disc x, c)_p, and an odd prime new in c enters with 1.

    The primes of loc are divided out of c first, so only the cofactor
    is factored: kernel candidates are products of many known primes, and
    two known primes above 10^6 would leave trial division a cofactor it
    cannot certify."""
    rest = abs(c)
    for p in loc.hasse:
        while rest % p == 0:
            rest //= p
    new = [p for p, _ in factorize(rest)[1]]
    for p in itertools.chain(loc.hasse, new):
        yield p, loc.hasse.get(p, 1) * hilbert_symbol_p(loc.disc, c, p)


def _adjoin(loc: _Local, c: int) -> _Local:
    """Invariants of x + <c> from those of x, for a squarefree integer c."""
    return _Local(loc.dim + 1, sq_mul(loc.disc, c),
                  loc.sig + (1 if c > 0 else -1), dict(_hasse_with(loc, c)))


# cache bounds as in fields: 4x what `check all` or a benchmark run fills
@lru_cache(maxsize=2**16)
def _local_data(reps: Tuple[int, ...]) -> _Local:
    loc = _NO_ENTRIES
    for r in reps:
        loc = _adjoin(loc, r)
    return loc


def _local_q(q: QuadForm) -> _Local:
    # the invariants do not depend on the order, so sort for cache hits
    return _local_data(tuple(sorted(q.reps())))


def _signed(n: int, disc: int) -> int:
    """Signed discriminant (-1)^(n(n-1)/2) disc."""
    return -disc if n * (n - 1) // 2 % 2 else disc


def _hyperbolic_hasse(m: int, p: int) -> int:
    """Hasse symbol at p of m hyperbolic planes, (-1, -1)_p^(m(m-1)/2);
    p = -1 is the real place."""
    return hilbert_symbol_p(-1, -1, p) if m * (m - 1) // 2 % 2 else 1


def _local_dim(n: int, disc: int, s: int, p: int) -> int:
    """Dimension of the anisotropic part over Q_p of a form of dimension
    n, discriminant disc and Hasse symbol s at p.

    Even dimension: 2 if the signed discriminant d is not a square, else 0
    or 4 as s does or does not match hyperbolic space.  Odd dimension: 1
    exactly when the form is hyperbolic space plus <d>."""
    d = _signed(n, disc)
    if n % 2 == 0:
        if not is_padic_square(d, p):
            return 2
        return 0 if s == _hyperbolic_hasse(n // 2, p) else 4
    h = _hyperbolic_hasse((n + 1) // 2, p)
    return 1 if s * hilbert_symbol_p(disc, -d, p) == h else 3


def _anis_dim(loc: _Local) -> int:
    """Dimension of the anisotropic kernel over Q.

    By Hasse-Minkowski it is the largest local one.  A prime outside
    loc.hasse sees only unit entries, so it gives 1 (odd dimension) or at
    most 2 (even), and 2 only when d != 1, which a prime of d, the prime 2
    or the signature also shows."""
    return max([abs(loc.sig)] + [_local_dim(loc.dim, loc.disc, s, p)
                                 for p, s in loc.hasse.items()])


def _splits_off(loc: _Local, c: int, k: int) -> bool:
    """Whether the k-dimensional kernel of x represents c.

    It does exactly when x - <c> has kernel dimension k - 1 rather than
    k + 1, so the first place that reaches k decides against c."""
    if abs(loc.sig - (1 if c > 0 else -1)) >= k:
        return False
    disc = sq_mul(loc.disc, -c)
    return all(_local_dim(loc.dim + 1, disc, s, p) < k
               for p, s in _hasse_with(loc, -c))


def local_anisotropic_dim(q: QuadForm, p: int) -> int:
    """Dimension of the anisotropic kernel of q over Q_p."""
    if not is_prime(p):
        raise EvenOrCompositeModulus(f"{p} is not prime")
    loc = _local_q(q)
    return _local_dim(loc.dim, loc.disc, loc.hasse.get(p, 1), p)


# ---------------------------------------------------------------------------
# isotropy over Q (Hasse-Minkowski)


def is_isotropic(q: QuadForm) -> bool:
    """Hasse-Minkowski isotropy decision over Q."""
    if q.field.kind != "Q":
        raise UnsupportedField("isotropy decision implemented over Q")
    reps = q.reps()
    n = len(reps)
    if n <= 1:
        return False
    pos = sum(1 for r in reps if r > 0)
    if pos == n or pos == 0:
        return False  # definite
    if n >= 5:
        return True  # indefinite of rank >= 5
    if n == 2:
        return sq_mul(reps[0], reps[1]) == -1
    return _anis_dim(_local_q(q)) < n


# ---------------------------------------------------------------------------
# Witt equality


def witt_equal(q1: QuadForm, q2: QuadForm) -> bool:
    """Complete equality decision in W(k) for k = Q or F_p."""
    if q1.field != q2.field:
        raise FieldMismatch("Witt comparison across fields")
    if q1.field.kind == "Fp":
        return (
            q1.dim % 2 == q2.dim % 2
            and signed_disc(q1) == signed_disc(q2)
        )
    if q1.field.kind != "Q":
        raise UnsupportedField("use funcfield.kt_witt_equal over Q(t)")
    q = q1.perp(q2.neg())
    if q.dim % 2 or signature(q) != 0 or not signed_disc(q).is_one():
        return False
    return _anis_dim(_local_q(q)) == 0


def is_witt_zero(q: QuadForm) -> bool:
    return witt_equal(q, QuadForm((), q.field))


# ---------------------------------------------------------------------------
# Gram-matrix diagonalization


def diagonalize(gram: Sequence[Sequence]) -> QuadForm:
    """Diagonalize a symmetric nondegenerate Gram matrix over Q."""
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        if len(g[i]) != n:
            raise NonSymmetricMatrix("matrix is not square")
        for j in range(n):
            if g[i][j] != g[j][i]:
                raise NonSymmetricMatrix("matrix is not symmetric")
    den = lcm(*(x.denominator for row in g for x in row))
    return integer_gram_form([[x.numerator * (den // x.denominator)
                               for x in row] for row in g], den)


def integer_gram_form(m: List[List[int]], den: int) -> QuadForm:
    """The diagonal form of the Gram matrix m / den, for a square symmetric
    integer matrix m (not checked here) and den > 0.  m is overwritten."""
    return qf(_diagonalize_inplace(m, den))


def _diagonalize_inplace(m: List[List[int]], den: int) -> List[Fraction]:
    """The diagonal values of the symmetric Gauss reduction of m / den, by
    fraction-free (Bareiss) elimination on the integer matrix m.

    The pivot is the first nonzero diagonal entry among the rows left, else
    e_i <- e_i + e_j for the first nonzero off-diagonal (i, j) makes one.
    After each pivot p the entries left are updated to
    (p m_ik - m_ip m_pk) / prev, prev the previous pivot (1 at first).  By
    Sylvester's identity they are minors of m after the unimodular
    e_i <- e_i + e_j steps, so the division is exact (Bareiss, Math. Comp.
    22, 1968); a remainder means the elimination is broken, and raises.
    The rows left hold prev times the Schur complement of Gauss reduction
    over Q, so each diagonal value p / (prev den) is the same rational.
    """
    rows = list(range(len(m)))
    diag = []
    prev = 1
    while rows:
        piv = next((i for i in rows if m[i][i]), None)
        if piv is None:
            i, j = next(((i, j) for i in rows for j in rows
                         if j != i and m[i][j]), (None, None))
            if i is None:
                raise DegenerateForm("Gram matrix is degenerate")
            # e_i <- e_i + e_j makes the diagonal nonzero
            for k in rows:
                m[i][k] += m[j][k]
            for k in rows:
                m[k][i] += m[k][j]
            piv = i
        rows.remove(piv)
        mp = m[piv]
        p = mp[piv]
        diag.append(Fraction(p, prev * den))
        for i in rows:
            mi = m[i]
            c = mi[piv]
            for k in rows:
                q, r = divmod(p * mi[k] - c * mp[k], prev)
                if r:
                    raise VerificationFailed(
                        f"inexact Bareiss division by the pivot {prev}")
                mi[k] = q
        prev = p
    return diag


# ---------------------------------------------------------------------------
# anisotropic kernel


def _square_class_candidates(primes: Sequence[int]) -> List[int]:
    """All square classes supported on the given primes (with sign)."""
    out = []
    for k in range(len(primes) + 1):
        for combo in itertools.combinations(primes, k):
            v = 1
            for p in combo:
                v *= p
            out.append(v)
            out.append(-v)
    return sorted(out, key=abs)


def _kernel_candidates(entries: Sequence[int], loc: _Local):
    """The entries, the square classes on the primes of loc, then those
    classes times each further prime in increasing order.  The kernel
    represents a value of the last kind: Dirichlet's theorem gives a prime
    in any class mod 8 times the odd primes of loc (Serre, Ch. III, 2.2)."""
    yield from entries
    primes = list(loc.hasse)
    base = _square_class_candidates(primes)
    yield from base
    for q in itertools.count(3, 2):
        if q not in primes and is_prime(q):
            for s in base:
                yield s * q


@lru_cache(maxsize=2**15)
def _anisotropic_reps_q_cached(reps_key) -> tuple:
    loc = _local_data(reps_key)
    n = _anis_dim(loc)
    if n == len(reps_key):
        out = list(reps_key)
    else:
        # a value c of the k-dimensional kernel of x splits it as
        # <c> + kernel of x - <c>
        out = []
        for k in range(n, 1, -1):
            c = next(c for c in _kernel_candidates(reps_key, loc)
                     if _splits_off(loc, c, k))
            out.append(c)
            loc = _adjoin(loc, -c)
        if n:
            out.append(_signed(loc.dim, loc.disc))
    return tuple(sorted(out, key=lambda r: (abs(r), r)))


def _anisotropic_reps_fp(reps: List[int], field: FieldSpec):
    q = qf(reps, field) if reps else QuadForm((), field)
    d = signed_disc(q) if reps else square_class(1, field)
    parity = len(reps) % 2
    if parity == 0:
        if d.is_one():
            return []
        # dim 2 with signed disc d: <1, d> has signed disc -(-d)... pick
        # <x, y> with -xy ~ d, e.g. <1, -d>
        return [1, (-d).repr]
    return [d.repr]


# ---------------------------------------------------------------------------
# Witt classes


@dataclass(frozen=True)
class WittClass:
    """Element of W(k), stored via an anisotropic diagonal representative."""

    anis: QuadForm

    @property
    def field(self) -> FieldSpec:
        return self.anis.field

    @property
    def dim(self) -> int:
        return self.anis.dim

    def is_zero(self) -> bool:
        return self.anis.dim == 0

    def __add__(self, other: "WittClass") -> "WittClass":
        return witt_class(self.anis.perp(other.anis))

    def __neg__(self) -> "WittClass":
        return witt_class(self.anis.neg())

    def __sub__(self, other: "WittClass") -> "WittClass":
        return self + (-other)

    def __mul__(self, other: "WittClass") -> "WittClass":
        return witt_class(self.anis.tensor(other.anis))

    def scale(self, c: SquareClass) -> "WittClass":
        return witt_class(self.anis.scale(c))

    def __eq__(self, other):
        if not isinstance(other, WittClass):
            return NotImplemented
        return witt_equal(self.anis, other.anis)

    def __hash__(self):
        # Witt invariants of the class, so Witt-equal classes hash equal
        sig = signature(self.anis) if self.field.kind == "Q" else None
        return hash((self.field, self.dim % 2, signed_disc(self.anis), sig))

    def __repr__(self):
        return f"W{self.anis!r}"


def witt_class(q: QuadForm) -> WittClass:
    if q.field.kind == "Q":
        reps = _anisotropic_reps_q_cached(tuple(sorted(q.reps())))
    elif q.field.kind == "Fp":
        reps = _anisotropic_reps_fp(list(q.reps()), q.field)
    else:
        raise UnsupportedField("Witt classes over Q(t) live in funcfield")
    # the kernel's entries are squarefree already (or F_p representatives):
    # no value is classified again
    return WittClass(QuadForm(tuple(SquareClass(r, q.field) for r in reps),
                              q.field))


def witt_zero(field: FieldSpec = QQ) -> WittClass:
    return WittClass(QuadForm((), field))


# ---------------------------------------------------------------------------
# Pfister forms


def pfister(slots: Sequence, field: FieldSpec = QQ) -> QuadForm:
    """n-fold Pfister form <<a_1,...,a_n>> = tensor of <1, -a_i>."""
    out = qf([1], field)
    for a in slots:
        if Fraction(a) == 0:
            raise ZeroSlot("Pfister slot must be nonzero")
        out = out.tensor(qf([1, -Fraction(a)], field))
    return out


# ---------------------------------------------------------------------------
# the group ring W(k)[Z/2Z]


@dataclass(frozen=True)
class GroupRingElem:
    """Element of W(k)[Z/2Z]: an even and an odd Witt class."""

    even: WittClass
    odd: WittClass

    def __post_init__(self):
        if self.even.field != self.odd.field:
            raise FieldMismatch("group ring components over different fields")

    @property
    def field(self):
        return self.even.field

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(self.even + other.even, self.odd + other.odd)

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(
            self.even * other.even + self.odd * other.odd,
            self.even * other.odd + self.odd * other.even,
        )

    def __eq__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def __hash__(self):
        return hash((self.even, self.odd))
