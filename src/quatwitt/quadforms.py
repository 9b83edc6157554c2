"""Quadratic forms and the Witt ring W(k) for k = Q or F_p.

A diagonal form stores each entry as the integer representative of its
square class: a squarefree integer over Q, 1 or the smallest non-residue
over F_p.  Over F_p the pair (dim mod 2, signed discriminant) classifies
W(F_p).

A Witt class, over Q and F_p alike, is the class of a diagonal and peels
its anisotropic kernel only when the kernel is read, from the same entries
an eager peel would take, so every kernel, and every printed byte, is the
same.  Equality, the hash and the zero test decide on any diagonal of the
class and peel nothing.

Over Q one local classification does the work (Serre, *A Course in
Arithmetic*, Ch. IV).  A diagonal of squarefree entries is summarised by its
dimension, discriminant, signature and Hasse symbols at 2 and at the primes
of its entries; these give the dimension of its anisotropic part over every
Q_p.  Each Hasse symbol is computed in closed form from the Hilbert symbol
formulas (Serre III.1), in one pass over the entries per prime.  By
Hasse-Minkowski the anisotropic kernel over Q has the largest of the local
dimensions and the signature, which decides isotropy and Witt equality.

The kernel is built slot by slot: while k >= 2 slots remain, the first
candidate square class c with dim(x - <c>) = k - 1 is a value of the
kernel, so <c> splits off.  Candidates are the entries, the square classes
on the primes of x, and those times one further prime; Dirichlet's theorem
puts a value of the kernel among the last, so the search always ends.  At
a prime of x the test of c depends only on the Q_p square class of c, so
each slot computes it once per class and looks it up for every candidate
of that class.

At k >= 4 the signature alone decides: c is accepted iff |sig(x) - sign(c)|
< k.  Proof: dim x has the parity of k, so x - <c> has the other parity,
and over Q_p an anisotropic form has dimension at most 4, and at most 3
when it is odd (Serre IV.2.2).  So the local dimension of x - <c> at every
prime is at most 3 < k when k is even, and at most 4 < k when k >= 5 is
odd; only the real place, where it is |sig(x - <c>)|, can reach k.  So
the signature test answers as the full test does on every candidate, and
the first accepted candidate, and every kernel, stays the same.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from fractions import Fraction
from math import lcm, prod

from .errors import (
    DegenerateForm,
    FieldMismatch,
    NonSymmetricMatrix,
    UnsupportedField,
    VerificationFailed,
    ZeroSlot,
)
from .fields import (
    FieldSpec,
    QQ,
    _require_prime,
    class_mul,
    factorize,
    hilbert_symbol_p,
    is_padic_square,
    is_prime,
    legendre_symbol,
    ratio_class,
    sq_mul,
    square_class,
)
from .record import Record

# ---------------------------------------------------------------------------
# diagonal forms


class QuadForm(Record):
    """Diagonal quadratic form; the entries are the integer representatives
    of their square classes over `field` (as `square_class` gives them), and
    their order is irrelevant up to isometry."""

    __slots__ = ("entries", "field")

    def __init__(self, entries: tuple[int, ...], field: FieldSpec = QQ):
        self.entries = entries
        self.field = field

    @property
    def dim(self) -> int:
        return len(self.entries)

    def reps(self) -> tuple[int, ...]:
        return self.entries

    def perp(self, other: "QuadForm") -> "QuadForm":
        if self.field != other.field:
            raise FieldMismatch("orthogonal sum over different fields")
        return QuadForm(self.entries + other.entries, self.field)

    def neg(self) -> "QuadForm":
        return self.scale(-1)

    def scale(self, c: int) -> "QuadForm":
        """<c> times the form, for the representative c of a square class."""
        return QuadForm(tuple(class_mul(c, e, self.field)
                              for e in self.entries), self.field)

    def tensor(self, other: "QuadForm") -> "QuadForm":
        if self.field != other.field:
            raise FieldMismatch("tensor over different fields")
        entries = tuple(
            class_mul(a, b, self.field)
            for a in self.entries for b in other.entries
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
    if q.field.p is not None:
        raise UnsupportedField("signature only defined over Q")
    return sum(1 if r > 0 else -1 for r in q.reps())


def signed_disc(q: QuadForm) -> int:
    out = square_class(_signed(q.dim, 1), q.field)
    for e in q.entries:
        out = class_mul(out, e, q.field)
    return out


class WittInvariants(Record):
    __slots__ = ("dim", "signed_disc", "hasse", "signature")

    def __init__(self, dim: int, signed_disc: int, hasse: dict[int, int],
                 signature: int | None):
        self.dim = dim
        self.signed_disc = signed_disc
        self.hasse = hasse
        self.signature = signature


def witt_invariants(q: QuadForm) -> WittInvariants:
    """Classical invariants: dimension, signed discriminant, Hasse symbols
    and (over Q) the signature.  Over Q the Hasse symbols are keyed by
    place, -1 (the real place) and then 2 and the primes of the entries in
    ascending order; the symbol is 1 at every other place."""
    if q.field.p is None:
        loc = _local_q(q)
        hasse = {-1: _hyperbolic_hasse((loc.dim - loc.sig) // 2, -1)}
        hasse.update(sorted(loc.hasse.items()))
        return WittInvariants(loc.dim, _signed(loc.dim, loc.disc), hasse,
                              loc.sig)
    return WittInvariants(q.dim, signed_disc(q), {}, None)


# ---------------------------------------------------------------------------
# local classification over Q_p


# Invariants of a diagonal of squarefree integers: dimension, plain
# discriminant, signature, and the Hasse symbols keyed by the prime, at 2 and
# at the odd primes of the entries (the symbol is 1 at every other prime).
_Local = namedtuple("_Local", "dim disc sig hasse")


def _hasse_with(loc: _Local, c: int):
    """The Hasse symbols (p, s_p) of x + <c>, one prime at a time: s_p
    picks up (disc x, c)_p, and an odd prime new in c enters with 1.

    `_new_primes` divides the primes of loc out of c first, so only the
    cofactor is factored: kernel candidates are products of many known primes, and
    two known primes above 10^6 would leave trial division a cofactor it
    cannot certify."""
    for p in itertools.chain(loc.hasse, _new_primes(loc.hasse, c)):
        yield p, loc.hasse.get(p, 1) * hilbert_symbol_p(loc.disc, c, p)


def _new_primes(known: Iterable[int], c: int) -> list[int]:
    """The primes of c outside known, in the order `factorize` gives them.
    The known primes are divided out first, so only the cofactor is
    factored."""
    rest = abs(c)
    for p in known:
        while rest % p == 0:
            rest //= p
    return [p for p, _ in factorize(rest)[1]]


def _adjoin(loc: _Local, c: int) -> _Local:
    """Invariants of x + <c> from those of x, for a squarefree integer c."""
    return _Local(loc.dim + 1, sq_mul(loc.disc, c),
                  loc.sig + (1 if c > 0 else -1), dict(_hasse_with(loc, c)))


# cached by the rule in fields: the hits save at least 1% of a measured run
@lru_cache(maxsize=2**16)
def _local_data(reps: tuple[int, ...]) -> _Local:
    """The invariants of the diagonal of squarefree integers reps, each
    Hasse symbol in closed form from one pass over the entries.

    The primes are 2, then for each entry by increasing |r| (ab after a and
    b) its primes outside those found, by `_new_primes`.  At a prime p write
    a_i = p^e_i u_i with e_i in {0, 1} and A = sum e_i.  By Serre III.1, Thm 1, the Hasse
    symbol prod_{i<j} (a_i, a_j)_p is (-1)^x with, mod 2:
      - odd p, l_i = 1 when (u_i|p) = -1:
          x = sum_{i<j} (eps(p) e_i e_j + e_j l_i + e_i l_j)
            = eps(p) C(A, 2) + A sum l_i - sum e_i l_i,
        eps(p) = (p - 1)/2, as sum_{i<j} e_i e_j = C(A, 2) and
        sum_{i != j} e_j l_i = sum_i l_i (A - e_i);
      - p = 2, eps_i = (u_i - 1)/2 and w_i = (u_i^2 - 1)/8:
          x = sum_{i<j} (eps_i eps_j + e_i w_j + e_j w_i)
            = C(#{eps_i = 1}, 2) + A sum w_i - sum e_i w_i.
    In both, A sum y_i - sum e_i y_i is the sum of the y_i with e_i != A mod
    2: those with e_i = 0 when A is odd, e_i = 1 when A is even.  A prime
    that divides an odd number of entries divides the discriminant."""
    primes = [2]
    for r in sorted(reps, key=abs):
        primes.extend(_new_primes(primes, r))
    negative = sum(r < 0 for r in reps)
    disc = -1 if negative % 2 else 1
    hasse = {}
    for p in primes:
        # y_i is l_i at odd p and w_i at p = 2, summed by e_i
        a = y0 = y1 = eps = 0
        for r in reps:
            e = r % p == 0
            u = r // p if e else r
            if p == 2:
                y = u % 8 in (3, 5)
                eps += u % 4 == 3
            else:
                y = legendre_symbol(u % p, p) < 0
            if e:
                a += 1
                y1 += y
            else:
                y0 += y
        if a % 2:
            disc *= p
        x = y0 if a % 2 else y1
        if p == 2:
            x += eps * (eps - 1) // 2
        elif p % 4 == 3:
            x += a * (a - 1) // 2
        hasse[p] = -1 if x % 2 else 1
    return _Local(len(reps), disc, len(reps) - 2 * negative, hasse)


def _local_q(q: QuadForm) -> _Local:
    # the invariants do not depend on the order, so sort for cache hits
    return _local_data(tuple(sorted(q.reps())))


def _signed(n: int, disc: int) -> int:
    """Signed discriminant (-1)^(n(n-1)/2) disc."""
    return -disc if n * (n - 1) // 2 % 2 else disc


def _hyperbolic_hasse(m: int, p: int) -> int:
    """Hasse symbol at p of m hyperbolic planes, (-1, -1)_p^(m(m-1)/2);
    p = -1 is the real place.  (-1, -1)_p is -1 exactly at p = 2 and at
    the real place (Serre III.1)."""
    return -1 if p in (2, -1) and m * (m - 1) // 2 % 2 else 1


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


def _represented_by_kernel(loc: _Local, k: int):
    """The test c -> whether the k-dimensional kernel of x represents c,
    for squarefree integers c.

    The kernel represents c exactly when x - <c> has kernel dimension
    k - 1 rather than k + 1, so the first place that reaches k decides
    against c.  At a prime p of loc the dimension, discriminant and Hasse
    symbol of x - <c> over Q_p are functions of the Q_p square class of -c:
    (v_p, the Legendre symbol of the unit) for odd p, (v_2, the unit mod 8)
    for p = 2.  So the verdict of such a place is computed once per class
    and kept for the life of the test; an odd prime new in c, from
    `_new_primes`, is checked directly."""
    if k >= 4:
        # every prime passes c: see the module docstring
        return lambda c: abs(loc.sig - (1 if c > 0 else -1)) < k
    n = loc.dim + 1
    verdicts = {}

    def below_k(p: int, s: int, m: int) -> bool:
        s *= hilbert_symbol_p(loc.disc, m, p)
        return _local_dim(n, sq_mul(loc.disc, m), s, p) < k

    def represents(c: int) -> bool:
        if abs(loc.sig - (1 if c > 0 else -1)) >= k:
            return False
        m = -c
        for p, s in loc.hasse.items():
            if m % p:
                key = (p, 0, m % 8 if p == 2 else legendre_symbol(m % p, p))
            else:
                u = m // p
                key = (p, 1, u % 8 if p == 2 else legendre_symbol(u % p, p))
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = below_k(p, s, m)
            if not ok:
                return False
        return all(below_k(q, 1, m) for q in _new_primes(loc.hasse, c))

    return represents


def local_anisotropic_dim(q: QuadForm, v: int) -> int:
    """Dimension of the anisotropic kernel of q over Q_v, for a prime v, or
    over R for v = -1, where it is |signature|."""
    if q.field.p is not None:
        raise UnsupportedField("local anisotropic dimension only over Q")
    if v == -1:
        return abs(signature(q))
    _require_prime(v)
    loc = _local_q(q)
    return _local_dim(loc.dim, loc.disc, loc.hasse.get(v, 1), v)


def local_anisotropic_dims(q: QuadForm) -> dict[int, int]:
    """The dimensions of the anisotropic kernels of q over R and over Q_p
    for p = 2 and the primes of its entries, all from one `_local_q`.  They
    are keyed as `witt_invariants` keys the Hasse symbols: -1 (the real
    place, |signature|) first, then the primes in ascending order.  At any
    other prime every entry is a unit, so the dimension there is 1 for odd
    dim q, and 0 or 2 for even dim q as the signed discriminant is or is
    not a square there: 0 for a form in I^2."""
    if q.field.p is not None:
        raise UnsupportedField("local anisotropic dimension only over Q")
    loc = _local_q(q)
    dims = {-1: abs(loc.sig)}
    for p in sorted(loc.hasse):
        dims[p] = _local_dim(loc.dim, loc.disc, loc.hasse[p], p)
    return dims


# ---------------------------------------------------------------------------
# isotropy over Q (Hasse-Minkowski)


def is_isotropic(q: QuadForm) -> bool:
    """Hasse-Minkowski isotropy decision over Q."""
    if q.field.p is not None:
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
    """Complete equality decision in W(k) for k = Q or F_p.  Two forms with
    the same entries are equal at once, as q - q is hyperbolic; kernels
    hold sorted representatives, so a class and a copy of it compare as
    tuples, with nothing classified."""
    if q1.field != q2.field:
        raise FieldMismatch("Witt comparison across fields")
    if q1.entries == q2.entries:
        return True
    q = q1.perp(q2.neg())
    if q.dim % 2 or signed_disc(q) != 1:
        return False
    return q.field.p is not None or (signature(q) == 0
                                    and _anis_dim(_local_q(q)) == 0)


def is_witt_zero(q: QuadForm) -> bool:
    return witt_equal(q, QuadForm((), q.field))


def cancel_pairs(items: Iterable, opposite) -> list:
    """The items left, in input order, when each in turn cancels the first
    earlier item still left that is opposite to it (opposite(item, earlier)).

    When opposite pairs each class C of items with one class -C (maybe C
    itself), the classes left and their counts do not depend on the order
    of the items: C and -C are never both left, as the later item would
    have cancelled, so |n(C) - n(-C)| items of the larger are left (n(C)
    mod 2 when C = -C), and none exactly when C and -C match up perfectly.

    Each item is tested against the items still left, earliest first, up
    to its first match, and against no other.  A refusal raised inside
    `opposite` (`_hyperbolic_pair`'s `FactorizationLimitExceeded`)
    depends on that order: it comes from the first pair tested that
    raises, so a predicate that raises on some pair refuses only when
    that pair is reached."""
    left = []
    for x in items:
        for k, y in enumerate(left):
            if opposite(x, y):
                del left[k]
                break
        else:
            left.append(x)
    return left


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


def integer_gram_form(m: list[list[int]], den: int) -> QuadForm:
    """The diagonal form of the Gram matrix m / den, for a square symmetric
    integer matrix m (not checked here) and den > 0.  m is overwritten.

    Each diagonal value is the integer pair (n, d) for n / d, whose class
    `ratio_class` reads with no Fraction built."""
    return QuadForm(tuple(ratio_class(n, d)
                          for n, d in _diagonalize_inplace(m, den)), QQ)


def _diagonalize_inplace(m: list[list[int]], den: int
                         ) -> list[tuple[int, int]]:
    """The diagonal values of the symmetric Gauss reduction of m / den, each
    as an integer pair (numerator, denominator), by fraction-free (Bareiss)
    elimination on the integer matrix m.

    The pivot is the first nonzero diagonal entry among the rows left, else
    e_i <- e_i + e_j for the first nonzero off-diagonal (i, j) makes one.
    After each pivot p the entries left are updated to
    (p m_ik - m_ip m_pk) / prev, prev the previous pivot (1 at first).  By
    Sylvester's identity they are minors of m after the unimodular
    e_i <- e_i + e_j steps, so the division is exact (Bareiss, Math. Comp.
    22, 1968); a remainder means the elimination is broken, and raises.
    The rows left hold prev times the Schur complement of Gauss reduction
    over Q, so each diagonal value (p, prev den) is the same rational.
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
        diag.append((p, prev * den))
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


def _kernel_candidates(entries: Sequence[int], loc: _Local):
    """The entries, the square classes on the primes of loc (with sign, by
    absolute value), then those classes times each further prime in
    increasing order.  The kernel represents a value of the last kind:
    Dirichlet's theorem gives a prime in any class mod 8 times the odd
    primes of loc (Serre, Ch. III, 2.2)."""
    yield from entries
    primes = tuple(loc.hasse)
    base = sorted((s * prod(combo) for k in range(len(primes) + 1)
                   for combo in itertools.combinations(primes, k)
                   for s in (1, -1)), key=abs)
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
            c = next(filter(_represented_by_kernel(loc, k),
                            _kernel_candidates(reps_key, loc)))
            out.append(c)
            loc = _adjoin(loc, -c)
        if n:
            out.append(_signed(loc.dim, loc.disc))
    return tuple(sorted(out, key=_kernel_order))


def _kernel_order(r: int) -> tuple[int, int]:
    """A kernel's entries over Q go by absolute value, negative first."""
    return abs(r), r


def _anisotropic_reps_fp(q: QuadForm) -> tuple:
    d = signed_disc(q)
    if q.dim % 2:
        return (d,)
    # <1, -d> has signed discriminant d
    return () if d == 1 else (1, class_mul(-1, d, q.field))


# ---------------------------------------------------------------------------
# Witt classes


class WittClass(Record):
    """Element of W(k): the class of the diagonal `form`, whose anisotropic
    kernel `anis` is peeled on its first read, over Q and F_p alike.

    The peel takes exactly the entries an eager one would: `form`, or for a
    sum x + y the kernels of x and y joined, so every kernel is the same
    whenever it is read.  `_terms` is () until then, or for a sum its
    summands, a chain of sums in one tuple folded by the rule of `+` on
    kernels; it is None once `form` is the kernel, as `witt_zero` and
    `scale` over Q make it.  Equality, the hash and the zero test are Witt
    invariants, so they read `form` and peel nothing."""

    __slots__ = ("form", "_terms")

    def __init__(self, form: QuadForm):
        self.form = form
        self._terms = ()

    @property
    def anis(self) -> QuadForm:
        if self._terms is not None:
            if self._terms:
                _read(self)
            else:
                self.form, self._terms = _peel(self.form), None
        return self.form

    @property
    def field(self) -> FieldSpec:
        return self.form.field

    @property
    def dim(self) -> int:
        return self.anis.dim

    def is_zero(self) -> bool:
        if self._terms is None:
            return not self.form.entries
        return is_witt_zero(self.form)

    def __add__(self, other: "WittClass") -> "WittClass":
        form = self.form.perp(other.form)
        # the sum with 0 is the other class as it stands
        if not other.form.entries:
            return self
        if not self.form.entries:
            return other
        # a chain of sums not yet read keeps one tuple of summands
        return _witt(form, (self._terms or (self,)) + (other,))

    def __neg__(self) -> "WittClass":
        return self.scale(-1)

    def __sub__(self, other: "WittClass") -> "WittClass":
        return self + (-other)

    def __mul__(self, other: "WittClass") -> "WittClass":
        # a product with a rank-1 class <c> is the other class times <c>
        x, y = self.anis, other.anis
        if x.field == y.field:
            if y.dim == 1:
                return self.scale(y.entries[0])
            if x.dim == 1:
                return other.scale(x.entries[0])
        return witt_class(x.tensor(y))

    def scale(self, c: int) -> "WittClass":
        """<c> times the class, for the representative c of a square class.
        <c> q is isotropic exactly when q is, so over Q the scaled kernel is
        the kernel, sorted, with nothing classified; over F_p it is peeled."""
        q = self.anis.scale(c)
        if q.field.p is not None:
            return WittClass(q)
        return _witt(QuadForm(tuple(sorted(q.entries, key=_kernel_order)),
                              q.field), None)

    # Not Record's rule: two classes are equal when their diagonals are
    # Witt-equal, which differs from equal fields.
    def __eq__(self, other):
        if not isinstance(other, WittClass):
            return NotImplemented
        return witt_equal(self.form, other.form)

    def __hash__(self):
        # Witt invariants of the class, so Witt-equal classes hash equal
        q = self.form
        sig = signature(q) if q.field.p is None else None
        return hash((q.field, q.dim % 2, signed_disc(q), sig))

    def __repr__(self):
        return f"W{self.anis!r}"


def _witt(form: QuadForm, terms: tuple | None) -> WittClass:
    """A class in a state the constructor does not make (see `WittClass`)."""
    w = WittClass(form)
    w._terms = terms
    return w


def _read(w: WittClass) -> None:
    """Read the unread sum w: its kernel is its summands' kernels folded
    left to right by `_add_kernels`.  A stack in place of recursion reads
    each summand that is an unread sum first, so a chain of sums nested
    thousands deep is read as a flat one is."""
    stack = [w]
    while stack:
        x = stack.pop()
        if x._terms is None:  # read as a summand of an earlier sum
            continue
        sums = [t for t in x._terms if t._terms]
        if sums:
            stack.append(x)
            stack.extend(reversed(sums))
            continue
        terms = iter(x._terms)
        k = next(terms).anis
        for t in terms:
            k = _add_kernels(k, t.anis)
        x.form, x._terms = k, None


def _peel(q: QuadForm) -> QuadForm:
    """The anisotropic kernel of q, by its field's peel; over Q its entries
    are representatives already, so none is classified again."""
    if q.field.p is not None:
        return QuadForm(_anisotropic_reps_fp(q), q.field)
    return QuadForm(_anisotropic_reps_q_cached(tuple(sorted(q.reps()))),
                    q.field)


def _add_kernels(x: QuadForm, y: QuadForm) -> QuadForm:
    """The kernel of x + y from the kernels x and y, by the rule of `+`: a
    kernel plus 0 is the kernel as it stands."""
    if not y.entries:
        return x
    if not x.entries:
        return y
    return _peel(x.perp(y))


def witt_class(q: QuadForm) -> WittClass:
    """The class of q; its kernel is peeled when first read."""
    return WittClass(q)


def witt_zero(field: FieldSpec = QQ) -> WittClass:
    return _witt(QuadForm((), field), None)


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


class GroupRingElem(Record):
    """Element of W(k)[Z/2Z]: an even and an odd Witt class."""

    __slots__ = ("even", "odd")

    def __init__(self, even: WittClass, odd: WittClass):
        if even.field != odd.field:
            raise FieldMismatch("group ring components over different fields")
        self.even = even
        self.odd = odd

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(self.even + other.even, self.odd + other.odd)

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(
            self.even * other.even + self.odd * other.odd,
            self.even * other.odd + self.odd * other.even,
        )
