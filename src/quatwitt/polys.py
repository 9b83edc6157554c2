"""Exact polynomial arithmetic and factorization over Q.

Polynomials are tuples of Fractions in ascending degree order, always
normalized so the leading coefficient is nonzero (the zero polynomial is
the empty tuple).  The function field Q(t) is computed on polynomials and
on square classes of their products (funcfield.FFEntry); RationalFunction
is only a value type, a quotient kept in lowest terms, with no field
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import MissingFactorization
from .fields import rational_sqrt

Poly = tuple  # tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
T: Poly = (Fraction(0), Fraction(1))


def poly(coeffs) -> Poly:
    """Build a normalized polynomial from an iterable of coefficients."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def constant(c) -> Poly:
    return poly([c])


def degree(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return len(p) == 0


def leading(p: Poly) -> Fraction:
    if not p:
        return Fraction(0)
    return p[-1]


def padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def pneg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def pscale(c, p: Poly) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(c * x for x in p)


def pdivmod(p: Poly, q: Poly):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lq = q[-1]
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] / lq
        if c == 0:
            continue
        quo[i - dq] = c
        for j, b in enumerate(q):
            rem[i - dq + j] -= c * b
    return poly(quo), poly(rem)


def pmod(p: Poly, q: Poly) -> Poly:
    return pdivmod(p, q)[1]


def pgcd(p: Poly, q: Poly) -> Poly:
    while q:
        p, q = q, pmod(p, q)
    return monic(p)


def monic(p: Poly) -> Poly:
    if not p:
        return ZERO
    return pscale(1 / p[-1], p)


def peval(p: Poly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def ppow(p: Poly, e: int) -> Poly:
    out = ONE
    for _ in range(e):
        out = pmul(out, p)
    return out


def content_primitive(p: Poly):
    """Split p = c * p0 with c in Q and p0 a primitive integer polynomial."""
    if not p:
        return Fraction(0), ZERO
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    sign = 1 if ints[-1] > 0 else -1
    g *= sign
    return Fraction(g, den), tuple(Fraction(v // g) for v in ints)


def rational_roots(p: Poly):
    """All rational roots of p, by the classical p/q candidate test."""
    if not p:
        raise ValueError("zero polynomial")
    _, prim = content_primitive(p)
    ints = [int(c) for c in prim]
    k = 0
    while ints[k] == 0:
        k += 1
    roots = set()
    if k > 0:
        roots.add(Fraction(0))
    a0, an = abs(ints[k]), abs(ints[-1])
    for r in _divisors(a0):
        for s in _divisors(an):
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if peval(p, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def is_irreducible(p: Poly) -> bool:
    """Irreducibility over Q, decided by factor_poly.  Where that meets a
    cofactor beyond its reach (degree five or more), a rational root or a
    repeated factor still proves p reducible; otherwise
    MissingFactorization."""
    if degree(p) <= 0:
        return False
    try:
        _, factors = factor_poly(p)
    except NotImplementedError as exc:
        if rational_roots(p) or degree(pgcd(p, pderiv(p))) > 0:
            return False
        raise MissingFactorization(str(exc)) from exc
    return len(factors) == 1 and factors[0][1] == 1


def _compose_shift(p: Poly, s: Fraction) -> Poly:
    """p(t + s) by Horner evaluation in the shifted variable."""
    out: Poly = ()
    shift = poly([s, Fraction(1)])
    for c in reversed(p):
        out = padd(pmul(out, shift), constant(Fraction(c)))
    return out


def _factor_quartic(q: Poly):
    """Split a monic squarefree quartic with no rational roots into two
    monic quadratics over Q, or None if it is irreducible.

    On the depressed quartic y^4 + p y^2 + c y + r, any such factorization
    is (y^2 + u y + v)(y^2 - u y + w) with U = u^2 a root of the resolvent
    cubic U^3 + 2p U^2 + (p^2 - 4r) U - c^2.
    """
    s = -Fraction(q[3]) / 4
    dep = _compose_shift(q, s)
    p, c, r = Fraction(dep[2]), Fraction(dep[1]), Fraction(dep[0])
    resolvent = poly([-c * c, p * p - 4 * r, 2 * p, Fraction(1)])
    candidates = list(rational_roots(resolvent))
    if c == 0:
        candidates.append(Fraction(0))
    for cap in candidates:
        u = rational_sqrt(cap)
        if u is None:
            continue
        if u != 0:
            v = (p + cap - c / u) / 2
            w = (p + cap + c / u) / 2
        else:
            if c != 0:
                continue
            root = rational_sqrt(p * p - 4 * r)
            if root is None:
                continue
            v, w = (p - root) / 2, (p + root) / 2
        f1 = poly([v, u, Fraction(1)])
        f2 = poly([w, -u, Fraction(1)])
        if pmul(f1, f2) == dep:
            return _compose_shift(f1, -s), _compose_shift(f2, -s)
    return None


def factor_poly(p: Poly):
    """Factor p into monic irreducibles over Q.

    Returns (unit, [(monic_factor, exponent), ...]).  Handles rational
    roots, repeated factors via the gcd with the derivative, and quartic
    cofactors via the resolvent cubic; squarefree cofactors of degree five
    or more are out of reach.
    """
    if not p:
        raise ValueError("zero polynomial")
    unit = leading(p)
    factors: dict = {}
    stack = [(monic(p), 1)]
    while stack:
        q, mult = stack.pop()
        if degree(q) <= 0:
            continue
        roots = rational_roots(q)
        if roots:
            lin = poly([-roots[0], Fraction(1)])
            quo, rem = pdivmod(q, lin)
            if rem:
                raise ValueError("root division failed")
            factors[lin] = factors.get(lin, 0) + mult
            stack.append((quo, mult))
            continue
        g = pgcd(q, pderiv(q))
        if degree(g) > 0:
            quo, rem = pdivmod(q, g)
            if rem:
                raise ValueError("repeated-factor division failed")
            stack.append((monic(g), mult))
            stack.append((monic(quo), mult))
            continue
        # squarefree, no rational roots: degree 2/3 is irreducible
        if degree(q) <= 3:
            factors[q] = factors.get(q, 0) + mult
            continue
        if degree(q) == 4:
            split = _factor_quartic(q)
            if split is None:
                factors[q] = factors.get(q, 0) + mult
            else:
                stack.append((split[0], mult))
                stack.append((split[1], mult))
            continue
        raise NotImplementedError(
            "cannot certify irreducibility beyond degree 4"
        )
    return unit, sorted(factors.items())


class RationalFunction:
    """Value of Q(t): a quotient of polynomials, kept in lowest terms with
    a monic denominator, that can be compared and evaluated."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, (int, Fraction)):
            num = constant(num)
        if isinstance(den, (int, Fraction)):
            den = constant(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = ZERO, ONE
            return
        g = pgcd(num, den)
        if degree(g) > 0:
            num = pdivmod(num, g)[0]
            den = pdivmod(den, g)[0]
        lc = den[-1]
        self.num = pscale(1 / lc, num)
        self.den = pscale(1 / lc, den)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, c) -> Fraction:
        d = peval(self.den, c)
        if d == 0:
            raise ZeroDivisionError(f"pole at t={c}")
        return peval(self.num, c) / d

    def __repr__(self):
        return f"RationalFunction({poly_str(self.num)} / {poly_str(self.den)})"


def poly_str(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*t" if c != 1 else "t")
        else:
            parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
    return " + ".join(parts)
