"""psi_split against sympy, an oracle that shares none of its code
(skipped without sympy).

For seeded mixed classes over split algebras, each odd slot z is sent to
<-T, T z^2> with T = Trd(z (x(t) i + y(t) j + ij)).  Here T is built in
sympy from the printed parametrization x_t, y_t with sympy's own
rational-function arithmetic, and the square class of each entry is read
off sympy's factor_list of its numerator and denominator.

The residue class of an entry at a place pi is built factor by factor;
here it is sympy's reduction of the whole cofactor, the unit times every
other factor: its value at the root of a linear pi, its remainder mod a
quadratic pi."""

import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")

from quatwitt import polys as P  # noqa: E402
from quatwitt.funcfield import (  # noqa: E402
    FFEntry,
    _entry_residue,
    conic_parametrize,
    ff_class,
    psi_split,
)
from quatwitt.mixed import mixed  # noqa: E402
from quatwitt.quadforms import qf, witt_class  # noqa: E402
from quatwitt.quaternions import QuatAlgebra  # noqa: E402

T = sympy.Symbol("t")

# (1, -1) has the reducible pole polynomial D = 1 - t^2
ALGEBRAS = [(1, 1), (1, -1), (2, 7), (5, -1)]


def _q(x):
    return sympy.Rational(x.numerator, x.denominator)


def _to_sympy(p):
    return sum((_q(c) * T**i for i, c in enumerate(p)), sympy.Integer(0))


def _squarefree(r):
    """Squarefree integer in the square class of a nonzero rational."""
    n = int(r.p) * int(r.q)
    out = -1 if n < 0 else 1
    for prime, e in sympy.factorint(abs(n)).items():
        if e % 2:
            out *= prime
    return out


def _oracle_entry(expr):
    """Square class of a nonzero rational function: num/den ~ num*den."""
    unit, odd = sympy.Integer(1), set()
    for part in sympy.fraction(sympy.cancel(expr)):
        c, factors = sympy.factor_list(part, T)
        unit *= c
        for f, e in factors:
            poly = sympy.Poly(f, T)
            unit *= poly.LC() ** e
            if e % 2:
                odd ^= {tuple(F(int(x.p), int(x.q))
                              for x in reversed(poly.monic().all_coeffs()))}
    return FFEntry(_squarefree(unit), tuple(sorted(odd)))


def _oracle_psi(A, x, conic):
    a, b = _q(A.a), _q(A.b)
    xt = _to_sympy(conic.x_t.num) / _to_sympy(conic.x_t.den)
    yt = _to_sympy(conic.y_t.num) / _to_sympy(conic.y_t.den)
    out = [FFEntry(r, ()) for r in x.even.anis.reps()]
    for z in x.odd.diag:
        z1, z2, z3 = (_q(c) for c in z.coords[1:])
        # for pure u, w in (a, b | Q): Trd(u w) = 2(a u1 w1 + b u2 w2 - ab u3 w3)
        trd = sympy.cancel(2 * (a * z1 * xt + b * z2 * yt - a * b * z3))
        zsq = a * z1**2 + b * z2**2 - a * b * z3**2
        if trd == 0:
            out += [FFEntry(1, ()), FFEntry(-1, ())]
        else:
            out += [_oracle_entry(-trd), _oracle_entry(trd * zsq)]
    return tuple(out)


@pytest.mark.parametrize("a,b", ALGEBRAS)
def test_psi_split_against_sympy(a, b):
    A = QuatAlgebra(a, b)
    conic = conic_parametrize(A)
    rng = random.Random(a * 100 + b)
    checked = 0
    while checked < 12:
        odd = []
        for _ in range(rng.randint(1, 3)):
            z = A.pure(*(F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(3)))
            if z.is_invertible():
                odd.append(z)
        if not odd:
            continue
        even = witt_class(qf([rng.choice([1, -1, 2, -3, 5, 6])
                              for _ in range(rng.randint(0, 2))]))
        x = mixed(A, even=even, odd_entries=tuple(odd))
        assert psi_split(x, conic).entries == _oracle_psi(A, x, conic)
        checked += 1


# the splitting suite's irreducibles and two more; residues are taken at
# those of degree <= 2
IRREDUCIBLES = [P.poly([0, 1]), P.poly([-1, 1]), P.poly([2, 1]),
                P.poly([1, 0, 1]), P.poly([-2, 0, 1]),
                P.poly([F(1, 3), 1]), P.poly([-2, 0, 0, 1])]


@pytest.mark.parametrize("pi", [f for f in IRREDUCIBLES if P.degree(f) <= 2],
                         ids=lambda f: ",".join(map(str, f)))
def test_entry_residue_against_sympy_cofactor(pi):
    rng = random.Random(P.poly_str(pi))
    pi_sym = _to_sympy(pi)
    red = {}  # one memo across the entries, as in one residue call
    for _ in range(40):
        fs = rng.sample(IRREDUCIBLES, rng.randint(0, 4))
        e = ff_class(rng.choice([1, -1, 2, -3, 5, 6, -7, 10]),
                     [(f, 1) for f in fs])
        cof = sympy.Integer(e.unit)
        for f in e.factors:
            if f != pi:
                cof *= _to_sympy(f)
        got = _entry_residue(e, pi, red)
        if P.degree(pi) == 1:
            want = cof.subs(T, -_q(pi[0]))
            assert got == F(int(want.p), int(want.q))
        else:
            want = sympy.Poly(sympy.rem(cof, pi_sym, T), T)
            assert got == P.poly(F(int(c.p), int(c.q))
                                 for c in reversed(want.all_coeffs()))
