"""factor_poly against sympy's factor_list over QQ, an oracle that shares
none of its code (skipped without sympy or hypothesis)."""

import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt import polys as P  # noqa: E402
from quatwitt.errors import MissingFactorization  # noqa: E402

from polytools import ppow  # noqa: E402

T = sympy.Symbol("t")


def _to_sympy(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p)], T, domain="QQ")


def _from_sympy(f):
    """Ascending Fraction coefficients of a sympy polynomial."""
    return tuple(F(int(c.p), int(c.q)) for c in reversed(f.all_coeffs()))


def _sympy_factorization(p):
    """(unit, sorted monic factors with exponents), as factor_poly gives."""
    unit, factors = _to_sympy(p).factor_list()
    unit = F(int(unit.p), int(unit.q))
    out = []
    for f, e in factors:
        unit *= F(int(f.LC().p), int(f.LC().q)) ** e
        out.append((_from_sympy(f.monic()), e))
    return unit, sorted(out)


def _rand_poly(rng, deg):
    while True:
        cs = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(deg + 1)]
        if cs[-1]:
            return P.poly(cs)


CURATED = [
    [1, 0, 0, 0, 1],          # t^4 + 1, irreducible
    [4, 0, 0, 0, 1],          # t^4 + 4 = (t^2 + 2t + 2)(t^2 - 2t + 2)
    [-2, 0, 0, 0, 1],         # t^4 - 2, irreducible
    [1, 0, -10, 0, 1],        # minimal polynomial of sqrt 2 + sqrt 3
    [6, 0, -5, 0, 1],         # (t^2 - 2)(t^2 - 3)
    [1, 0, 2, 0, 1],          # (t^2 + 1)^2
    [F(1, 4), 0, 1, 0, 1],    # (t^2 + 1/2)^2
    [-1, 1, 0, 0, 3],         # 3 t^4 + t - 1
    [2, 3, 1],                # (t + 1)(t + 2)
    [F(-8, 27), 0, 0, 1],     # (t - 2/3)(t^2 + 2/3 t + 4/9)
]


def test_factor_poly_against_sympy():
    rng = random.Random(11)
    cases = [P.poly(c) for c in CURATED]
    for _ in range(150):
        deg = rng.randint(1, 4)
        p = _rand_poly(rng, rng.randint(1, deg))
        while P.degree(p) < deg:
            p = P.pmul(p, _rand_poly(rng, rng.randint(1, deg - P.degree(p))))
        cases.append(p)
    for p in cases:
        assert P.degree(p) <= 4
        assert P.factor_poly(p) == _sympy_factorization(p), p


# squarefree m != 1: s^2 m is never a rational square
NONSQUARES = [-7, -3, -2, -1, 2, 3, 5, 6, 10]
coef = st.builds(F, st.integers(-20, 20), st.integers(1, 9))
nonzero = st.builds(F, st.integers(1, 20) | st.integers(-20, -1),
                    st.integers(1, 9))


@st.composite
def quadratics(draw):
    """a (t^2 + beta t + c) with discriminant beta^2 - 4c = delta of the
    drawn kind: a nonzero square, zero or a non-square."""
    kind = draw(st.sampled_from(["square", "zero", "nonsquare"]))
    a = draw(nonzero)
    beta = draw(coef)
    s = draw(nonzero)
    delta = {"square": s * s, "zero": F(0),
             "nonsquare": s * s * draw(st.sampled_from(NONSQUARES))}[kind]
    return kind, P.pscale(a, P.poly([(beta * beta - delta) / 4, beta, 1]))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(quadratics())
def test_factor_quadratic_against_sympy(case):
    kind, p = case
    hypothesis.event(kind)
    hypothesis.event("monic" if P.leading(p) == 1 else "leading != 1")
    unit, factors = P.factor_poly(p)
    assert (unit, factors) == _sympy_factorization(p), p
    shape = {"square": [(1, 1), (1, 1)], "zero": [(1, 2)],
             "nonsquare": [(2, 1)]}[kind]
    assert [(P.degree(f), e) for f, e in factors] == shape
    assert P.is_irreducible(p) == (kind == "nonsquare")


def test_quintic_cofactor_refused():
    """t^5 - t - 1 and (t^2 + 1)(t^3 + t + 1) are squarefree quintics with
    no rational root, irreducible in one case and not in the other; both
    are out of reach, alone or as the cofactor left after the root of
    (t - 1)^2, and the refusal says so instead of guessing."""
    quintics = [P.poly([-1, -1, 0, 0, 0, 1]),
                P.pmul(P.poly([1, 0, 1]), P.poly([1, 1, 0, 1]))]
    for q in quintics:
        _, factors = _to_sympy(q).factor_list()
        assert all(f.degree() > 1 for f, _ in factors)
        assert all(e == 1 for _, e in factors)
        for p in (q, P.pmul(ppow(P.poly([-1, 1]), 2), q)):
            with pytest.raises(MissingFactorization):
                P.factor_poly(p)
        with pytest.raises(MissingFactorization):
            P.is_irreducible(q)
