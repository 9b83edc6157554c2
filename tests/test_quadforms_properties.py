"""Property tests for the anisotropic kernel over Q and for Gram-matrix
diagonalization (needs hypothesis)."""

from fractions import Fraction
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.errors import (  # noqa: E402
    DegenerateForm,
    FactorizationLimitExceeded,
)
from quatwitt.quadforms import (  # noqa: E402
    _diagonalize_inplace,
    diagonalize,
    is_isotropic,
    qf,
    witt_class,
    witt_equal,
)

entry = st.integers(-60, 60).filter(bool)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.lists(entry, min_size=1, max_size=8))
def test_kernel_is_anisotropic_and_witt_equal(diag):
    q = qf(diag)
    k = witt_class(q).anis
    assert k.dim <= q.dim and k.dim % 2 == q.dim % 2
    assert k.dim == 0 or not is_isotropic(k)
    assert witt_equal(q, k)


def _gauss_reference(g):
    """Symmetric Gauss reduction over Fractions, the reference for the
    fraction-free routine: the same pivot rule (first nonzero diagonal of
    the rows left, else e_i <- e_i + e_j), with each Schur complement
    computed by Fraction division."""
    n = len(g)
    g = [row[:] for row in g]
    diag = []
    rows = list(range(n))
    while rows:
        piv = None
        for i in rows:
            if g[i][i] != 0:
                piv = i
                break
        if piv is None:
            found = False
            for i in rows:
                for j in rows:
                    if j != i and g[i][j] != 0:
                        for k in range(n):
                            g[i][k] += g[j][k]
                        for k in range(n):
                            g[k][i] += g[k][j]
                        piv = i
                        found = True
                        break
                if found:
                    break
            if piv is None:
                raise DegenerateForm("Gram matrix is degenerate")
        rows.remove(piv)
        d = g[piv][piv]
        diag.append(d)
        for i in rows:
            c = g[i][piv] / d
            if c == 0:
                continue
            for k in range(n):
                g[i][k] -= c * g[piv][k]
            for k in range(n):
                g[k][i] -= c * g[k][piv]
    return diag


gram_entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-12, max_value=12, max_denominator=6))


@st.composite
def symmetric_matrix(draw):
    """A symmetric Fraction matrix of size 1-6; half of them have a zero
    diagonal, so the first pivot is made by e_i <- e_i + e_j."""
    n = draw(st.integers(1, 6))
    zero_diagonal = draw(st.booleans())
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                g[i][j] = g[j][i] = draw(gram_entry)
    return g


@st.composite
def degenerate_matrix(draw):
    """A symmetric matrix with one row c times another, at any position:
    congruent to g + <0>, so it is degenerate."""
    g = draw(symmetric_matrix())
    n = len(g)
    k = draw(st.integers(0, n - 1))
    c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    row = [c * x for x in g[k]] + [c * c * g[k][k]]
    g = [r + [row[i]] for i, r in enumerate(g)] + [row]
    perm = draw(st.permutations(range(n + 1)))
    return [[g[i][j] for j in perm] for i in perm]


def _integer_values(g):
    den = lcm(*(x.denominator for row in g for x in row))
    return _diagonalize_inplace([[int(x * den) for x in row] for row in g],
                                den)


def _outcome(f, g):
    try:
        return f(g)
    except (DegenerateForm, FactorizationLimitExceeded) as exc:
        return type(exc).__name__


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(symmetric_matrix())
def test_fraction_free_diagonal_equals_gauss_reference(g):
    want = _outcome(_gauss_reference, g)
    hypothesis.event(want if isinstance(want, str) else "regular")
    assert _outcome(_integer_values, g) == want
    # diagonalize scales by the lcm of the denominators and classifies the
    # same rationals, so it also refuses exactly where the reference does
    assert _outcome(lambda g: diagonalize(g).reps(), g) == _outcome(
        lambda g: qf(_gauss_reference(g)).reps(), g)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(degenerate_matrix())
def test_fraction_free_refuses_degenerate(g):
    assert _outcome(_gauss_reference, g) == "DegenerateForm"
    with pytest.raises(DegenerateForm):
        _integer_values(g)
    with pytest.raises(DegenerateForm):
        diagonalize(g)
