"""Property tests for the Hilbert symbol on nonzero rationals (needs
hypothesis)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.fields import (  # noqa: E402
    REAL_PLACE,
    factorize,
    finite_place,
    hilbert_symbol,
)

rational = st.builds(Fraction, st.integers(-300, 300).filter(bool),
                     st.integers(1, 60))
settings = hypothesis.settings(max_examples=200, deadline=None)


def _places(*values):
    """The real place and the primes of 2 * values: every place where the
    symbol of these values can be -1."""
    n = 2
    for x in values:
        n *= x.numerator * x.denominator
    return [REAL_PLACE] + [finite_place(p) for p, _ in factorize(n)[1]]


@settings
@hypothesis.given(rational, rational)
def test_hilbert_product_formula(a, b):
    prod = 1
    for v in _places(a, b):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


@settings
@hypothesis.given(rational, rational, rational)
def test_hilbert_multiplicative_in_b(a, b, c):
    for v in _places(a, b, c):
        assert (hilbert_symbol(a, b * c, v)
                == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v))


@settings
@hypothesis.given(rational)
def test_hilbert_a_minus_a(a):
    for v in _places(a):
        assert hilbert_symbol(a, -a, v) == 1
