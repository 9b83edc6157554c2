"""Property tests for the Hilbert symbol on nonzero rationals and for the
integer representatives of square classes (needs hypothesis)."""

from fractions import Fraction
from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt import fields  # noqa: E402
from quatwitt.errors import QuatWittError, ZeroElement  # noqa: E402
from quatwitt.fields import (  # noqa: E402
    QQ,
    Fp,
    class_mul,
    factorize,
    hilbert_symbol,
    ratio_class,
    square_class,
)
from quatwitt.quadforms import qf, signed_disc, witt_class  # noqa: E402
from quatwitt.quaternions import QuatAlgebra, norm_form  # noqa: E402

rational = st.builds(Fraction, st.integers(-300, 300).filter(bool),
                     st.integers(1, 60))
settings = hypothesis.settings(max_examples=200, deadline=None)


def _places(*values):
    """The real place and the primes of 2 * values: every place where the
    symbol of these values can be -1."""
    n = 2
    for x in values:
        n *= x.numerator * x.denominator
    return [-1] + [p for p, _ in factorize(n)[1]]


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


FIELDS = [QQ] + [Fp(p) for p in (3, 5, 7, 11, 13)]


def _units(field):
    """Nonzero rationals with a nonzero value in field."""
    if field.p is None:
        return rational
    p = field.p
    return rational.filter(lambda x: x.numerator % p and x.denominator % p)


def _case(field):
    units = _units(field)
    return st.tuples(st.just(field), st.lists(units, min_size=1, max_size=5),
                     st.lists(units, min_size=1, max_size=3), units)


cases = st.sampled_from(FIELDS).flatmap(_case)


def _representatives(q):
    """Whether every entry of q is the int that square_class gives."""
    return all(type(e) is int and square_class(e, q.field) == e
               for e in q.entries)


@settings
@hypothesis.given(cases)
def test_form_operations_keep_representatives(case):
    field, xs, ys, c = case
    q, r = qf(xs, field), qf(ys, field)
    for form in (q, q.neg(), q.scale(square_class(c, field)), q.tensor(r),
                 witt_class(q.perp(r)).anis):
        assert _representatives(form), form


@settings
@hypothesis.given(rational, rational)
def test_norm_form_keeps_representatives(a, b):
    n = norm_form(QuatAlgebra(a, b))
    assert _representatives(n)
    assert n == qf([1, -a, -b, a * b])


@settings
@hypothesis.given(cases)
def test_class_mul_is_the_class_of_the_product(case):
    field, (x, *_), _, y = case
    assert (class_mul(square_class(x, field), square_class(y, field), field)
            == square_class(x * y, field))


@settings
@hypothesis.given(cases)
def test_signed_disc_is_the_class_of_the_signed_product(case):
    field, xs, _, _ = case
    n = len(xs)
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    assert signed_disc(qf(xs, field)) == square_class(sign * prod(xs), field)


# small primes, a certified prime past the trial divisors, and cofactors
# past the factoring bound: 1000003 * 1000033 is not certified, and 2^1100
# is past GCD_BITS
_PRIMES = (2, 3, 5, 7, 11, 13, 97, 1000003)
_PAST = (1, 1, 1, 1000003 * 1000033, 2**1100)
ratio_part = st.builds(
    lambda sign, ps, past: sign * prod(ps) * past,
    st.sampled_from((1, -1)),
    st.lists(st.sampled_from(_PRIMES), max_size=8),
    st.sampled_from(_PAST))


def _reference_fraction_class(x: Fraction) -> int:
    """The class of x != 0 from the numerator and the denominator of the
    Fraction, factored apart, numerator first."""
    if not x:
        raise ZeroElement("square class of 0")
    if x.denominator == 1:
        return fields.squarefree_part(x.numerator)
    return (fields.squarefree_part(x.numerator)
            * fields.squarefree_part(x.denominator))


@settings
@hypothesis.given(st.one_of(st.just(0), ratio_part), ratio_part,
                  st.integers(1, 10**6))
def test_ratio_class_is_the_class_of_the_fraction(n, d, g):
    """ratio_class(n, d) is square_class(Fraction(n, d)), and the class read
    from that Fraction's numerator and denominator, for n and d of both
    signs from 1 to past the factoring bound, with a common factor g: the
    same integers are factored in the same order, and a refusal raises the
    same exception with the same message."""
    n, d = n * g, d * g
    factored = []

    def spy(m):
        factored.append(m)
        return factorize(m)

    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "factorize", spy)
        for read in (lambda: ratio_class(n, d),
                     lambda: square_class(Fraction(n, d)),
                     lambda: _reference_fraction_class(Fraction(n, d))):
            try:
                outcomes.append(read())
            except QuatWittError as exc:
                outcomes.append((type(exc), str(exc)))
            outcomes.append(factored[:])
            factored.clear()
    hypothesis.event("refused" if isinstance(outcomes[0], tuple)
                     else "read")
    assert outcomes[:2] == outcomes[2:4] == outcomes[4:]
