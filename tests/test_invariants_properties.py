"""Property tests for membership in the ideal n_Q W(Q) (needs hypothesis).

Over division algebras, integral or not, nq_membership must accept every
n_Q (x) y, must not change its verdict when n_Q (x) y is added, and may
accept only classes in I^2 that vanish wherever the algebra splits."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.fields import (  # noqa: E402
    REAL_PLACE,
    finite_place,
    hilbert_symbol,
    relevant_primes,
)
from quatwitt.invariants import n_q_class, nq_membership  # noqa: E402
from quatwitt.quadforms import (  # noqa: E402
    local_anisotropic_dim,
    pfister,
    qf,
    signature,
    signed_disc,
    witt_class,
)
from quatwitt.quaternions import QuatAlgebra  # noqa: E402

nonzero = st.integers(-12, 12).filter(bool)
slot = st.builds(Fraction, nonzero, st.sampled_from([1, 1, 2, 3, 5]))
# (-3, -10) ramifies at the real place and at 2, 3 and 5
division = st.one_of(st.just((-3, -10)), st.tuples(slot, slot)).map(
    lambda ab: QuatAlgebra(*ab)).filter(lambda A: not n_q_class(A).is_zero())
entry = st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10,
                         11, -13, 15, -30])


def _form(values):
    return witt_class(qf(values))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(division, st.lists(entry, min_size=1, max_size=3))
def test_multiples_of_nq_are_members(A, y):
    assert nq_membership(n_q_class(A) * _form(y), A) == "member"


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(division, st.lists(entry, max_size=6),
                  st.lists(entry, min_size=1, max_size=2))
def test_adding_a_multiple_keeps_the_verdict(A, x, y):
    x = _form(x)
    assert nq_membership(x + n_q_class(A) * _form(y), A) \
        == nq_membership(x, A)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(division, entry, entry, st.lists(entry, max_size=2),
                  st.lists(entry, max_size=2))
def test_members_are_in_i2_and_vanish_where_q_splits(A, c, d, u, y):
    # <<c, d>> u is in I^2 and, for odd dim u, has Clifford invariant
    # (c, d): members and nonmembers in I^2 both occur
    x = witt_class(pfister([c, d])) * _form(u) + n_q_class(A) * _form(y)
    if nq_membership(x, A) == "nonmember":
        return
    q = x.anis
    assert q.dim % 2 == 0 and signed_disc(q).is_one()
    if hilbert_symbol(A.a, A.b, REAL_PLACE) == 1:
        assert signature(q) == 0
    for p in relevant_primes(list(q.reps()) + [A.a, A.b]):
        if hilbert_symbol(A.a, A.b, finite_place(p)) == 1:
            assert local_anisotropic_dim(q, p) == 0
