"""Property tests for membership in the ideal n_Q W(Q) and for lambda
powers (needs hypothesis).

Over division algebras, integral or not, nq_membership must accept every
n_Q (x) y, must not change its verdict when n_Q (x) y is added, and may
accept only classes in I^2 that vanish wherever the algebra splits.  Over
split and division algebras it must give the verdicts of the reference
below, which finds the ramified places from Hilbert symbols of (a, b)
taken place by place.

lambda_all must print, term by term, what the full convolution prints:
every product c * e of a coefficient and a factor entry, the products by 1
and by <Nrd z> included, each added to a running sum that starts at 0.

A point where versal sampling refutes a claimed constant value must be one
where mixed_equal finds the value and the claim distinct."""

import random
from collections import Counter
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt import quadforms  # noqa: E402
from quatwitt.fields import factorize, hilbert_symbol  # noqa: E402
from quatwitt.hermitian import AntiHermForm  # noqa: E402
from quatwitt.invariants import (  # noqa: E402
    LambdaInvariant,
    eval_invariant,
    lambda_all,
    n_q_class,
    nq_membership,
    versal_sample_check,
)
from quatwitt.mixed import (  # noqa: E402
    mixed,
    mixed_equal,
    mixed_even,
    mixed_odd,
    mixed_one,
    mixed_zero,
)
from quatwitt.quadforms import (  # noqa: E402
    is_isotropic,
    local_anisotropic_dim,
    pfister,
    qf,
    signature,
    signed_disc,
    witt_class,
    witt_invariants,
)
from quatwitt.quaternions import (  # noqa: E402
    QuatAlgebra,
    is_split,
    norm_form,
    ramified_places,
)
from test_product_digest import ALGEBRAS as DIGEST_ALGEBRAS  # noqa: E402

nonzero = st.integers(-12, 12).filter(bool)
slot = st.builds(Fraction, nonzero, st.sampled_from([1, 1, 2, 3, 5]))
# (-3, -10) ramifies at the real place and at 2, 3 and 5
algebra = st.one_of(st.just((-3, -10)), st.tuples(slot, slot)).map(
    lambda ab: QuatAlgebra(*ab))
division = algebra.filter(lambda A: not n_q_class(A).is_zero())
entry = st.sampled_from([1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10,
                         11, -13, 15, -30])


def _form(values):
    return witt_class(qf(values))


def _reference_primes(values):
    """2 and every prime of the numerators and denominators of the nonzero
    rationals values: the primes where their Hilbert symbols can be -1."""
    primes = {2}
    for x in map(Fraction, values):
        for n in (x.numerator, x.denominator):
            primes.update(p for p, _ in factorize(n)[1])
    return sorted(primes)


def _reference_nq_membership(x, A):
    """Membership in n_Q W(Q) with the ramified places of A taken from the
    Hilbert symbols (a, b)_v, v = -1 and the reference primes of x, a and
    b, and splitting from the isotropy of n_Q: x is in I^2, 0 where A
    splits, and x_p != 0 at all ramified primes or at none."""
    if is_isotropic(norm_form(A)):
        return "member" if x.is_zero() else "nonmember"
    q = x.anis
    if q.dim % 2 or signed_disc(q) != 1:
        return "nonmember"
    a, b = A.a, A.b
    if hilbert_symbol(a, b, -1) == 1 and signature(q):
        return "nonmember"
    clifford = []
    for p in _reference_primes(list(q.reps()) + [a, b]):
        nonzero = local_anisotropic_dim(q, p) != 0
        if hilbert_symbol(a, b, p) == -1:
            clifford.append(nonzero)
        elif nonzero:
            return "nonmember"
    return "member" if all(clifford) or not any(clifford) else "nonmember"


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
    assert q.dim % 2 == 0 and signed_disc(q) == 1
    if hilbert_symbol(A.a, A.b, -1) == 1:
        assert signature(q) == 0
    for p in _reference_primes(list(q.reps()) + [A.a, A.b]):
        if hilbert_symbol(A.a, A.b, p) == 1:
            assert local_anisotropic_dim(q, p) == 0


def test_nq_membership_equals_the_hilbert_symbol_reference():
    """Seeded draws over split and division algebras, integral or not:
    x = <<c, d>> u + n_Q y + w.  The first term is in I^2, with Clifford
    invariant (c, d) for odd dim u; w, often 0, can take x out of I^2;
    each tenth x is a bare n_Q y.  Members and nonmembers occur over both
    kinds of algebra."""
    rng = random.Random(25)
    slots = [Fraction(n, d) for n in range(-12, 13) if n for d in (1, 2, 3, 5)]
    entries = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 11, -13]
    seen = Counter()
    for k in range(600):
        A = QuatAlgebra(rng.choice(slots), rng.choice(slots))
        x = n_q_class(A) * _form(rng.choices(entries, k=rng.randint(0, 2)))
        if k % 10:
            c, d = rng.choice(entries), rng.choice(entries)
            u = rng.choices(entries, k=rng.randint(0, 2))
            w = rng.choices(entries, k=rng.choice([0, 0, 0, 1, 2]))
            x = x + witt_class(pfister([c, d])) * _form(u) + _form(w)
        got = nq_membership(x, A)
        assert got == _reference_nq_membership(x, A), (A, x)
        seen[n_q_class(A).is_zero(), got] += 1
    assert set(seen) == {(split, verdict) for split in (True, False)
                         for verdict in ("member", "nonmember")}, seen


def _per_place_ramified_places(A):
    """The ramified places with one `local_anisotropic_dim` per place that
    `witt_invariants` keys: the reference for the one local reading."""
    n = norm_form(A)
    return tuple(v for v in witt_invariants(n).hasse
                 if local_anisotropic_dim(n, v) == 4)


def _per_place_nq_membership(x, A):
    """`nq_membership` with one `local_anisotropic_dim` per place that
    `witt_invariants` keys, and the ramified places found the same way."""
    ramified = _per_place_ramified_places(A)
    if not ramified:
        return "member" if x.is_zero() else "nonmember"
    q = x.anis
    if q.dim % 2 or signed_disc(q) != 1:
        return "nonmember"
    nonzero = {v for v in witt_invariants(q).hasse
               if local_anisotropic_dim(q, v)}
    if nonzero - set(ramified):
        return "nonmember"
    clifford = {p in nonzero for p in ramified if p != -1}
    return "member" if len(clifford) <= 1 else "nonmember"


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(algebra, entry, entry, st.lists(entry, max_size=2),
                  st.lists(entry, max_size=2), st.lists(entry, max_size=3))
# <<-1, -1, -1>> is 0 at every prime but not at the real place, where
# (-1, 3) splits: only the real place makes it a nonmember
@hypothesis.example(QuatAlgebra(-1, 3), -1, -1, [1, 1], [], [])
def test_one_local_reading_equals_the_per_place_reference(A, c, d, u, y, w):
    """x = <<c, d>> u + n_Q y + w over split and division algebras,
    rational a and b included: in I^2 when w is 0 or cancels, a member
    when u and w are, and often neither.  The ramified places come in
    order: the real place first, then the primes ascending."""
    x = (witt_class(pfister([c, d])) * _form(u) + n_q_class(A) * _form(y)
         + _form(w))
    places = ramified_places(A)
    assert places == _per_place_ramified_places(A)
    primes = places[1:] if places[:1] == (-1,) else places
    assert list(primes) == sorted(set(primes)) and -1 not in primes
    got = nq_membership(x, A)
    hypothesis.event(f"{'split' if not places else 'division'}: {got}")
    assert got == _per_place_nq_membership(x, A)


def test_nq_membership_reads_the_class_locally_once(monkeypatch):
    """One `_local_q` of x gives every place; the algebra's ramified places
    are read (and cached) before the count starts."""
    A = QuatAlgebra(-3, -10)
    assert ramified_places(A) == (-1, 2, 3, 5)
    reads = []
    local_q = quadforms._local_q

    def spy(q):
        reads.append(q)
        return local_q(q)

    monkeypatch.setattr(quadforms, "_local_q", spy)
    # 3 n_Q is in I^2, nonzero at every ramified place
    x = n_q_class(A) * _form([1, 1, 1])
    reads.clear()
    assert nq_membership(x, A) == "member"
    assert reads == [x.anis]
    # <<-1, -1>> = <1, 1, 1, 1> is in I^2, 0 at 3 and 5 but not at 2
    x = witt_class(pfister([-1, -1]))
    reads.clear()
    assert nq_membership(x, A) == "nonmember"
    assert reads == [x.anis]


def _reference_lambda_all(h):
    """The convolution of the factors 1 + <z> t + <Nrd z> t^2 with every
    product taken in the mixed ring and added to a sum that starts at 0."""
    A = h.algebra
    coeffs = [mixed_one(A)]
    for z in h.diag:
        entry = [mixed_one(A), mixed_odd(A, z),
                 mixed_even(A, witt_class(qf([z.nrd()])))]
        new = [mixed_zero(A) for _ in range(len(coeffs) + 2)]
        for i, c in enumerate(coeffs):
            for j, e in enumerate(entry):
                new[i + j] = new[i + j] + c * e
        coeffs = new
    return coeffs


coord = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3]))


@st.composite
def anti_hermitian(draw):
    """A diagonal of rank 1-3 over one of the five algebras of the
    product/lambda digest, with rational coordinates."""
    A = QuatAlgebra(*draw(st.sampled_from(DIGEST_ALGEBRAS)))
    pure = st.tuples(coord, coord, coord).filter(any).map(
        lambda c: A.pure(*c)).filter(lambda z: z.is_invertible())
    return AntiHermForm(tuple(draw(st.lists(pure, min_size=1, max_size=3))),
                        A)


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(anti_hermitian())
def test_lambda_all_prints_the_full_convolution(h):
    hypothesis.event(f"rank {h.rank}")
    got = [repr(x) for x in lambda_all(h)]
    assert got == [repr(x) for x in _reference_lambda_all(h)]


# ---------------------------------------------------------------------------
# versal sampling

small = st.integers(-3, 3)


def _mixed_class(draw, A, max_even, max_odd):
    pure = st.tuples(small, small, small).filter(any).map(
        lambda c: A.pure(*c)).filter(lambda z: z.is_invertible())
    return mixed(A, even=_form(draw(st.lists(entry, max_size=max_even))),
                 odd_entries=tuple(draw(st.lists(pure, max_size=max_odd))))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from([(1, 1), (2, 7), (-1, -1), (-1, -3)]),
                  st.data(), st.integers(0, 2 ** 16))
def test_versal_refutations_are_distinct(ab, data, seed):
    """A refuting sample point is one where the value of the invariant and
    the claim are distinct, over split and division algebras alike.  The
    invariant is often the constant x_0 and the claim x_0 plus a small
    class, often only an odd one, so that the odd parts decide."""
    A = QuatAlgebra(*ab)
    x0 = _mixed_class(data.draw, A, 2, 1)
    if data.draw(st.booleans()):
        coeffs = (x0, mixed_zero(A), mixed_zero(A))
    else:
        coeffs = (x0, _mixed_class(data.draw, A, 1, 1),
                  _mixed_class(data.draw, A, 1, 1))
    alpha = LambdaInvariant(1, coeffs)
    claimed = x0 + _mixed_class(data.draw, A, 1, 2)
    check = versal_sample_check(alpha, claimed, n_samples=3, seed=seed,
                                height=5)
    hypothesis.event(f"{'split' if is_split(A) else 'division'}: "
                     f"{check.status}")
    if check.status == "refuted":
        h = AntiHermForm(tuple(A.pure(*p) for p in check.point), A)
        assert mixed_equal(eval_invariant(alpha, h), claimed) == "distinct"
