"""Property tests for the anisotropic kernel over Q, its local invariants,
Gram-matrix diagonalization, Witt equality over F_p and the pair
cancellation that every Witt zero test runs first (needs hypothesis)."""

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.errors import (  # noqa: E402
    DegenerateForm,
    FactorizationLimitExceeded,
)
from quatwitt.fields import Fp, is_prime, sq_mul  # noqa: E402
from quatwitt.quadforms import (  # noqa: E402
    _adjoin,
    _anis_dim,
    _anisotropic_reps_q_cached,
    _diagonalize_inplace,
    _hasse_with,
    _kernel_candidates,
    _Local,
    _local_data,
    _local_dim,
    _local_q,
    _represented_by_kernel,
    _signed,
    cancel_pairs,
    diagonalize,
    integer_gram_form,
    is_isotropic,
    qf,
    signed_disc,
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


def _reference_local_data(reps):
    """The invariants by adjoining one entry at a time, in increasing
    absolute value as `_local_data` collects its primes, each Hasse symbol
    updated by the Hilbert symbols of `_hasse_with`: the reference for the
    one-pass closed form of `_local_data`."""
    loc = _Local(0, 1, 0, {2: 1})
    for r in sorted(reps, key=abs):
        loc = _adjoin(loc, r)
    return loc


def _reference_splits_off(loc, c, k):
    """Whether the k-dimensional kernel of x represents c, every place
    checked for every candidate: the reference for the square-class
    verdict tables of the kernel peel."""
    if abs(loc.sig - (1 if c > 0 else -1)) >= k:
        return False
    disc = sq_mul(loc.disc, -c)
    return all(_local_dim(loc.dim + 1, disc, s, p) < k
               for p, s in _hasse_with(loc, -c))


def _reference_kernel(reps):
    loc = _reference_local_data(reps)
    n = _anis_dim(loc)
    if n == len(reps):
        out = list(reps)
    else:
        out = []
        for k in range(n, 1, -1):
            c = next(c for c in _kernel_candidates(reps, loc)
                     if _reference_splits_off(loc, c, k))
            out.append(c)
            loc = _adjoin(loc, -c)
        if n:
            out.append(_signed(loc.dim, loc.disc))
    return tuple(sorted(out, key=lambda r: (abs(r), r)))


# products of two primes above 10^3: their cofactors are factored when they
# enter, and they put large primes among the kernel candidates
big_prime = st.sampled_from([p for p in range(1001, 5000, 2) if is_prime(p)])
semiprime = st.builds(lambda s, pq: s * pq[0] * pq[1],
                      st.sampled_from([1, -1]),
                      st.lists(big_prime, min_size=2, max_size=2, unique=True))


@st.composite
def squarefree_diagonal(draw):
    """Sorted squarefree entries, as `_local_q` passes them: dimension
    1-10 with |entries| <= 60, in half the draws with one or two of them
    products of two primes above 10^3."""
    big = draw(st.lists(semiprime, min_size=1, max_size=2)
               if draw(st.booleans()) else st.just([]))
    small = draw(st.lists(entry, min_size=0 if big else 1,
                          max_size=10 - len(big)))
    return tuple(sorted(qf(small + big).reps()))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(squarefree_diagonal())
def test_local_data_and_kernel_equal_the_adjoin_reference(reps):
    got, want = _local_data(reps), _reference_local_data(reps)
    assert (got.dim, got.disc, got.sig) == (want.dim, want.disc, want.sig)
    assert got.hasse == want.hasse
    assert list(got.hasse) == list(want.hasse)
    # the first slot's test against the reference on the first candidates,
    # rejected ones included, before a wrong test can stall the peel
    k = _anis_dim(got)
    if 2 <= k < len(reps):
        represents = _represented_by_kernel(got, k)
        for c in itertools.islice(_kernel_candidates(reps, got), 64):
            assert represents(c) == _reference_splits_off(got, c, k)
    kernel = _anisotropic_reps_q_cached(reps)
    hypothesis.event("peeled" if len(kernel) < len(reps) else "anisotropic")
    hypothesis.event("large primes" if any(abs(r) > 60 for r in reps)
                     else "entries up to 60")
    assert kernel == _reference_kernel(reps)


@st.composite
def definite_part_diagonal(draw):
    """Sorted squarefree entries: a definite part of 4-8 entries of one sign
    and 1-4 pairs <r, -s>, so the signature, and so the kernel dimension,
    is 4-8, and the peel runs its slots of k >= 4.  In half the draws one
    more pair has a product of two primes above 10^3 (more of them would
    leave the slots below 4 a search through 2^n products of primes)."""
    sign = draw(st.sampled_from([1, -1]))
    definite = draw(st.lists(st.integers(1, 60), min_size=4, max_size=8))
    small = st.integers(1, 60)
    pairs = draw(st.lists(st.tuples(small, small), min_size=1, max_size=4))
    if draw(st.booleans()):
        pairs.append(draw(st.tuples(semiprime.map(abs), small)))
    values = [sign * v for v in definite] + [v for r, s in pairs
                                             for v in (r, -s)]
    return tuple(sorted(qf(values).reps()))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(definite_part_diagonal())
def test_signature_alone_decides_the_peel_slots_from_4_up(reps):
    """Each slot of kernel dimension k >= 4 accepts exactly the candidates
    the every-place reference accepts, on the first 64 of them, and the
    peeled kernel is the reference's."""
    loc = _local_data(reps)
    n = _anis_dim(loc)
    assert 4 <= n <= 8 and n < len(reps)
    hypothesis.event(f"kernel of dimension {n}")
    for k in range(n, 3, -1):
        represents = _represented_by_kernel(loc, k)
        for c in itertools.islice(_kernel_candidates(reps, loc), 64):
            assert represents(c) == _reference_splits_off(loc, c, k), (c, k)
        c = next(filter(represents, _kernel_candidates(reps, loc)))
        loc = _adjoin(loc, -c)
    assert _anisotropic_reps_q_cached(reps) == _reference_kernel(reps)


def _entries(n):
    return st.lists(st.one_of(entry, semiprime), min_size=n, max_size=n)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.one_of(
    _entries(5),
    st.builds(lambda c, rest: [c, -c] + rest, entry, _entries(3))))
def test_local_dimension_is_the_dimension_of_the_kernel(entries):
    """On 5-entry squarefree diagonals, the shape the rank-1 isometry test
    reads, the largest local dimension is that of the peeled kernel.  Half
    the draws hold a hyperbolic plane, as that test's forms do."""
    q = qf(entries)
    assert q.dim == 5
    hypothesis.event(f"kernel of dimension {witt_class(q).dim}")
    assert _anis_dim(_local_q(q)) == witt_class(q).dim


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
    return [Fraction(n, d) for n, d in _diagonalize_inplace(
        [[int(x * den) for x in row] for row in g], den)]


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


# trial division cannot certify this cofactor prime, so factoring refuses
UNCERTIFIED = 1000041000577


@st.composite
def integer_gram(draw):
    """A symmetric integer matrix of size 1-6 and a denominator; half of
    them have a zero diagonal, so the first pivot is made by
    e_i <- e_i + e_j.  Entries and pivots of either sign; in one draw in
    eight the denominator or an entry is the cofactor that factoring
    refuses."""
    n = draw(st.integers(1, 6))
    zero_diagonal = draw(st.booleans())
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                m[i][j] = m[j][i] = draw(st.integers(-30, 30))
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    where = draw(st.integers(0, 15))
    if where == 0:
        den = UNCERTIFIED
    elif where == 1:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] = m[j][i] = UNCERTIFIED
    return m, den


def _fraction_route(m, den):
    """The reference for `integer_gram_form`: each pivot pair as a Fraction,
    classified as a rational by qf."""
    return qf([Fraction(n, d) for n, d in _diagonalize_inplace(m, den)])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(integer_gram())
def test_integer_gram_form_equals_the_fraction_route(m_den):
    m, den = m_den
    want = _outcome(lambda m: _fraction_route([r[:] for r in m], den).reps(),
                    m)
    if not isinstance(want, str):
        pairs = _diagonalize_inplace([r[:] for r in m], den)
        hypothesis.event("negative pivot" if any(n < 0 for n, _ in pairs)
                         else "positive pivots")
    hypothesis.event(want if isinstance(want, str) else "regular")
    assert _outcome(lambda m: integer_gram_form([r[:] for r in m],
                                                den).reps(), m) == want


def _reference_witt_equal_fp(q1, q2):
    """Witt equality over F_p as the comparison of the invariants that
    classify W(F_p): the dimension mod 2 and the signed discriminant."""
    return (q1.dim % 2 == q2.dim % 2
            and signed_disc(q1) == signed_disc(q2))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.data())
def test_witt_equal_over_fp_equals_the_invariant_comparison(data):
    """witt_equal tests q1 _|_ -q2 over F_p as over Q."""
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13]))
    values = st.lists(st.integers(1, p - 1), max_size=6)
    q1 = qf(data.draw(values), Fp(p))
    q2 = qf(data.draw(values), Fp(p))
    want = _reference_witt_equal_fp(q1, q2)
    hypothesis.event(f"{want}")
    assert witt_equal(q1, q2) == want


def _cancel_counts(items, cls, neg):
    """What cancel_pairs must leave of each class: |n(C) - n(-C)| items of
    the larger of C and -C, or n(C) mod 2 when C = -C."""
    n = Counter(cls(x) for x in items)
    return {c: n[c] % 2 if c == neg(c) else max(n[c] - n[neg(c)], 0)
            for c in n}


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(st.integers(-12, 12), max_size=14), st.randoms(),
                  st.sampled_from(["x == -y", "mod 6", "mod 5"]))
def test_cancel_pairs_leaves_the_unmatched_count_of_each_class(
        items, rnd, relation):
    """Classes are the integers under x == -y (0 = -0), the residues mod 6
    with -C = -x mod 6 (0 and 3 are their own opposites), or the residues
    mod 5 each opposite to itself.  What is left is a subsequence of the
    items with the counts above, and shuffling changes no count."""
    cls, neg = {
        "x == -y": (lambda x: x, lambda c: -c),
        "mod 6": (lambda x: x % 6, lambda c: -c % 6),
        "mod 5": (lambda x: x % 5, lambda c: c),
    }[relation]

    def opposite(x, y):
        return cls(y) == neg(cls(x))

    left = cancel_pairs(items, opposite)
    rest = iter(items)
    assert all(x in rest for x in left)
    want = _cancel_counts(items, cls, neg)
    assert Counter(cls(x) for x in left) == +Counter(want)
    shuffled = list(items)
    rnd.shuffle(shuffled)
    assert Counter(cls(x) for x in cancel_pairs(shuffled, opposite)) \
        == Counter(cls(x) for x in left)
