"""The Witt class over Q and over F_p, which peels its kernel when it is
read, against an eager reference kept here (needs hypothesis).

The reference keeps kernels only and peels at every step, as `witt_class`
and `+` did before the peel waited for a read: a class is the peel of its
diagonal, a sum the peel of the two kernels joined (a kernel plus 0 is the
kernel as it stands), and a mixed product adds the peel of each twisted
trace form in turn to the product of the even parts.  Over Q, <c> times a
kernel is the kernel scaled and sorted; over F_p it is the peel of the
scaled kernel.  The F_p reference peels on its own: W(F_p) is classified
by dim mod 2 and the signed discriminant, whose square class it reads
from Euler's criterion on the product of the entries.

A drawn program of sums, chains of sums, negations, rank-1 products and,
over Q, mixed products runs on both.  Before any kernel of the result is
read, equality, the hash, the zero test and, over Q, n_Q-membership must
agree with the reference and peel nothing; the lazy side must answer
wherever the reference answered; a pickled class must come back with the
reference's kernel; and the kernel read at the end must be the
reference's."""

import pickle
from contextlib import ExitStack
from functools import partial
from math import prod
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt import quadforms  # noqa: E402
from quatwitt.errors import FactorizationLimitExceeded  # noqa: E402
from quatwitt.fields import Fp, sq_mul  # noqa: E402
from quatwitt.invariants import nq_membership  # noqa: E402
from quatwitt.mixed import mixed, twisted_trace_form  # noqa: E402
from quatwitt.quadforms import (  # noqa: E402
    QuadForm,
    WittClass,
    qf,
    witt_class,
    witt_equal,
)
from quatwitt.quaternions import QuatAlgebra  # noqa: E402

# each entry has one prime past 10^6; kernels of their sums hold products
# of two of them, which trial division alone cannot certify
PAST_TRIAL_BOUND = (-6761829963070, -2310769230, -1874730, 1352078,
                    12562985526, 43026386810, 1009507350390, 17161624956630)
ALGEBRAS = [QuatAlgebra(-1, -1), QuatAlgebra(-1, -3), QuatAlgebra(1, 1),
            QuatAlgebra(2, 7)]
DIVISION = QuatAlgebra(-1, -1)
SPLIT = QuatAlgebra(1, 1)


def _peel(entries):
    return quadforms._anisotropic_reps_q_cached(tuple(sorted(entries)))


def _add(x, y, peel=_peel):
    if not y:
        return x
    if not x:
        return y
    return peel(x + y)


def _scale(x, c):
    return tuple(sorted((sq_mul(c, e) for e in x), key=lambda r: (abs(r), r)))


def _mul(x, y):
    if len(y) == 1:
        return _scale(x, y[0])
    if len(x) == 1:
        return _scale(y, x[0])
    return _peel([sq_mul(a, b) for a in x for b in y])


small = st.integers(-30, 30).filter(bool)
diagonal = st.builds(
    lambda s, b: s + b,
    st.lists(small, max_size=4),
    st.lists(st.sampled_from(PAST_TRIAL_BOUND), max_size=4, unique=True),
).filter(bool)
pure = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)
index = st.integers(0, 50)


def _linear_steps(c):
    """Sums, chains of sums, negations and products with <c>, c drawn by
    the strategy c."""
    return [
        st.tuples(st.just("add"), index, index),
        st.tuples(st.just("sum"), index,
                  st.lists(index, min_size=2, max_size=4)),
        st.tuples(st.just("neg"), index),
        st.tuples(st.just("mul1"), index, c),
    ]


step = st.one_of(*_linear_steps(small), st.tuples(
    st.just("mixed"), index, index, st.sampled_from(ALGEBRAS),
    st.lists(pure, max_size=2), st.lists(pure, max_size=2)))


def _run(leaves, steps):
    """The pool of (class, reference kernel) after each step, and the
    mixed products' odd parts with the reference's."""
    pool = [(witt_class(qf(d)), _peel(qf(d).entries)) for d in leaves]
    odd_parts = []
    for kind, i, *rest in steps:
        x, kx = pool[i % len(pool)]
        if kind == "add":
            y, ky = pool[rest[0] % len(pool)]
            pool.append((x + y, _add(kx, ky)))
        elif kind == "sum":
            # a chain of sums, none of them read: one fold of the summands
            for j in rest[0]:
                y, ky = pool[j % len(pool)]
                x, kx = x + y, _add(kx, ky)
            pool.append((x, kx))
        elif kind == "neg":
            pool.append((-x, _scale(kx, -1)))
        elif kind == "mul1":
            c = qf([rest[0]])
            pool.append((x * witt_class(c), _mul(kx, c.entries)))
        else:
            j, A, c1, c2 = rest
            y, ky = pool[j % len(pool)]
            z1 = [A.pure(*c) for c in c1]
            z2 = [A.pure(*c) for c in c2]
            hypothesis.assume(all(z.is_invertible() for z in z1 + z2))
            prod = mixed(A, x, z1) * mixed(A, y, z2)
            even = _mul(kx, ky)
            for zs in z1:
                for zt in z2:
                    even = _add(even, _peel(twisted_trace_form(zs, zt).entries))
            odd = [z.scale(c) for c in kx for z in z2] + [
                z.scale(c) for c in ky for z in z1]
            pool.append((prod.even, even))
            odd_parts.append((prod.odd.diag, tuple(odd)))
    return pool, odd_parts


def _must_not_peel(reps):
    raise AssertionError(f"peeled {reps} in a comparison")


def _no_peel():
    """A block in which a peel over Q or over F_p fails the test."""
    stack = ExitStack()
    for name in ("_anisotropic_reps_q_cached", "_anisotropic_reps_fp"):
        stack.enter_context(mock.patch.object(quadforms, name, _must_not_peel))
    return stack


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(st.lists(diagonal, min_size=1, max_size=3),
                  st.lists(step, min_size=1, max_size=5))
def test_a_class_read_late_answers_as_the_eager_reference(leaves, steps):
    try:
        pool, odd_parts = _run(leaves, steps)
        # the reference answers, or the draw is dropped
        kernels = [QuadForm(k) for _, k in pool]
        want_equal = [witt_equal(kernels[-1], k) for k in kernels]
        want_nq = [nq_membership(WittClass(k), A)
                   for A in (DIVISION, SPLIT) for k in kernels]
    except FactorizationLimitExceeded:
        hypothesis.event("the reference refuses")
        hypothesis.assume(False)
    hypothesis.event("the last class is unpeeled"
                     if pool[-1][0]._terms is not None
                     else "the last class is peeled")
    if any(r in PAST_TRIAL_BOUND for d in leaves for r in d):
        hypothesis.event("an entry with a prime past 10^6")
    last = pool[-1][0]
    with _no_peel():
        assert [last == w for w, _ in pool] == want_equal
        assert [hash(w) for w, _ in pool] == [hash(WittClass(k))
                                              for k in kernels]
        assert [w.is_zero() for w, _ in pool] == [not k.dim for k in kernels]
        assert [nq_membership(w, A) for A in (DIVISION, SPLIT)
                for w, _ in pool] == want_nq
        copies = [pickle.loads(pickle.dumps(w)) for w, _ in pool]
    assert [c.anis for c in copies] == kernels
    assert [w.anis.entries for w, _ in pool] == [k.entries for k in kernels]
    for got, want in odd_parts:
        assert got == want


FP_PRIMES = (3, 5, 7, 13)


def _fp_class(p, v):
    """The square class of v mod p by Euler's criterion: 1 for a square,
    else the least non-residue."""
    if pow(v, (p - 1) // 2, p) == 1:
        return 1
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def _fp_peel(p, entries):
    """The kernel over F_p of the diagonal of entries: <d> in odd
    dimension, else 0 or <1, -d>, for d the signed discriminant."""
    n = len(entries)
    d = (-1) ** (n * (n - 1) // 2) * prod(entries)
    if n % 2:
        return (_fp_class(p, d),)
    return () if _fp_class(p, d) == 1 else (1, _fp_class(p, -d))


@st.composite
def fp_programs(draw):
    """(p, leaves, steps) with every drawn entry a unit mod p."""
    p = draw(st.sampled_from(FP_PRIMES))
    unit = small.filter(lambda v: v % p)
    leaves = draw(st.lists(st.lists(unit, min_size=1, max_size=6),
                           min_size=1, max_size=3))
    steps = draw(st.lists(st.one_of(*_linear_steps(unit)), min_size=1,
                          max_size=6))
    return p, leaves, steps


def _run_fp(p, leaves, steps):
    """The pool of (class, reference kernel) after each step over F_p."""
    field = Fp(p)
    peel = partial(_fp_peel, p)
    pool = [(witt_class(qf(d, field)), peel(d)) for d in leaves]
    for kind, i, *rest in steps:
        x, kx = pool[i % len(pool)]
        if kind == "add":
            y, ky = pool[rest[0] % len(pool)]
            pool.append((x + y, _add(kx, ky, peel)))
        elif kind == "sum":
            for j in rest[0]:
                y, ky = pool[j % len(pool)]
                x, kx = x + y, _add(kx, ky, peel)
            pool.append((x, kx))
        elif kind == "neg":
            pool.append((-x, peel([-e for e in kx])))
        else:
            c = rest[0]
            pool.append((x * witt_class(qf([c], field)),
                         peel([c * e for e in kx])))
    return pool


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(fp_programs())
def test_a_class_over_fp_read_late_answers_as_the_eager_reference(program):
    p, leaves, steps = program
    pool = _run_fp(p, leaves, steps)
    kernels = [k for _, k in pool]
    hypothesis.event("the last class is unpeeled"
                     if pool[-1][0]._terms is not None
                     else "the last class is peeled")
    last = pool[-1][0]
    field = Fp(p)
    with _no_peel():
        # a class over F_p has one kernel, so equal classes have equal ones
        assert [last == w for w, _ in pool] == [kernels[-1] == k
                                                for k in kernels]
        assert [hash(w) for w, _ in pool] == [
            hash(WittClass(QuadForm(k, field))) for k in kernels]
        assert [w.is_zero() for w, _ in pool] == [not k for k in kernels]
        copies = [pickle.loads(pickle.dumps(w)) for w, _ in pool]
    assert [c.anis.entries for c in copies] == kernels
    assert [w.anis.entries for w, _ in pool] == kernels
