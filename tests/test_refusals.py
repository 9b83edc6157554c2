"""Refusals of ill-matched or out-of-domain arguments: each raises its own
error with its own message, checked explicitly (also under python -O)."""

import sys
from fractions import Fraction

import pytest

from quatwitt import hermitian
from quatwitt.cli import main
from quatwitt.errors import (
    AlgebraMismatch,
    DegreeTooLarge,
    FieldMismatch,
    GenericBasisUnavailable,
    LengthMismatch,
    NonSymmetricMatrix,
    NotNilpotent,
    RankMismatch,
    SchemaViolation,
    UnsupportedField,
    VerificationFailed,
    ZeroArgument,
    ZeroElement,
    ZeroSlot,
    quoted,
)
from quatwitt.fields import Fp, is_padic_square, square_class
from quatwitt.funcfield import kernel_generator
from quatwitt.hermitian import AntiHermForm, herm_diag, morita_transfer
from quatwitt.invariants import (LambdaInvariant, chi, eval_invariant,
                                 lambda_basis_invariant, versal_sample_check)
from quatwitt.mixed import mixed_one, mixed_zero, twisted_trace_form
from quatwitt.quadforms import (
    GroupRingElem,
    diagonalize,
    is_isotropic,
    pfister,
    qf,
    signature,
    witt_class,
    witt_equal,
)
from quatwitt.quaternions import QuatAlgebra
from quatwitt.serialize import serialize

H = QuatAlgebra(-1, -1)
K = QuatAlgebra(-1, -3)
M2 = QuatAlgebra(1, 1)
M3 = QuatAlgebra(1, 3)
F5 = Fp(5)


def test_decide_invariants_of_different_r_exits_2(capsys):
    code = main(["decide", '{"r": 1, "coeffs": [{}, {}, {}]}',
                 '{"r": 2, "coeffs": [{}, {}, {}, {}, {}]}'])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: invariants of different shape")


@pytest.mark.parametrize("call, error, message", [
    (lambda: LambdaInvariant(0, (mixed_zero(H),)), RankMismatch,
     "r must be at least 1"),
    (lambda: LambdaInvariant(1, (mixed_zero(H),) * 2), LengthMismatch,
     "expected 3 coefficients, got 2"),
    (lambda: LambdaInvariant(1, (mixed_zero(H), mixed_zero(K),
                                 mixed_zero(H))), RankMismatch,
     "coefficients over different algebras"),
    (lambda: eval_invariant(LambdaInvariant(1, (mixed_zero(H),) * 3),
                            herm_diag([H.i(), H.j()], H)), RankMismatch,
     "form has rank 2, invariant expects 1"),
    (lambda: chi(1, [mixed_zero(H)] * 2), LengthMismatch,
     "expected 3 coefficients"),
    (lambda: lambda_basis_invariant(1, -1, H), DegreeTooLarge,
     r"lambda\^-1 of a rank-1 form"),
    (lambda: lambda_basis_invariant(1, 3, H), DegreeTooLarge,
     r"lambda\^3 of a rank-1 form"),
    # the rank is checked before the degree
    pytest.param(lambda: lambda_basis_invariant(-1, 0, H), RankMismatch,
                 "r must be at least 1", id="lambda-basis-rank--1-degree-0"),
    pytest.param(lambda: lambda_basis_invariant(0, 1, H), RankMismatch,
                 "r must be at least 1", id="lambda-basis-rank-0-degree-1"),
    # lambda^2 is not constant, which 5 samples show
    (lambda: versal_sample_check(lambda_basis_invariant(1, 2, H),
                                 mixed_one(H), n_samples=0), SchemaViolation,
     "n_samples: must be at least 1: 0"),
    (lambda: versal_sample_check(lambda_basis_invariant(1, 2, H),
                                 mixed_one(H), n_samples=-3), SchemaViolation,
     "n_samples: must be at least 1: -3"),
])
def test_invariant_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: qf([1]).perp(qf([1], F5)),
     "orthogonal sum over different fields"),
    (lambda: qf([1]).tensor(qf([1], F5)), "tensor over different fields"),
    (lambda: witt_equal(qf([1]), qf([1], F5)),
     "Witt comparison across fields"),
    (lambda: GroupRingElem(witt_class(qf([1])), witt_class(qf([1], F5))),
     "group ring components over different fields"),
])
def test_operations_across_fields_are_refused(call, message):
    with pytest.raises(FieldMismatch, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: signature(qf([1, 2], F5)), "signature only defined over Q"),
    (lambda: is_isotropic(qf([1, 2], F5)),
     "isotropy decision implemented over Q"),
])
def test_questions_over_q_only_refuse_fp(call, message):
    with pytest.raises(UnsupportedField, match=message):
        call()


@pytest.mark.parametrize("gram, message", [
    ([[1, 0], [0]], "matrix is not square"),
    ([[1, 2], [3, 1]], "matrix is not symmetric"),
])
def test_diagonalize_refuses_a_non_symmetric_matrix(gram, message):
    with pytest.raises(NonSymmetricMatrix, match=message):
        diagonalize(gram)


@pytest.mark.parametrize("call, error, message", [
    (lambda: pfister([2, 0]), ZeroSlot, "Pfister slot must be nonzero"),
    (lambda: square_class(0), ZeroElement, "square class of 0"),
    (lambda: is_padic_square(0, 5), ZeroArgument, "0 has no square class"),
])
def test_zero_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: AntiHermForm((H.i(), K.j()), H),
     "entry from a different algebra"),
    (lambda: herm_diag([H.i()], H).perp(herm_diag([K.i()], K)),
     "orthogonal sum across algebras"),
    (lambda: morita_transfer(herm_diag([M2.i()], M2), M3.i() + M3.ij()),
     "transfer datum from a different algebra"),
    (lambda: twisted_trace_form(H.i(), K.i()),
     "twisted trace form across algebras"),
    (lambda: H.i() * K.j(), "operands from different algebras"),
    (lambda: H.i() + K.j(), "operands from different algebras"),
])
def test_operations_across_algebras_are_refused(call, message):
    with pytest.raises(AlgebraMismatch, match=message):
        call()


def test_morita_transfer_along_a_non_nilpotent_is_refused():
    # i^2 = 1 over (1, 1): pure, but not nilpotent
    with pytest.raises(NotNilpotent, match="not a nonzero nilpotent"):
        morita_transfer(herm_diag([M2.j()], M2), M2.i())


def test_kernel_generator_needs_ij_squared_a_non_square():
    # (ij)^2 = -ab = 1 over (1, -1)
    with pytest.raises(GenericBasisUnavailable, match="is a square"):
        kernel_generator(QuatAlgebra(1, -1))


def test_serialize_refuses_an_unsupported_object():
    with pytest.raises(TypeError, match="cannot serialize object"):
        serialize(object())


def test_witness_that_does_not_pair_to_zero_is_refused():
    """e_1 pairs with itself to i under <i, -i>: the exact check refuses
    it, however it came to be offered."""
    h = herm_diag([H.i(), -H.i()], H)
    zero = H.element(0, 0, 0, 0)

    def pair(x, y):
        acc = zero
        for xk, z, yk in zip(x, h.diag, y):
            acc = acc + xk.conj() * z * yk
        return acc

    with pytest.raises(VerificationFailed, match="failed exact verification"):
        hermitian._verify_witness(pair, [(H.one(), zero)])


# ---------------------------------------------------------------------------
# the echo rule of errors.quoted


@pytest.fixture
def default_digit_limit():
    """The default limit of 4300 digits on integer text, where it exists."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("value, text", [
    ("F²", "'F²'"),
    ("x" * 40, repr("x" * 40)),
    ("", "''"),
    (1000041000577, "1000041000577"),
    (-7, "-7"),
    (10 ** 40 - 1, "9" * 40),
    (True, "True"),
    (Fraction(-3, 7), "-3/7"),
    (Fraction(12), "12"),
    (1.5, "1.5"),
    (None, "None"),
    ([1, "x"], "[1, 'x']"),
    (H, "(-1,-1|Q)"),
    (H.pure(1, 0, Fraction(1, 2)), "Quat('0', '1', '0', '1/2')"),
], ids=repr)
def test_short_values_are_written_as_before(value, text):
    """str for ints and Fractions, as the messages' {x} wrote them; repr
    for strings and other objects, as {x!r} did."""
    assert quoted(value) == text
    assert text == (str(value) if isinstance(value, (int, Fraction))
                    else repr(value))


@pytest.mark.parametrize("value, text", [
    ("x" * 41, repr("x" * 40) + "... (41 characters)"),
    ("7" * 5000, repr("7" * 40) + "... (5000 characters)"),
    (-(10 ** 40 - 1), repr("-" + "9" * 39) + "... (41 characters)"),
    (Fraction(10 ** 39, 3), repr("1" + "0" * 39) + "... (42 characters)"),
    (list(range(20)), repr(repr(list(range(20)))[:40]) + "... (70 characters)"),
    (H.pure(10 ** 50, 0, 0), repr(repr(H.pure(10 ** 50, 0, 0))[:40])
     + "... (74 characters)"),
], ids=["str-41", "str-5000", "negative-40-digits", "fraction", "list",
        "quaternion"])
def test_long_values_are_cut_to_40_characters_and_their_length(value, text):
    assert quoted(value) == text


def test_integers_past_40_digits_are_named_by_their_size(default_digit_limit):
    assert quoted(10 ** 40) == "<133-bit integer>"
    assert quoted(10 ** 5000) == "<16610-bit integer>"
    assert quoted(-(10 ** 5000 - 1)) == "-<16610-bit integer>"
    # a fraction is cut as its text is, or named by its type past the limit
    assert quoted(Fraction(1, 7 ** 4000)) == (
        repr("1/" + str(7 ** 4000)[:38]) + "... (3383 characters)")


def test_quoting_never_raises_past_the_digit_limit(default_digit_limit):
    """A number, a coordinate or a parameter past the digit limit makes
    str and repr raise; the rule names the value's type instead."""
    assert quoted(Fraction(1, 7 ** 6000)) == "<Fraction past the digit limit>"
    big = QuatAlgebra(-(10 ** 5000), -1)
    assert quoted(big) == "<QuatAlgebra past the digit limit>"
    assert quoted(H.pure(10 ** 5000, 1, 0)) == (
        "<Quaternion past the digit limit>")
