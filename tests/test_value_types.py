"""The library's value types: pickling and copying keep equality, hash and
repr; equality holds only between objects of one type; the constructors
take the field names as keywords and keep their checks; and the records
without a repr of their own print as `Name(field=value, ...)`.

The benchmark harness pickles every result for a second interpreter to
check, so a type that does not survive pickling fails there first."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from quatwitt import polys as P
from quatwitt.errors import (
    AlgebraMismatch,
    EvenOrCompositeModulus,
    FieldMismatch,
    LengthMismatch,
    NotPureInvertible,
    RankMismatch,
    SchemaViolation,
    ZeroArgument,
)
from quatwitt.fields import QQ, FieldSpec, Fp
from quatwitt.funcfield import (
    ConicData,
    FFEntry,
    FunctionFieldForm,
    Place,
    conic_parametrize,
    ff_entry,
    ff_form,
)
from quatwitt.hermitian import (
    AntiHermForm,
    HyperbolicityResult,
    herm_diag,
    hyperbolicity_certificate,
)
from quatwitt.invariants import (
    ConstancyResult,
    LambdaInvariant,
    SampleCheck,
    lambda_basis_invariant,
)
from quatwitt.mixed import MixedClass, mixed, mixed_zero
from quatwitt.polys import RationalFunction
from quatwitt.quadforms import (
    GroupRingElem,
    QuadForm,
    WittClass,
    WittInvariants,
    qf,
    witt_class,
    witt_invariants,
)
from quatwitt.quaternions import QuatAlgebra, Quaternion
from quatwitt.record import Record
from quatwitt.suites import Report, RunConfig

A = QuatAlgebra(-1, -3)
B = QuatAlgebra(F(-2, 3), F(-5, 7))
HYPERBOLIC = hyperbolicity_certificate(herm_diag([A.i(), -A.i()], A))


def _samples():
    """One or two objects of every value type, built as the library builds
    them where it can."""
    return [
        QQ, Fp(7),
        qf([1, -2, 3]), qf([2, 3], Fp(5)),
        witt_invariants(qf([1, 2, 3])),
        witt_class(qf([1, 1, 3])),
        GroupRingElem(witt_class(qf([2])), witt_class(qf([1, -3]))),
        A, B,
        A.pure(1, 2, 0), B.element(F(1, 2), 0, 3, F(-1, 5)),
        herm_diag([A.i(), A.pure(0, 1, 1)], A),
        HYPERBOLIC,
        HyperbolicityResult("anisotropic-at-bound"),
        mixed(A, even=witt_class(qf([2])), odd_entries=(A.i(),)),
        lambda_basis_invariant(1, 1, A),
        ConstancyResult("constant", value=mixed_zero(A)),
        ConstancyResult("nonconstant", witness=2),
        SampleCheck("refuted", point=((1, 2, 3),)),
        Place("poly", pi=P.poly([F(1), F(0), F(1)])), Place("infinite"),
        ff_entry([1, 0, 1]),
        ff_form([F(2, 3), [0, 1], [-2, 0, 1]]),
        conic_parametrize(QuatAlgebra(2, 7)),
        conic_parametrize(QuatAlgebra(2, 7)).x_t,
        RunConfig(seed=3, search_bound=4),
        Report("morita", [{"id": "m1", "status": "pass"}]),
    ]


VALUE_TYPES = {FieldSpec, QuadForm, WittInvariants, WittClass, GroupRingElem,
               QuatAlgebra, Quaternion, AntiHermForm, HyperbolicityResult,
               MixedClass, LambdaInvariant, ConstancyResult, SampleCheck,
               Place, FFEntry, FunctionFieldForm, ConicData, RationalFunction,
               RunConfig, Report}
# records that a run mutates in place, or that hold a dict, have no hash
UNHASHABLE = {WittInvariants, RunConfig, Report}


def test_every_value_type_has_a_sample():
    assert {type(x) for x in _samples()} == VALUE_TYPES


def _fields(x):
    return tuple(getattr(x, name) for name in type(x).__slots__)


def _same_value(x, y):
    assert y == x and x == y and not y != x
    assert repr(y) == repr(x)
    if type(x) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(y)
    else:
        assert hash(y) == hash(x)


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_pickle_keeps_the_value(x, protocol):
    _same_value(x, pickle.loads(pickle.dumps(x, protocol)))


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_deepcopy_keeps_the_value(x):
    _same_value(x, copy.deepcopy(x))


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_equal_only_within_one_type(x):
    assert x != _fields(x) and _fields(x) != x
    assert x != object()


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_a_record_hashes_its_fields(x):
    """An equal record built apart hashes as the tuple of the fields does,
    or as the field itself when there is one.  Types with no hash or their
    own are skipped; `test_imports` names the only ones with their own."""
    if type(x) in UNHASHABLE or type(x).__hash__ is not Record.__hash__:
        return
    y = pickle.loads(pickle.dumps(x))
    assert y is not x and y == x
    fields = _fields(x)
    want = hash(fields) if len(fields) > 1 else hash(fields[0])
    assert hash(y) == hash(x) == want


def test_records_of_two_types_with_equal_fields_differ():
    assert HyperbolicityResult("s") != SampleCheck("s")
    assert SampleCheck("s") == SampleCheck("s")


def test_keyword_construction():
    report = Report(suite="morita")
    assert (report.suite, report.cases) == ("morita", [])
    assert Report(suite="morita", cases=[{"id": 1}]).cases == [{"id": 1}]
    assert RunConfig(search_bound=4) == RunConfig(0, 4)
    assert ConstancyResult("nonconstant", witness=3).witness == 3
    assert QuadForm(entries=(1, 2), field=QQ) == QuadForm((1, 2))
    assert Quaternion(num=(0, 1, 0, 0), den=1, algebra=A) == A.i()
    assert QuatAlgebra(a=-1, b=-3) == A
    assert FFEntry(unit=-1, factors=()) == ff_entry(-1)


def test_report_cases_are_a_fresh_list_per_report():
    first, second = Report("a"), Report("b")
    first.cases.append({"id": "a1", "status": "pass"})
    assert second.cases == []


def test_algebras_compare_by_their_parameters():
    assert QuatAlgebra(F(-2, 3), F(-5, 7)) == QuatAlgebra("-2/3", "-5/7")
    assert hash(QuatAlgebra(-2, -5)) == hash(QuatAlgebra(F(-4, 2), -5))
    # one table entry apart: a differs, D and b agree
    assert QuatAlgebra(-1, -3) != QuatAlgebra(-2, -3)
    assert QuatAlgebra(-1, -3) != QuatAlgebra(-3, -1)
    assert QuatAlgebra(F(1, 2), 1) != QuatAlgebra(1, F(1, 2))


def test_constructors_keep_their_checks():
    with pytest.raises(EvenOrCompositeModulus):
        FieldSpec(2)
    with pytest.raises(EvenOrCompositeModulus):
        FieldSpec(9)
    with pytest.raises(FieldMismatch):
        GroupRingElem(witt_class(qf([1])), witt_class(qf([1], Fp(5))))
    with pytest.raises(ZeroArgument):
        QuatAlgebra(0, -1)
    with pytest.raises(AlgebraMismatch):
        AntiHermForm((A.i(), B.i()), A)
    with pytest.raises(NotPureInvertible):
        AntiHermForm((A.one(),), A)
    with pytest.raises(RankMismatch):
        LambdaInvariant(0, (mixed_zero(A),))
    with pytest.raises(LengthMismatch):
        LambdaInvariant(1, (mixed_zero(A),) * 2)
    with pytest.raises(RankMismatch):
        LambdaInvariant(1, (mixed_zero(A), mixed_zero(B), mixed_zero(A)))
    with pytest.raises(ValueError):
        Place("finite")
    with pytest.raises(ValueError):
        Place("infinite", pi=P.poly([F(0), F(1)]))
    with pytest.raises(ValueError):
        Place("poly")
    with pytest.raises(SchemaViolation):
        RunConfig(search_bound=0)
    with pytest.raises(SchemaViolation):
        RunConfig(search_bound=17)


def test_records_print_field_by_field():
    assert repr(HyperbolicityResult(status="anisotropic-at-bound",
                                    witness=None)) \
        == "HyperbolicityResult(status='anisotropic-at-bound', witness=None)"
    assert repr(ConstancyResult("nonconstant", witness=2)) \
        == "ConstancyResult(status='nonconstant', value=None, witness=2)"
    assert repr(SampleCheck("refuted", point=((1, 2, 3),))) \
        == "SampleCheck(status='refuted', point=((1, 2, 3),))"
    assert repr(FFEntry(-1, ())) == "FFEntry(unit=-1, factors=())"
    assert repr(RunConfig()) == "RunConfig(seed=0, search_bound=8)"
    assert repr(Report("morita")) == "Report(suite='morita', cases=[])"
    assert repr(witt_invariants(qf([1, 1]))) == (
        "WittInvariants(dim=2, signed_disc=-1, hasse={-1: 1, 2: 1}, "
        "signature=2)")
    assert repr(GroupRingElem(witt_class(qf([2])), witt_class(qf([1, 1])))) \
        == "GroupRingElem(even=W<2>, odd=W<1,1>)"
