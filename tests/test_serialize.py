"""JSON parsing and serialization round trips."""

import json
from fractions import Fraction

import pytest

from quatwitt.errors import SchemaViolation
from quatwitt.funcfield import (
    FunctionFieldForm,
    conic_parametrize,
    ff_form,
    psi_split,
)
from quatwitt.hermitian import AntiHermForm
from quatwitt.invariants import LambdaInvariant
from quatwitt.mixed import mixed
from quatwitt.quadforms import QuadForm, qf, witt_class
from quatwitt.quaternions import QuatAlgebra
from quatwitt.serialize import (
    _checked_factor,
    parse_ffform,
    parse_hermform,
    parse_input,
    parse_mixed,
    parse_quadform,
    serialize,
)

H = QuatAlgebra(-1, -1)


def test_quadform_roundtrip():
    q = qf([1, -2, 15])
    doc = serialize(q)
    assert doc == {"diag": ["1", "-2", "15"]}
    q2 = parse_quadform(doc)
    assert q2.reps() == q.reps()


def test_quadform_rejects_zero_entry():
    with pytest.raises(SchemaViolation) as exc:
        parse_quadform({"diag": [1, 0]})
    assert "/diag" in exc.value.pointer


def test_hermform_roundtrip():
    h = AntiHermForm((H.i(), H.i() + H.j()), H)
    doc = serialize(h)
    h2 = parse_input(doc, algebra=H)
    assert isinstance(h2, AntiHermForm)
    assert h2.diag == h.diag


def test_mixed_roundtrip_and_shorthand():
    x = mixed(H, even=witt_class(qf([2, 3])), odd_entries=(H.ij(),))
    doc = serialize(x)
    y = parse_input(doc, algebra=H)
    assert y.even == x.even and y.odd.diag == x.odd.diag
    # list shorthands for both parts
    z = parse_mixed({"even": [2, 3], "odd": [["0", "0", "0", "1"]]}, H)
    assert z.even == x.even and z.odd.diag == x.odd.diag


def test_readers_take_the_bare_list_at_its_pointer():
    assert parse_quadform([2, 3]).reps() == parse_quadform(
        {"diag": [2, 3]}).reps()
    assert parse_hermform([["0", "0", "0", "1"]], H).diag == (H.ij(),)
    with pytest.raises(SchemaViolation) as exc:
        parse_quadform([1, "x"], ptr="/even")
    assert exc.value.pointer == "/even/1"
    with pytest.raises(SchemaViolation) as exc:
        parse_hermform([["1", "1", "0", "0"]], H, "/odd")
    assert exc.value.pointer == "/odd"


def test_mixed_shorthand_rejects_garbage():
    with pytest.raises(SchemaViolation) as exc:
        parse_mixed({"even": "nope"}, H)
    assert exc.value.pointer == "/even"
    with pytest.raises(SchemaViolation) as exc:
        parse_mixed({"odd": 7}, H)
    assert exc.value.pointer == "/odd"


def test_ffform_roundtrip_and_shorthands():
    q = ff_form([[0, 1], 3])        # <t, 3>
    doc = serialize(q)
    q2 = parse_ffform(doc)
    assert q2.entries == q.entries
    # scalar and coefficient-list shorthands
    q3 = parse_ffform({"entries": ["3", [0, 1]]})
    assert set(q3.entries) == set(q.entries)


def test_ffform_parse_reduces_to_square_classes():
    t = {"poly": ["0", "1"], "exp": 1, "irreducible": True}
    q = parse_ffform({"entries": [
        {"unit": "1/2"},
        {"unit": "1", "factors": [t, t]},
        {"unit": "3", "factors": [{"poly": ["0", "2"], "exp": 3,
                                   "irreducible": True}]},
    ]})
    assert q.entries == ff_form([2, 1, [0, 6]]).entries
    # the unit is a squarefree integer, so products keep it nonzero
    assert q.tensor(ff_form([3])).entries[0].unit == 6


def test_ffform_factor_validation():
    base = {"poly": ["0", "1"], "exp": 1}
    with pytest.raises(SchemaViolation) as exc:
        parse_ffform({"entries": [{"unit": "1", "factors": [base]}]})
    assert exc.value.pointer.endswith("/irreducible")
    bad = {"poly": ["-1", "0", "1"], "exp": 1, "irreducible": True}
    with pytest.raises(SchemaViolation) as exc:
        parse_ffform({"entries": [{"unit": "1", "factors": [bad]}]})
    assert exc.value.pointer.endswith("/poly")
    with pytest.raises(SchemaViolation) as exc:
        parse_ffform({"entries": [{"unit": "0"}]})
    assert exc.value.pointer.endswith("/unit")


def _counted_checks(monkeypatch):
    """The polynomials P.is_irreducible is called on from now, with the
    process-wide cache of checked factors emptied first."""
    from quatwitt import polys as P

    seen = []
    real = P.is_irreducible

    def counted(pol):
        seen.append(pol)
        return real(pol)

    _checked_factor.cache_clear()
    monkeypatch.setattr(P, "is_irreducible", counted)
    return seen


def test_ffform_checks_each_distinct_factor_once(monkeypatch):
    from quatwitt import polys as P

    seen = _counted_checks(monkeypatch)
    d = {"poly": ["1", "0", "1"], "exp": 1, "irreducible": True}
    t = {"poly": ["0", "1"], "exp": 1, "irreducible": True}
    doc = {"entries": [{"unit": u, "factors": fs} for u, fs in
                       (("1", [d, t]), ("-2", [d, t]), ("3", [d]), ("5", []))]}
    assert parse_ffform(doc).entries == ff_form(
        [[0, 1, 0, 1], [0, -2, 0, -2], [3, 0, 3], 5]).entries
    assert sorted(seen) == sorted({tuple(P.poly(f["poly"])) for f in (d, t)})
    # once per process: a later document checks nothing again
    assert parse_ffform(doc) == parse_ffform(doc)
    assert len(seen) == 2
    # a reducible factor is never cached: it is checked again, and refused
    # at its first occurrence, in every document it appears in, also after
    # factors already checked
    bad = {"poly": ["-1", "0", "1"], "exp": 1, "irreducible": True}
    for factors, where in (([d, bad, bad], "/entries/0/factors/1/poly"),
                           ([d], "/entries/1/factors/0/poly"),
                           ([d], "/entries/1/factors/0/poly")):
        seen.clear()
        entries = [{"factors": factors}, {"factors": [bad] + factors}]
        with pytest.raises(SchemaViolation) as exc:
            parse_ffform({"entries": entries})
        assert str(exc.value) == f"factor is not irreducible (at {where})"
        assert seen == [P.poly(bad["poly"])]


@pytest.mark.parametrize("part", ["even", "odd"])
def test_mixed_part_of_the_wrong_shape_is_refused_at_its_pointer(part):
    for doc in ({part: 3}, {"even": [1], part: "x"}):
        with pytest.raises(SchemaViolation) as exc:
            parse_input(json.dumps(doc), algebra=H)
        assert str(exc.value) == (f"{part} part must be an object or list "
                                  f"(at /{part})")
        assert exc.value.pointer == f"/{part}"


def _factor_entries(*polys):
    return {"entries": [{"factors": [{"poly": p, "irreducible": True}]}
                        for p in polys]}


def test_factor_written_as_true_is_refused_after_the_same_with_1():
    with pytest.raises(SchemaViolation) as exc:
        parse_input(json.dumps(_factor_entries([1, 0, 1], [True, 0, 1])))
    assert str(exc.value) == ("not a rational number: True "
                              "(at /entries/1/factors/0/poly/0)")


def test_factors_written_apart_are_each_read_and_checked_once(monkeypatch):
    seen = _counted_checks(monkeypatch)
    doc = _factor_entries([1.0, 0, 1], [1, 0, 1], [1.0, 0, 1], [1, 0, 1])
    assert parse_ffform(doc).entries == ff_form([[1, 0, 1]] * 4).entries
    assert seen == [(1, 0, 1), (1, 0, 1)]


def test_a_factor_checked_earlier_lets_no_other_spelling_through(
        monkeypatch):
    """[1, 1] checked in one document does not pass [true, 1] in a later
    one, and [1.0, 1] reads as the same factor."""
    seen = _counted_checks(monkeypatch)
    one = parse_input(json.dumps(_factor_entries([1, 1])))
    with pytest.raises(SchemaViolation) as exc:
        parse_input(json.dumps(_factor_entries([True, 1])))
    assert str(exc.value) == ("not a rational number: True "
                              "(at /entries/0/factors/0/poly/0)")
    assert parse_input(json.dumps(_factor_entries([1.0, 1]))) == one
    assert parse_input(json.dumps(_factor_entries([1, 1]))) == one
    assert seen == [(1, 1), (1, 1)]


def test_factor_past_the_digit_limit_is_read_and_checked_once(monkeypatch):
    """An int coefficient past the digit limit for integer text, which a
    library caller can pass (a JSON document cannot), is read and checked
    like any other, once per process; one inside a list coefficient is
    refused at its pointer."""
    seen = _counted_checks(monkeypatch)
    big = 10**5000
    doc = _factor_entries([big, 1])
    form = parse_ffform(doc)
    assert parse_ffform(doc) == form
    assert seen == [(big, 1)]
    with pytest.raises(SchemaViolation) as exc:
        parse_ffform(_factor_entries([[big], 1]))
    assert exc.value.pointer == "/entries/0/factors/0/poly/0"


def test_factor_with_a_list_coefficient_is_refused_at_its_pointer():
    for polys in ([[[1], 0, 1]], [[1, 0, 1], [[1], 0, 1]]):
        with pytest.raises(SchemaViolation) as exc:
            parse_ffform(_factor_entries(*polys))
        assert exc.value.pointer == f"/entries/{len(polys) - 1}/factors/0/poly/0"


def test_psi_image_checks_each_distinct_factor_once(monkeypatch):
    A = QuatAlgebra(1, 1)
    x = parse_mixed({"even": [1, -3],
                     "odd": [[0, 1, 2, 0], [0, 0, 3, 1], [0, 2, -1, 1]]}, A)
    img = psi_split(x, conic_parametrize(A))
    doc = serialize(img)
    written = [tuple(f["poly"]) for e in doc["entries"] for f in e["factors"]]
    assert len(written) > len(set(written)) > 1
    seen = _counted_checks(monkeypatch)
    assert parse_input(json.dumps(doc)) == img
    assert len(seen) == len(set(written))
    assert parse_input(json.dumps(doc)) == img
    assert len(seen) == len(set(written))


def test_invariant_roundtrip():
    one = parse_mixed({"even": [1]}, H)
    zero = parse_mixed({}, H)
    alpha = LambdaInvariant(1, (one, zero, one))
    doc = serialize(alpha)
    beta = parse_input(doc, algebra=H)
    assert isinstance(beta, LambdaInvariant)
    assert beta.r == 1 and len(beta.coeffs) == 3


def test_invariant_coeff_count():
    with pytest.raises(SchemaViolation) as exc:
        parse_input({"r": 2, "coeffs": [{}]}, algebra=H)
    assert exc.value.pointer == "/coeffs"


def test_serialize_refuses_a_type_it_does_not_write():
    with pytest.raises(TypeError, match="^cannot serialize Fraction$"):
        serialize(Fraction(1, 2))


def test_parse_input_dispatch_and_errors():
    assert isinstance(parse_input('{"diag": [1]}'), QuadForm)
    assert isinstance(parse_input({"entries": [1]}), FunctionFieldForm)
    with pytest.raises(SchemaViolation):
        parse_input("not json {{{")
    with pytest.raises(SchemaViolation):
        parse_input('["a list"]')
    with pytest.raises(SchemaViolation):
        parse_input({"mystery": 1})
    with pytest.raises(SchemaViolation):
        parse_input({"even": [1]})      # mixed needs an algebra
