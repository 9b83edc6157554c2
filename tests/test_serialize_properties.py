"""The number parser and the Q(t) parse of serialize against the code they
replaced, kept here as the reference (need hypothesis).

The reference number parser reads every value as Fraction(str(raw)); a
string with a character past ASCII, which Fraction may read, is refused
instead.  The
reference Q(t) parse re-parses every occurrence of a factor, checks each
distinct polynomial once per document through a set (or every occurrence
afresh), and pairs off the factors of odd exponent in a set of monic
polynomials.  Both must accept
the same inputs, give the same values, and refuse with the same message at
the same pointer."""

import json
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt import polys as P  # noqa: E402
from quatwitt.cli import _rational  # noqa: E402
from quatwitt.errors import (  # noqa: E402
    FactorizationLimitExceeded,
    MissingFactorization,
    SchemaViolation,
    quoted,
)
from quatwitt.fields import square_class  # noqa: E402
from quatwitt.funcfield import (  # noqa: E402
    FFEntry,
    FunctionFieldForm,
    ff_class,
)
from quatwitt.serialize import (  # noqa: E402
    _checked_factor,
    parse_ffform,
    parse_input,
    parse_number,
)

settings = hypothesis.settings(max_examples=300, deadline=None)


def _reference_frac(raw, ptr):
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaViolation(f"not a rational number: {quoted(raw)}",
                              ptr) from exc


def _outcome(parse, *args):
    """("ok", value) or ("refused", message, pointer)."""
    try:
        return "ok", parse(*args)
    except SchemaViolation as exc:
        return "refused", str(exc), exc.pointer


# ---------------------------------------------------------------------------
# numbers

# the limit json.loads and int() put on the digits of an integer literal
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300

space = st.sampled_from(["", " ", "\t", "\n", "　"])
sign = st.sampled_from(["", "+", "-"])
# ASCII digits, and digit runs with underscores and non-ASCII digits, which
# only the Fraction path reads
digits = st.one_of(
    st.text("0123456789", min_size=1, max_size=30),
    st.text("0123456789_٠٩०１", min_size=1, max_size=12))


@st.composite
def integer_texts(draw):
    return draw(space) + draw(sign) + draw(digits) + draw(space)


texts = st.one_of(
    integer_texts(),
    st.builds("{}/{}".format, integer_texts(), integer_texts()),
    # decimals and exponents; Fraction computes 10**exp, so exp stays small
    st.from_regex(r"[+-]?[0-9]*\.?[0-9]*([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.text(max_size=8),
    # around the digit limit, alone and under a fraction bar
    st.integers(LIMIT - 1, LIMIT + 1).map(lambda n: "7" * n),
    st.integers(LIMIT - 1, LIMIT + 1).map(lambda n: "1/" + "7" * n),
)

raws = st.one_of(
    st.integers(),
    st.integers(-10 ** 60, 10 ** 60),
    texts,
    st.floats(),
    st.sampled_from([3.5, 1e30, -0.0, True, False, None, [], {}, [1]]),
)


@settings
@hypothesis.given(raws)
def test_number_parser_matches_fraction_of_text(raw):
    got = _outcome(parse_number, raw, "/x")
    if type(raw) is str and not raw.isascii():
        want = SchemaViolation(f"not a rational number: {quoted(raw)}", "/x")
        assert got == ("refused", str(want), "/x")
        return
    assert got == _outcome(_reference_frac, raw, "/x")
    if got[0] == "ok":
        assert type(got[1]) in (int, Fraction)


@settings
@hypothesis.given(texts)
def test_flag_numbers_match_fraction_of_text(text):
    def reference(t, flag):
        try:
            return Fraction(t)
        except (ValueError, ZeroDivisionError):
            raise SchemaViolation(
                f"{flag}: not a rational number: {quoted(t)}") from None

    got = _outcome(_rational, text, "--quat")
    if not text.isascii():
        want = SchemaViolation(
            f"--quat: not a rational number: {quoted(text)}")
        assert got == ("refused", str(want), want.pointer)
        return
    assert got == _outcome(reference, text, "--quat")


# ---------------------------------------------------------------------------
# Q(t) documents

def _reference_ff_class(unit, factors):
    odd = set()
    for f, e in factors:
        if e % 2:
            unit *= P.leading(f)
            odd ^= {P.monic(f)}
    return FFEntry(square_class(unit), tuple(sorted(odd)))


_FACTORING_REFUSALS = (MissingFactorization, FactorizationLimitExceeded)


def _reference_nonzero(raw, ptr):
    x = _reference_frac(raw, ptr)
    if x == 0:
        raise SchemaViolation("entry must be nonzero", ptr)
    return x


def _reference_entry(e, eptr, irreducible):
    if isinstance(e, (str, int)):
        return _reference_ff_class(_reference_nonzero(e, eptr), ())
    unit = _reference_nonzero(e.get("unit", "1"), eptr + "/unit")
    factors = []
    for k, f in enumerate(e.get("factors", [])):
        fptr = f"{eptr}/factors/{k}"
        coeffs = f.get("poly")
        if not isinstance(coeffs, list) or not coeffs:
            raise SchemaViolation("factor needs poly coefficients",
                                  fptr + "/poly")
        pol = P.poly([_reference_frac(c, f"{fptr}/poly/{j}")
                      for j, c in enumerate(coeffs)])
        if P.degree(pol) < 1:
            raise SchemaViolation("factor must be non-constant",
                                  fptr + "/poly")
        if not f.get("irreducible"):
            raise SchemaViolation("factor lacks irreducibility flag",
                                  fptr + "/irreducible")
        if pol not in irreducible:
            try:
                ok = P.is_irreducible(pol)
            except _FACTORING_REFUSALS as exc:
                raise SchemaViolation(str(exc), fptr + "/poly") from exc
            if not ok:
                raise SchemaViolation("factor is not irreducible",
                                      fptr + "/poly")
            irreducible.add(pol)
        exp = f.get("exp", 1)
        if type(exp) is not int or exp < 1:
            raise SchemaViolation("exponent must be a positive integer",
                                  fptr + "/exp")
        factors.append((pol, exp))
    return _reference_ff_class(unit, factors)


def _reference_parse_ffform(doc):
    """The parse of a document of object and scalar entries."""
    irreducible = set()
    entries = []
    for i, e in enumerate(doc["entries"]):
        eptr = f"/entries/{i}"
        try:
            entries.append(_reference_entry(e, eptr, irreducible))
        except _FACTORING_REFUSALS as exc:
            raise SchemaViolation(str(exc), eptr) from exc
    return FunctionFieldForm(tuple(entries))


F = Fraction
# irreducible factors, monic or not
POOL = [(F(0), F(1)), (F(2), F(1)), (F(-1, 3), F(1)), (F(0), F(2)),
        (F(1), F(0), F(1)), (F(2), F(0), F(2)), (F(-2), F(0), F(1)),
        (F(1), F(1), F(1)), (F(3), F(0), F(-5, 2))]
# t^2 - 1 is reducible, 3 and 0 are constant
BAD = [(F(-1), F(0), F(1)), (F(3),), (F(0),)]


def _spellings(c):
    """The other ways a document can write the coefficient c."""
    out = [str(c), f"{c.numerator}/{c.denominator}", f" {c} "]
    if c.denominator == 1:
        out += [f"{c.numerator}.0", float(c)]
    if c.denominator in (2, 4):
        out += [float(c), str(float(c))]
    return out


def one_in(draw, n):
    return draw(st.integers(1, n)) == 1


@st.composite
def spelled(draw, c):
    """c as a document writes it: mostly one way, an int where it can be,
    so that occurrences of a factor repeat their spelling; now and then 1
    as JSON true, which (True,) == (1,) must not let through."""
    if c == 1 and one_in(draw, 8):
        return True
    if one_in(draw, 3):
        return draw(st.sampled_from(_spellings(c)))
    return c.numerator if c.denominator == 1 else str(c)


@st.composite
def factor_docs(draw, pol):
    doc = {"poly": [draw(spelled(c)) for c in pol]}
    if not one_in(draw, 10):
        doc["irreducible"] = True
    exp = draw(st.sampled_from([0, True, "1", []]) if one_in(draw, 20)
               else st.sampled_from([None, 1, 2, 3, 4]))
    if exp is not None:
        doc["exp"] = exp
    return doc


@st.composite
def entry_docs(draw, pols):
    """An entry whose factors come from pols, each occurrence spelled
    afresh."""
    unit = F(0) if one_in(draw, 30) else draw(st.sampled_from(
        [F(1), F(-1), F(2), F(-3, 4), F(6)]))
    if one_in(draw, 5):  # a scalar entry
        return draw(st.sampled_from([str(unit), unit.numerator]))
    entry = {"factors": draw(st.lists(
        st.sampled_from(pols).flatmap(factor_docs), max_size=4))}
    if unit != 1 or draw(st.booleans()):
        entry["unit"] = draw(spelled(unit))
    return entry


@st.composite
def ff_docs(draw):
    """A document over one to three polynomials, so that factors
    repeat."""
    pols = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3))
    if one_in(draw, 10):
        pols.append(draw(st.sampled_from(BAD)))
    return {"entries": draw(st.lists(entry_docs(pols), min_size=1,
                                     max_size=4))}


def _t(*poly, **extra):
    return {"poly": list(poly), "irreducible": True, **extra}


def _doc(*entries):
    return {"entries": [{"factors": factors} for factors in entries]}


@settings
@hypothesis.given(ff_docs())
# 1 checked first must not let a later true through; a repeat is still
# refused without its flag or with a bad exponent; one polynomial in many
# spellings; a non-monic factor repeated
@hypothesis.example(_doc([_t(0, 1)], [_t(0, True)]))
@hypothesis.example(_doc([_t(1, 0, 1), {"poly": [1, 0, 1]}]))
@hypothesis.example(_doc([_t(1, 0, 1), _t(1, 0, 1, exp=0)]))
@hypothesis.example(_doc([_t(1, 0, 1), _t("1", 0.0, "2/2"),
                          _t(" 1 ", "0/5", 1.0, exp=3)]))
@hypothesis.example(_doc([_t(2, 0, 2), _t("2", 0, "2.0")],
                         [_t(2, 0, 2, exp=3)]))
def test_ffform_parse_matches_reference(doc):
    want = _outcome(_reference_parse_ffform, doc)
    assert _outcome(parse_ffform, doc) == want
    assert _outcome(parse_input, json.dumps(doc)) == want


class _KeepsNothing(set):
    """A set of checked polynomials that keeps none."""

    def add(self, pol):
        pass


def _afresh_parse_ffform(doc):
    """The reference parse with every occurrence of a factor checked
    afresh."""
    entries = []
    for i, e in enumerate(doc["entries"]):
        eptr = f"/entries/{i}"
        try:
            entries.append(_reference_entry(e, eptr, _KeepsNothing()))
        except _FACTORING_REFUSALS as exc:
            raise SchemaViolation(str(exc), eptr) from exc
    return FunctionFieldForm(tuple(entries))


@st.composite
def ff_doc_pairs(draw):
    """Two documents over the same one to three polynomials, often with
    t^2 - 1 among them, which is reducible and mostly flagged irreducible."""
    pols = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3))
    if not one_in(draw, 3):
        pols.append(BAD[0])
    return [{"entries": draw(st.lists(entry_docs(pols), min_size=1,
                                      max_size=4))} for _ in range(2)]


@settings
@hypothesis.given(ff_doc_pairs())
# a factor checked in one document lets no other spelling through in the
# next; a refused factor is refused again
@hypothesis.example([_doc([_t(1, 0, 1)]), _doc([_t(True, 0, 1)])])
@hypothesis.example([_doc([_t(1, 0, 1)]), _doc([_t(1.0, 0, 1)], [_t(1, 0, 1)])])
@hypothesis.example([_doc([_t(-1, 0, 1)]), _doc([_t(1, 0, 1)], [_t(-1, 0, 1)])])
def test_ffform_parse_with_the_process_cache_matches_afresh_checks(docs):
    """The documents parsed one after the other, then in the other order,
    in one process from an empty cache of checked factors: each parse
    equals the reference that checks every factor afresh."""
    _checked_factor.cache_clear()
    for doc in docs + docs[::-1]:
        want = _outcome(_afresh_parse_ffform, doc)
        assert _outcome(parse_ffform, doc) == want
        assert _outcome(parse_input, json.dumps(doc)) == want


@settings
@hypothesis.given(st.lists(st.tuples(st.sampled_from(POOL),
                                     st.integers(1, 5)), max_size=6),
                  st.sampled_from([1, -1, 6, F(1, 2), F(-9, 10)]))
def test_ff_class_matches_reference(factors, unit):
    factors = [(P.poly(f), e) for f, e in factors]
    assert ff_class(unit, factors) == _reference_ff_class(unit, factors)
