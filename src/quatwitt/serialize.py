"""JSON (de)serialization of forms, mixed classes and invariants.

Schemas:
  QuadForm            {"diag": ["1", "-2", ...]}
  AntiHermForm        {"herm_diag": [["0","1","0","0"], ...]}
  MixedClass          {"even": QuadForm, "odd": AntiHermForm}, either part
                      also as its bare list
  FunctionFieldForm   {"entries": [{"unit": "3", "factors":
                        [{"poly": ["0","1"], "exp": 1, "irreducible": true}]}]}
  LambdaInvariant     {"r": 1, "coeffs": [MixedClass, ...]}

A number is a JSON integer or an ASCII string holding an integer, n/d or a
decimal; JSON true and false are refused.  Integers are read as ints, and
everything else as the Fraction of its text, whose numerator and
denominator may have as many digits as an integer literal.

parse_input dispatches on the top-level key; SchemaViolation errors carry a
JSON-pointer to the offending spot.

A Q(t) factor flagged irreducible is checked once per process for each
spelling of its coefficients, in a bounded cache: the documents of one
`decide`, and later calls in the same process, share the check.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import polys as P
from .errors import (
    DigitLimitExceeded,
    FactorizationLimitExceeded,
    MissingFactorization,
    NotPureInvertible,
    SchemaViolation,
    ZeroElement,
    quoted,
)
from .fields import QQ, FieldSpec, square_class
from .funcfield import FunctionFieldForm, ff_class, ff_entry
from .hermitian import AntiHermForm
from .invariants import LambdaInvariant
from .mixed import MixedClass
from .quadforms import QuadForm, witt_class
from .quaternions import QuatAlgebra, Quaternion


_INTEGER = re.compile(r"[+-]?[0-9]+")
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")


def parse_number(raw, ptr: str) -> int | Fraction:
    """The number raw stands for: an int for a JSON integer or a string of
    ASCII digits with an optional sign, else the Fraction of str(raw).  A
    string with a character past ASCII is refused, though Fraction reads
    other digits and spaces.  The command line reads its numbers here too."""
    try:
        return _number(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise _not_a_number(raw, ptr) from exc


def _number(raw) -> int | Fraction:
    """parse_number without the pointer: a refusal raises ValueError or
    ZeroDivisionError."""
    if type(raw) is int:  # JSON true is a bool
        return raw
    if type(raw) is str:
        if _INTEGER.fullmatch(raw):
            return int(raw)  # past the digit limit it raises ValueError
        if not raw.isascii():
            raise ValueError("not ASCII")
    return _fraction(str(raw))


def _not_a_number(raw, ptr: str) -> SchemaViolation:
    return SchemaViolation(f"not a rational number: {quoted(raw)}", ptr)


def _numbers(raws: list, ptr: str) -> list:
    """parse_number of each item of raws, the k-th at ptr/k; a pointer is
    built only for the item refused."""
    out = []
    for raw in raws:
        try:
            out.append(_number(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise _not_a_number(raw, f"{ptr}/{len(out)}") from exc
    return out


def _fraction(text: str) -> Fraction:
    """Fraction(text), with a numerator and a denominator of at most as many
    digits as int() reads: 4300 before Python 3.11, no bound when the limit
    is off.  Fraction builds 10**exp for any exponent, so one past twice the
    limit is refused first: with a nonzero mantissa, of at most twice the
    limit's digits, it leaves too many in the numerator or denominator."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    m = _EXPONENT.search(text)
    if limit and m and abs(int(m[1])) > 2 * limit:
        if Fraction(text[:m.start()]):
            raise ValueError(f"exponent {m[1]} is too large")
        text = text[:m.start()] + "e0"  # a zero mantissa: 0
    x = Fraction(text)
    n = max(abs(x.numerator), x.denominator)
    # 2**(3 limit) < 10**limit: the power is built only near the limit
    if limit and n.bit_length() > 3 * limit and n >= 10 ** limit:
        raise ValueError(f"more than {limit} digits")
    return x


def _nonzero_frac(raw, ptr: str) -> int | Fraction:
    x = parse_number(raw, ptr)
    if x == 0:
        raise SchemaViolation("entry must be nonzero", ptr)
    return x


def _entry_class(raw, field: FieldSpec, ptr: str):
    """Square class of one diagonal entry; over F_p an entry that p
    divides, above or below, is refused at its pointer."""
    try:
        return square_class(_nonzero_frac(raw, ptr), field)
    except ZeroElement as exc:
        raise SchemaViolation(str(exc), ptr) from exc


def parse_quadform(doc: dict | list, field: FieldSpec = QQ,
                   ptr: str = "") -> QuadForm:
    if isinstance(doc, dict):
        doc, ptr = doc.get("diag"), ptr + "/diag"
        if not isinstance(doc, list):
            raise SchemaViolation('expected {"diag": [...]}', ptr)
    return QuadForm(tuple(_entry_class(v, field, f"{ptr}/{i}")
                          for i, v in enumerate(doc)), field)


def parse_quaternion(coords, A: QuatAlgebra, ptr: str) -> Quaternion:
    if not isinstance(coords, list) or len(coords) != 4:
        raise SchemaViolation("quaternion needs 4 coordinates", ptr)
    return A.element(*_numbers(coords, ptr))


def parse_hermform(doc: dict | list, A: QuatAlgebra,
                   ptr: str = "") -> AntiHermForm:
    if isinstance(doc, dict):
        doc, ptr = doc.get("herm_diag"), ptr + "/herm_diag"
        if not isinstance(doc, list):
            raise SchemaViolation('expected {"herm_diag": [...]}', ptr)
    entries = [parse_quaternion(c, A, f"{ptr}/{i}") for i, c in enumerate(doc)]
    try:
        return AntiHermForm(tuple(entries), A)
    except NotPureInvertible as exc:
        raise SchemaViolation(str(exc), ptr) from exc


def _object(doc, ptr: str, what: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaViolation(f"{what} must be an object", ptr)
    return doc


def parse_mixed(doc: dict, A: QuatAlgebra, ptr: str = "") -> MixedClass:
    _object(doc, ptr, "mixed class")
    for part in ("even", "odd"):  # an absent part is empty
        if not isinstance(doc.get(part, []), (dict, list)):
            raise SchemaViolation(f"{part} part must be an object or list",
                                  f"{ptr}/{part}")
    even = witt_class(parse_quadform(doc.get("even", []), QQ, ptr + "/even"))
    odd = parse_hermform(doc.get("odd", []), A, ptr + "/odd")
    return MixedClass(even, odd)


_FACTORING_REFUSALS = (MissingFactorization, FactorizationLimitExceeded)


def parse_ffform(doc: dict, ptr: str = "") -> FunctionFieldForm:
    """A Q(t) form.  A factor flagged irreducible is parsed and checked once
    per process for each spelling of its coefficients, in the bounded cache
    of `_checked_factor`: a factor such as the conic's a + b t^2 repeats in
    every odd slot of a psi image, and in both documents of a `decide`.  A
    refused factor is never cached, so it is refused at its own pointer
    wherever it appears.  A factoring refusal is reported at its entry."""
    raw = _object(doc, ptr, "form").get("entries")
    if not isinstance(raw, list):
        raise SchemaViolation('expected {"entries": [...]}', ptr + "/entries")
    entries = []
    for i, e in enumerate(raw):
        eptr = f"{ptr}/entries/{i}"
        try:
            entries.append(_parse_ffentry(e, eptr))
        except _FACTORING_REFUSALS as exc:
            raise SchemaViolation(str(exc), eptr) from exc
    return FunctionFieldForm(tuple(entries))


class _Written:
    """The coefficients of a factor as a document writes them, with the
    factor's pointer: the argument of `_checked_factor`.  It is equal and
    hashed by the coefficients and their types alone, so "1", 1.0 and 1
    stay apart.  Only ints, strs and floats are keyed, which hash at any
    size; JSON true or a list is checked afresh, and never hashed.  A check
    runs with the pointer of the occurrence that missed the cache."""

    __slots__ = ("coeffs", "ptr", "key", "keyed")

    def __init__(self, coeffs: list, ptr: str):
        self.coeffs = coeffs
        self.ptr = ptr
        types = tuple(map(type, coeffs))
        self.key = (types, *coeffs)
        self.keyed = {int, str, float}.issuperset(types)

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)


def _factor_poly(coeffs: list, fptr: str) -> P.Poly:
    pol = P.poly(_numbers(coeffs, fptr + "/poly"))
    if P.degree(pol) < 1:
        raise SchemaViolation("factor must be non-constant", fptr + "/poly")
    return pol


# Cached by the rule in fields: over the 1,000 ops of a mixed-split stream
# (seeds 1 and 7) 148-153 hits of about 2 us replace checks of about 30 us,
# 1.3-1.7% of the stream, and the cache fills 26-29 entries
@lru_cache(maxsize=2**8)
def _checked_factor(written: _Written) -> P.Poly:
    """The polynomial of a factor flagged irreducible, once it is checked
    irreducible.  A refusal raises, and lru_cache keeps no exception."""
    pol = _factor_poly(written.coeffs, written.ptr)
    try:
        ok = P.is_irreducible(pol)
    except _FACTORING_REFUSALS as exc:
        raise SchemaViolation(str(exc), written.ptr + "/poly") from exc
    if not ok:
        raise SchemaViolation("factor is not irreducible",
                              written.ptr + "/poly")
    return pol


def _parse_ffentry(e, eptr: str):
    """One entry of a Q(t) form."""
    if isinstance(e, (str, int)):  # shorthand: constant entry
        return ff_entry(_nonzero_frac(e, eptr))
    if isinstance(e, list):  # shorthand: polynomial coefficients
        coeffs = _numbers(e, eptr)
        if not any(coeffs):
            raise SchemaViolation("entry must be nonzero", eptr)
        return ff_entry(coeffs)
    if not isinstance(e, dict):
        raise SchemaViolation("entry must be an object or list", eptr)
    unit = _nonzero_frac(e.get("unit", "1"), eptr + "/unit")
    raw_factors = e.get("factors", [])
    if not isinstance(raw_factors, list):
        raise SchemaViolation("factors must be a list", eptr + "/factors")
    factors = []
    for k, f in enumerate(raw_factors):
        fptr = f"{eptr}/factors/{k}"
        coeffs = _object(f, fptr, "factor").get("poly")
        if not isinstance(coeffs, list) or not coeffs:
            raise SchemaViolation("factor needs poly coefficients",
                                  fptr + "/poly")
        if not f.get("irreducible"):
            _factor_poly(coeffs, fptr)  # a malformed polynomial comes first
            raise SchemaViolation("factor lacks irreducibility flag",
                                  fptr + "/irreducible")
        written = _Written(coeffs, fptr)
        pol = (_checked_factor(written) if written.keyed
               else _checked_factor.__wrapped__(written))
        exp = f.get("exp", 1)
        if type(exp) is not int or exp < 1:  # JSON true is a bool
            raise SchemaViolation("exponent must be a positive integer",
                                  fptr + "/exp")
        factors.append((pol, exp))
    return ff_class(unit, factors)


# A decide of rank-r invariants sums 2^r = sum_i C(r, i) copies of the
# even coefficients x_{2i} of their difference and reads the sum's
# diagonal, peeling none of it: n_Q in each even degree against 0 takes
# 4 ms at r = 10, 11 ms at 12 and 38 ms at 14, the first call of a process
# (2 vCPUs).  The coefficients themselves are peeled as read.
MAX_INVARIANT_RANK = 10


def parse_invariant(doc: dict, A: QuatAlgebra, ptr: str = "") -> LambdaInvariant:
    r = _object(doc, ptr, "invariant").get("r")
    if type(r) is not int or r < 1:  # JSON true is a bool
        raise SchemaViolation("r must be a positive integer", ptr + "/r")
    if r > MAX_INVARIANT_RANK:
        raise SchemaViolation(
            f"r must be at most {MAX_INVARIANT_RANK}: {quoted(r)}", ptr + "/r")
    coeffs = doc.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != 2 * r + 1:
        raise SchemaViolation(f"need exactly {quoted(2 * r + 1)} coefficients",
                              ptr + "/coeffs")
    parsed = [parse_mixed(c, A, f"{ptr}/coeffs/{i}")
              for i, c in enumerate(coeffs)]
    return LambdaInvariant(r, tuple(parsed))


def parse_input(doc, algebra: QuatAlgebra | None = None,
                field: FieldSpec = QQ):
    """Dispatch on the document shape; strings are parsed as JSON first."""
    if isinstance(doc, str):
        # json.loads raises ValueError also past the integer digit limit,
        # and RecursionError on arrays or objects nested too deep
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            raise SchemaViolation(f"invalid JSON: {exc}", "") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation("top-level value must be an object", "")
    if "diag" in doc:
        return parse_quadform(doc, field)
    if "herm_diag" in doc:
        if algebra is None:
            raise SchemaViolation("hermitian input needs a quaternion algebra", "")
        return parse_hermform(doc, algebra)
    if "even" in doc or "odd" in doc:
        if algebra is None:
            raise SchemaViolation("mixed input needs a quaternion algebra", "")
        return parse_mixed(doc, algebra)
    if "entries" in doc:
        return parse_ffform(doc)
    if "r" in doc and "coeffs" in doc:
        if algebra is None:
            raise SchemaViolation("invariant input needs a quaternion algebra", "")
        return parse_invariant(doc, algebra)
    raise SchemaViolation("unrecognized document shape", "")


# ---------------------------------------------------------------------------
# serialization


def _text(x) -> str:
    """str(x) for a number of a result, refused as DigitLimitExceeded past
    the integer digit limit, where str raises ValueError."""
    try:
        return str(x)
    except ValueError:
        raise DigitLimitExceeded(f"cannot write {quoted(x)}: past the digit "
                                 "limit for integer text") from None


def serialize(obj) -> dict:
    if isinstance(obj, QuadForm):
        return {"diag": [_text(r) for r in obj.reps()]}
    if isinstance(obj, AntiHermForm):
        return {"herm_diag": [[_text(c) for c in z.coords] for z in obj.diag]}
    if isinstance(obj, MixedClass):
        return {"even": serialize(obj.even.anis), "odd": serialize(obj.odd)}
    if isinstance(obj, FunctionFieldForm):
        return {"entries": [
            {"unit": _text(e.unit),
             "factors": [{"poly": [_text(c) for c in f], "exp": 1,
                          "irreducible": True} for f in e.factors]}
            for e in obj.entries]}
    if isinstance(obj, LambdaInvariant):
        return {"r": obj.r, "coeffs": [serialize(c) for c in obj.coeffs]}
    raise TypeError(f"cannot serialize {type(obj).__name__}")
