"""Command-line interface: subcommands, flag placement, exit codes."""

import ast
import importlib
import inspect
import json
import sys
import textwrap
import time

import pytest

from quatwitt import cli, hermitian
from quatwitt.cli import main
from quatwitt.errors import SchemaViolation
from quatwitt.hermitian import MAX_SEARCH_BOUND
from quatwitt.invariants import invariant_equal
from quatwitt.mixed import mixed_equal
from quatwitt.quaternions import QuatAlgebra
from quatwitt.serialize import MAX_INVARIANT_RANK, _checked_factor, parse_input
from quatwitt.suites import RunConfig


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prod(capsys):
    code, out, _ = _run(capsys, [
        "--quat", "-1", "-1", "--output", "json",
        "prod",
        '{"even": [2, 3], "odd": [["0", "1", "0", "0"]]}',
        '{"odd": [["0", "0", "1", "0"]]}',
    ])
    assert code == 0
    doc = json.loads(out)
    # Trd(i j) = 0 kills the even part; odd part is <2j, 3j>
    assert doc["even"]["diag"] == []
    assert doc["odd"]["herm_diag"] == [["0", "0", "2", "0"],
                                       ["0", "0", "3", "0"]]


def test_lambda(capsys):
    code, out, _ = _run(capsys, [
        "--quat", "-1", "-1", "--output", "json",
        "lambda", "2", '{"herm_diag": [["0", "1", "0", "0"]]}',
    ])
    assert code == 0
    doc = json.loads(out)
    # lambda^2 <i> = <Nrd i> = <1>
    assert doc["even"]["diag"] == ["1"]
    assert doc["odd"]["herm_diag"] == []


def test_transfer_and_psi(capsys):
    code, out, _ = _run(capsys, [
        "--quat", "1", "1", "--output", "json",
        "transfer", '{"herm_diag": [["0", "0", "0", "1"]]}',
    ])
    assert code == 0
    diag = [int(v) for v in json.loads(out)["diag"]]
    assert sorted(diag) in ([-2, -2], [2, 2])

    code, out, _ = _run(capsys, [
        "--quat", "1", "1", "--output", "json",
        "psi", '{"odd": [["0", "0", "0", "1"]]}',
    ])
    assert code == 0
    doc = json.loads(out)
    assert [e["unit"] for e in doc["entries"]] == ["2", "2"]


def test_residue(capsys):
    code, out, _ = _run(capsys, [
        "--output", "json",
        "residue", '{"entries": [[0, 1], 1]}', "--place", "0,1",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["first"]["diag"] == ["1"]
    assert doc["second"]["diag"] == ["1"]


def test_decide(capsys):
    code, out, _ = _run(capsys, [
        "--output", "json",
        "decide", '{"diag": [1, -1, 5]}', '{"diag": [5]}',
    ])
    assert code == 0
    assert json.loads(out)["result"] == "equal"
    code, out, _ = _run(capsys, [
        "--output", "json",
        "decide", '{"diag": [1]}', '{"diag": [3]}',
    ])
    assert code == 0
    assert json.loads(out)["result"] == "distinct"


# the (-1, -7) pair of tests/test_mixed.py::
# test_mixed_equal_needs_the_full_bound_search, certified only at bound 8
UNKNOWN_AT_BOUND_4 = [
    "--quat", "-1", "-7", "--search-bound", "4", "decide",
    '{"odd": [["0", "-3", "2", "-3"], ["0", "1", "1", "-2"]]}',
    '{"odd": [["0", "-2", "3", "1"], ["0", "-2", "3", "-1"]]}',
]


@pytest.mark.parametrize("argv, verdict", [
    (["decide", '{"diag": [1, -1, 5]}', '{"diag": [5]}'], "equal"),
    (["decide", '{"diag": [1]}', '{"diag": [3]}'], "distinct"),
    (UNKNOWN_AT_BOUND_4, "unknown"),
])
def test_decide_prints_each_verdict_as_its_document(capsys, argv, verdict):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == json.dumps({"result": verdict}, indent=2,
                             sort_keys=True) + "\n"


def _returned(fn):
    """What fn's return statements give, one node for each branch of a
    conditional expression."""
    def branches(node):
        if isinstance(node, ast.IfExp):
            yield from branches(node.body)
            yield from branches(node.orelse)
        else:
            yield node
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return [b for node in ast.walk(tree) if isinstance(node, ast.Return)
            for b in branches(node.value)]


def test_decide_prints_every_verdict_its_deciders_return():
    """The verdict documents cover every string that mixed_equal,
    herm_verdict (through herm_screen) and invariant_equal return, and
    nothing else: a verdict missing from the table would end in a
    traceback.  Each returns a constant, the result of another of them,
    or (herm_verdict) the verdict herm_screen gave when it is not None."""
    deciders = (mixed_equal, hermitian.herm_verdict, hermitian.herm_screen,
                invariant_equal)
    verdicts = set()
    for f in deciders:
        for node in _returned(f):
            if isinstance(node, ast.Constant):
                verdicts.add(node.value)
            elif isinstance(node, ast.Call):
                assert node.func.id in {g.__name__ for g in deciders}
            else:
                assert (f, ast.unparse(node)) == (hermitian.herm_verdict,
                                                  "verdict")
    assert verdicts - {None} == set(cli._VERDICTS)


def test_decide_of_two_even_parts_peels_no_kernel(capsys, monkeypatch):
    """Ten entries against <1>: equality reads the two diagonals, and their
    dimensions differ in parity, so no kernel is peeled.  The peel of the
    ten entries, which nothing prints, took seconds."""
    from quatwitt import quadforms

    peels = []
    real = quadforms._anisotropic_reps_q_cached

    def counted(reps):
        peels.append(reps)
        return real(reps)

    monkeypatch.setattr(quadforms, "_anisotropic_reps_q_cached", counted)
    code, out, _ = _run(capsys, [
        "decide", '{"even": [47759, -5389, 6931, -9881, -57263, -55417, '
        '82079, -86881, 47759, -47759]}', '{"even": [1]}',
    ])
    assert code == 0
    assert json.loads(out)["result"] == "distinct"
    assert peels == []


def test_decide_invariants(capsys):
    one = '{"r": 1, "coeffs": [{"even": [1]}, {}, {}]}'
    lam1 = '{"r": 1, "coeffs": [{}, {"even": [1]}, {}]}'
    code, out, _ = _run(capsys, ["--output", "json", "decide", one, one])
    assert code == 0
    assert json.loads(out)["result"] == "equal"
    # the difference has the odd-dimensional coefficient <-1> in degree 1,
    # which is not in n_Q W(Q), so it is not a constant invariant
    code, out, _ = _run(capsys, ["--output", "json", "decide", one, lam1])
    assert code == 0
    assert json.loads(out)["result"] == "distinct"
    # over (-3, -10), <1, 1, 1, 1> lambda^1 is not constant (its
    # coefficient has signature 4 = 4 mod 8 and is 0 at the ramified prime
    # 5), and 3 n_Q lambda^1 is the constant 0
    zero = '{"r": 1, "coeffs": [{}, {}, {}]}'
    for coeff, result in (([1, 1, 1, 1], "distinct"),
                          ([1, 3, 10, 30] * 3, "equal")):
        lam1 = json.dumps({"r": 1, "coeffs": [{}, {"even": coeff}, {}]})
        code, out, _ = _run(capsys, ["--quat", "-3", "-10", "--output",
                                     "json", "decide", lam1, zero])
        assert code == 0
        assert json.loads(out)["result"] == result


def test_decide_odd_forms_with_entries_beyond_10_18(capsys):
    # <z, w> against <z, 5w> over (-3, -10), w = 4i - 3j + 3ij with
    # Nrd(w) = 408: the difference cancels to <w, -5w>, which is
    # hyperbolic iff gamma(p) w p = 5w for some p.  Then Nrd(p) = +-5, and
    # -5 is impossible in this definite algebra; p = s r with
    # r = w + 5w / 5 = 2w, so p lies in Q(w) = Q(sqrt(-102)) and 5 must be
    # a norm from it, but (5, -102)_5 = (3 / 5) = -1.  So "distinct"
    code, out, err = _run(capsys, [
        "--quat", "-3", "-10", "--output", "json", "decide",
        '{"odd": [[0, 3, -5, 5], [0, 4, -3, 3]]}',
        '{"odd": [[0, 3, -5, 5], [0, 20, -15, 15]]}',
    ])
    assert code == 0, err
    assert json.loads(out)["result"] == "distinct"


def test_decide_discriminant_screen_factors_each_norm_only(capsys):
    # over (-1, -1) the norms 1008^2 + 5 = 1016069 and 1009^2 + 10 =
    # 1018091 each factor by trial division, but their product
    # 1034450704279 leaves a cofactor past 10^12.  The forms differ only in
    # the order of their entries, so "equal"
    code, out, err = _run(capsys, [
        "--output", "json", "decide",
        '{"odd": [["0", "1008", "2", "1"], ["0", "1009", "3", "1"]]}',
        '{"odd": [["0", "1009", "3", "1"], ["0", "1008", "2", "1"]]}',
    ])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"


def test_decide_norm_form_factors_a_and_b_only(capsys):
    # 1000003 and 1000033 each factor by trial division, but their product
    # ab = 1000036000099 is a cofactor past 10^12; the norm form's entry ab
    # is built from the classes of a and b
    code, out, err = _run(capsys, [
        "--quat", "1000003", "1000033", "--output", "json", "decide",
        '{"odd": [["0", "1", "0", "0"]]}',
        '{"odd": [["0", "1", "0", "0"]]}',
    ])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"


def test_decide_class_against_itself_with_large_prime_coordinate(capsys):
    # over (1, 1), z = 1000003 i has z^2 = 1000003^2 past 10^12: the
    # transfer classifies T and z^2 apart, and factorize certifies the
    # square of a prime past 10^6
    z = '{"odd": [["0", "1000003", "0", "0"]]}'
    code, out, err = _run(capsys, [
        "--quat", "1", "1", "--output", "json", "decide", z, z])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"


def test_transfer_with_large_prime_coordinate(capsys):
    code, out, err = _run(capsys, [
        "--quat", "1", "1", "--output", "json", "transfer",
        '{"herm_diag": [["0", "1000003", "0", "0"]]}'])
    assert code == 0, err
    assert json.loads(out) == {"diag": ["2000006", "-2000006"]}


def test_decide_rank_one_multiple_classifies_a_and_b_apart(capsys):
    # <i> against <2i>: for c' = -2, i + 2i / c' = 0, and the isometry
    # test reads the diagonal <-a, -b, ab, -Nrd(i), -c'> of square classes
    # instead of factoring Nrd(2ij) = 4ab = 4 * 1000036000099
    code, out, err = _run(capsys, [
        "--quat", "1000003", "1000033", "--output", "json", "decide",
        '{"odd": [["0", "1", "0", "0"]]}',
        '{"odd": [["0", "2", "0", "0"]]}',
    ])
    assert code == 0, err
    assert json.loads(out)["result"] == "distinct"


@pytest.mark.parametrize("a, b", [("1000003", "-1000033"),
                                  ("-1000003", "1000033")])
def test_decide_factors_product_entries_after_their_factors(capsys, a, b):
    # the norm form <1, -a, -b, ab> sorts ab before a or b when a and b
    # have opposite signs; the primes are collected by absolute value
    z = '{"odd": [["0", "1", "0", "0"]]}'
    code, out, err = _run(capsys, [
        "--quat", a, b, "--output", "json", "decide", z, z])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"


def test_split_algebra_with_its_least_zero_at_height_68(capsys):
    # the least zero of the pure norm form of (33, 34) has height 68
    z = '{"odd": [["0", "1", "0", "0"]]}'
    code, out, err = _run(capsys, [
        "--quat", "33", "34", "--output", "json", "decide", z, z])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"
    code, out, err = _run(capsys, [
        "--quat", "33", "34", "--output", "json", "psi",
        '{"odd": [["0", "0", "0", "1"]]}'])
    assert code == 0, err
    assert len(json.loads(out)["entries"]) == 2


def test_split_algebra_without_a_zero_below_the_height_bound(capsys):
    # (1697, 162) is split, but no zero of its pure norm form has height
    # <= 100; <i> - <j> does not cancel in square-multiple pairs, so its
    # transfer needs one
    code, out, err = _run(capsys, [
        "--quat", "1697", "162", "decide", '{"odd": [["0", "1", "0", "0"]]}',
        '{"odd": [["0", "0", "1", "0"]]}'])
    assert code == 2
    assert out == ""
    assert "no zero of the pure norm form of height <= 100" in err


@pytest.mark.parametrize("quat", [["1697", "162"], ["1e4000", "-1"]],
                         ids=["no-small-zero", "huge-square"])
@pytest.mark.parametrize("shape", ["odd", "herm_diag"])
def test_split_difference_of_square_multiples_needs_no_nilpotent(
        capsys, monkeypatch, quat, shape):
    """<i> against itself over a split algebra cancels as <i, -i> before
    any transfer, so no nilpotent is searched: (1697, 162) has none of
    height <= 100, and over (10^4000, -1) the search ran 9 s before it
    refused."""
    def no_nilpotent(A):
        raise AssertionError("find_nilpotent called")

    for module in ("quaternions", "hermitian", "mixed", "cli"):
        monkeypatch.setattr(importlib.import_module(f"quatwitt.{module}"),
                            "find_nilpotent", no_nilpotent)
    z = '{"%s": [["0", "1", "0", "0"]]}' % shape
    code, out, err = _run(capsys, ["--quat", *quat, "decide", z, z])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"result": "equal"}


def test_decides_in_one_process_check_each_factor_once(capsys,
                                                     monkeypatch):
    """Two decides of the same psi images in one process: the first checks
    each distinct factor of its two documents once, the second none."""
    from quatwitt import polys as P

    quat = ["--quat", "2", "7", "--output", "json"]
    docs = []
    for x in ('{"even": [1, -3], "odd": [["0", "1", "2", "0"], '
              '["0", "0", "3", "1"]]}',
              '{"even": [5], "odd": [["0", "2", "-1", "1"]]}'):
        code, out, _ = _run(capsys, quat + ["psi", x])
        assert code == 0
        docs.append(out)
    distinct = {tuple(f["poly"]) for doc in docs
                for e in json.loads(doc)["entries"] for f in e["factors"]}
    seen = []
    real = P.is_irreducible

    def counted(pol):
        seen.append(pol)
        return real(pol)

    _checked_factor.cache_clear()
    monkeypatch.setattr(P, "is_irreducible", counted)
    for checks in (len(distinct), 0):
        seen.clear()
        code, out, err = _run(capsys, quat + ["decide", *docs])
        assert (code, err, json.loads(out)) == (0, "", {"result": "distinct"})
        assert len(seen) == checks == len(set(seen))


@pytest.mark.parametrize("argv, message, pointer", [
    (["lambda", "1", '{"diag": [1]}'],
     "lambda expects an anti-hermitian form", "/"),
    (["--quat", "1", "1", "transfer", '{"diag": [1]}'],
     "transfer expects an anti-hermitian form", "/"),
    (["residue", '{"diag": [1]}', "--place", "0,1"],
     "residue expects a Q(t) form", "/"),
    (["--quat", "1", "1", "psi", '{"diag": [1]}'],
     "psi expects a mixed class", "/"),
    (["decide", '{"diag": [1]}', '{"herm_diag": [["0", "1", "0", "0"]]}'],
     "decide expects two inputs of one shape", "/"),
    (["decide", '{"herm_diag": [["0", "1", "0"]]}', '{"diag": [1]}'],
     "quaternion needs 4 coordinates", "/herm_diag/0"),
    (["decide", '{"herm_diag": [["0", "x", "0", "0"]]}', '{"diag": [1]}'],
     "not a rational number", "/herm_diag/0/1"),
    (["decide", '{"herm_diag": [["1", "1", "0", "0"]]}', '{"diag": [1]}'],
     "not pure invertible", "/herm_diag"),
    (["decide", '{"diag": "x"}', '{"diag": [1]}'], "expected", "/diag"),
    (["residue", '{"entries": "x"}', "--place", "inf"],
     "expected", "/entries"),
    (["residue", '{"entries": [null]}', "--place", "inf"],
     "entry must be an object or list", "/entries/0"),
    (["residue", '{"entries": [[0, 0]]}', "--place", "inf"],
     "entry must be nonzero", "/entries/0"),
    (["residue", json.dumps({"entries": [{"factors": [
        {"poly": ["3"], "irreducible": True}]}]}), "--place", "inf"],
     "factor must be non-constant", "/entries/0/factors/0/poly"),
    (["residue", json.dumps({"entries": [{"factors": [
        {"poly": "t", "irreducible": True}]}]}), "--place", "inf"],
     "factor needs poly coefficients", "/entries/0/factors/0/poly"),
    (["residue", json.dumps({"entries": [{"factors": [
        {"poly": [[1], 1], "irreducible": True}]}]}), "--place", "inf"],
     "not a rational number", "/entries/0/factors/0/poly/0"),
    (["decide", '{"herm_diag": 5}', '{"diag": [1]}'], "expected",
     "/herm_diag"),
    (["decide", '{"even": [1, "x"]}', '{"even": [1]}'],
     "not a rational number", "/even/1"),
    (["decide", '{"odd": [["0", "x", "0", "0"]]}', '{"even": [1]}'],
     "not a rational number", "/odd/0/1"),
    (["decide", '{"odd": [["1", "1", "0", "0"]]}', '{"even": [1]}'],
     "not pure invertible", "/odd"),
    (["decide", '{"r": 1, "coeffs": [{"even": ["x"]}, {}, {}]}',
      '{"r": 1, "coeffs": [{}, {}, {}]}'], "not a rational number",
     "/coeffs/0/even/0"),
    (["decide", '{"even": {"diag": [1, "x"]}}', '{"even": [1]}'],
     "not a rational number", "/even/diag/1"),
    (["decide", '{"odd": {"herm_diag": [["1", "1", "0", "0"]]}}',
      '{"even": [1]}'], "not pure invertible", "/odd/herm_diag"),
    (["prod", '{"diag": [1]}', "not json"],
     "prod expects two mixed classes", "/"),
])
def test_malformed_input_exits_2_at_its_pointer(capsys, argv, message,
                                                pointer):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert message in err
    assert f"(at {pointer})" in err


def test_over_long_json_integer_exits_2(capsys):
    # json.loads refuses an integer literal past the interpreter's limit on
    # digits with a ValueError that is not a JSONDecodeError
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter sets no limit on integer digits")
    doc = '{"diag": [%s]}' % ("9" * (limit + 1))
    code, out, err = _run(capsys, ["decide", doc, '{"diag": [1]}'])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON: ")
    assert err.endswith("(at /)\n")


def test_deeply_nested_json_exits_2(capsys):
    """The JSON decoder raises RecursionError, not ValueError, on arrays
    nested past its depth limit; the document is refused as invalid JSON
    at the root, by parse_input and on the command line."""
    depth = 100_000
    doc = '{"diag": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(SchemaViolation, match="invalid JSON") as exc:
        parse_input(doc)
    assert exc.value.pointer == ""
    code, out, err = _run(capsys, ["decide", doc, '{"diag": [1]}'])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON: ")
    assert err.endswith("(at /)\n")


def test_decimal_exponent_past_the_digit_limit_exits_2(capsys):
    """Fraction builds 10**exp for any exponent, and square_class then
    divides out each 2 and 5; a numerator or denominator with more digits
    than an integer literal may have is refused before that, in a document
    and at --quat alike.  Just under the limit the number is read."""
    # Python 3.10 has no limit; the parser then uses 3.11's default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if not limit:
        pytest.skip("this interpreter sets no limit on integer digits")
    for number in (f"1e{limit}", f"-3e-{limit}", f"1e{10 * limit}"):
        code, out, err = _run(capsys, ["decide", '{"diag": ["%s"]}' % number,
                                       '{"diag": [1]}'])
        assert code == 2
        assert out == ""
        assert f"not a rational number: '{number}' (at /diag/0)" in err
    code, out, err = _run(capsys, ["--quat", f"1e{10 * limit}", "-1",
                                   "decide", '{"diag": [1]}', '{"diag": [1]}'])
    assert code == 2
    assert err.startswith("error: --quat: not a rational number: '1e")
    # 10**(limit - 1) has limit digits and the square class of 10**(its
    # exponent mod 2)
    code, out, err = _run(capsys, ["--output", "json", "decide",
                                   '{"diag": ["1e%d"]}' % (limit - 1),
                                   '{"diag": [%d]}' % 10 ** ((limit - 1) % 2)])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"
    # a zero mantissa is 0 whatever its exponent
    code, out, err = _run(capsys, [
        "--output", "json", "decide",
        '{"herm_diag": [["0e%d", "1", "0", "0"]]}' % (10 * limit),
        '{"herm_diag": [["0", "1", "0", "0"]]}'])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"


@pytest.mark.parametrize("doc", [
    {"herm_diag": [["0", "1", "0", "0"]]},
    {"odd": [["0", "1", "0", "0"]]},
    {"even": [1]},
    {"r": 1, "coeffs": [{}, {}, {}]},
])
def test_parse_input_without_an_algebra_refuses(doc):
    with pytest.raises(SchemaViolation, match="needs a quaternion algebra"):
        parse_input(doc)


def _ff_doc(coeffs):
    return json.dumps({"entries": [{"unit": "1", "factors": [
        {"poly": coeffs, "exp": 1, "irreducible": True}]}]})


def _ff_entry_doc(unit, *factors):
    return json.dumps({"entries": [{"unit": unit, "factors": [
        {"poly": f, "exp": 1, "irreducible": True} for f in factors]}]})


@pytest.mark.parametrize("lhs, rhs", [
    # the factor t listed twice is t^2, a square
    (_ff_entry_doc("1", ["0", "1"], ["0", "1"]), '{"entries": ["1"]}'),
    # the factor's leading coefficient 2 stays in the entry: 2t both sides
    (_ff_entry_doc("1", ["0", "2"]), '{"entries": [[0, 2]]}'),
    # a non-integral unit is its square class: 1/2 ~ 2
    (_ff_entry_doc("1/2"), '{"entries": ["2"]}'),
], ids=["repeated-factor", "factor-leading-coefficient", "rational-unit"])
def test_decide_reads_entries_up_to_squares(capsys, lhs, rhs):
    code, out, _ = _run(capsys, ["--output", "json", "decide", lhs, rhs])
    assert code == 0
    assert json.loads(out)["result"] == "equal"


def test_decide_refuses_uncancelled_degree2_residue(capsys):
    # pi<1, 1> and pi<2, 2>, pi = t^2 + 3: <1, 1> = <2, 2> over Q, but the
    # residues at pi do not cancel in pairs over Q(sqrt -3)
    code, out, err = _run(capsys, [
        "decide", '{"entries": [[3, 0, 1], [3, 0, 1]]}',
        '{"entries": [[6, 0, 2], [6, 0, 2]]}',
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_decide_cancels_a_degree3_factor_before_its_residue(capsys):
    # <t^3 - 2> against itself: the difference <t^3 - 2, -(t^3 - 2)> is one
    # pair <e, -e>, hyperbolic, so it is "equal" although Q[t]/(t^3 - 2)
    # is a residue field of degree 3
    cubic = '{"entries": [[-2, 0, 0, 1]]}'
    code, out, err = _run(capsys, ["--output", "json", "decide", cubic, cubic])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"
    # <t^3 - 2> against <2(t^3 - 2)>: units 1 and 2, nothing cancels, and
    # the second residue at t^3 - 2 is still refused
    code, out, err = _run(capsys, [
        "decide", cubic, '{"entries": [[-4, 0, 0, 2]]}'])
    assert code == 2
    assert out == ""
    assert err == "error: only degree <= 2 residue fields\n"


def test_decide_certificate_with_large_algebra_denominator(capsys):
    # (-1/5000, -1): the certificate's contents pass 5000^5 > 10^18, which
    # the pair search compares without factorizing.  A negative fraction
    # is a value, not an option, before and after the subcommand.
    odd = ['{"odd": [["0", "1", "0", "0"]]}', '{"odd": [["0", "4", "0", "0"]]}']
    outs = set()
    for a in ("-0.0002", "-1/5000"):
        for argv in (["--quat", a, "-1", "--output", "json", "decide", *odd],
                     ["decide", *odd, "--quat", a, "-1"]):
            code, out, err = _run(capsys, argv)
            assert code == 0, err
            outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["result"] == "equal"


def test_residue_quartic_and_quintic_factors(capsys):
    # t^4 + 2 is irreducible (Eisenstein at 2): decided, not refused
    code, out, _ = _run(capsys, [
        "--output", "json", "residue", _ff_doc(["2", "0", "0", "0", "1"]),
        "--place", "inf",
    ])
    assert code == 0
    assert set(json.loads(out)) == {"first", "second"}
    # t^4 + 4 = (t^2 + 2t + 2)(t^2 - 2t + 2) is flagged irreducible wrongly
    code, _, err = _run(capsys, [
        "residue", _ff_doc(["4", "0", "0", "0", "1"]), "--place", "inf",
    ])
    assert code == 2
    assert "/entries/0/factors/0/poly" in err
    # t^5 + t + 3 has no rational root: beyond the factorizer's reach
    code, _, err = _run(capsys, [
        "residue", _ff_doc(["3", "1", "0", "0", "0", "1"]), "--place", "inf",
    ])
    assert code == 2
    assert err.startswith("error:")
    assert "/entries/0/factors/0/poly" in err


QUINTIC = '{"entries": [[-1, -1, 0, 0, 0, 1]]}'  # t^5 - t - 1


@pytest.mark.parametrize("argv, want", [
    (["decide", QUINTIC, QUINTIC],
     "error: cannot certify irreducibility beyond degree 4 (at /entries/0)"),
    (["residue", QUINTIC, "--place", "inf"],
     "error: cannot certify irreducibility beyond degree 4 (at /entries/0)"),
    (["residue", '{"entries": [1]}', "--place=-1,-1,0,0,0,1"],
     "error: --place: '-1,-1,0,0,0,1': cannot certify irreducibility"
     " beyond degree 4"),
])
def test_factorizer_refusal_through_every_route(capsys, argv, want):
    """A squarefree quintic with no rational root, as a form entry or as a
    place, is refused with one line and exit code 2."""
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", want + "\n")


@pytest.mark.parametrize("argv", [
    ["--field", "F5", "decide", '{"even": ["1"]}',
     '{"even": ["2", "3", "5"]}', "--quat", "1", "1"],
    ["--field", "Qt", "lambda", "1", '{"herm_diag": [["0", "1", "0", "0"]]}'],
    ["--field", "F3", "decide", '{"r": 1, "coeffs": [{}, {}, {}]}',
     '{"r": 1, "coeffs": [{}, {}, {}]}'],
    ["--field", "F7", "residue", '{"entries": [[0, 1], 1]}', "--place", "0,1"],
])
def test_ignored_field_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_field_accepted_where_read(capsys):
    code, _, _ = _run(capsys, ["--field", "Q", "residue",
                               '{"entries": [[0, 1], 1]}', "--place", "0,1"])
    assert code == 0
    # Q(t) forms are read by their shape, so Qt is no field name
    code, out, err = _run(capsys, ["--field", "Qt", "residue",
                                   '{"entries": [[0, 1], 1]}', "--place", "0,1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown field 'Qt'")
    code, out, _ = _run(capsys, ["--field", "F5", "--output", "json", "decide",
                                 '{"diag": [1]}', '{"diag": [4]}'])
    assert code == 0
    assert json.loads(out)["result"] == "equal"


def test_field_fp_reads_fractions_mod_p(capsys):
    # 7/3 = 7 * 3^-1 = 2 * 2 = 4 = 2^2 mod 5, a square: <7/3> = <1>.
    # Reading 7/3 as int(7/3) = 2, a non-residue mod 5, answered "distinct"
    code, out, err = _run(capsys, ["--field", "F5", "--output", "json",
                                   "decide", '{"diag": ["7/3"]}',
                                   '{"diag": [1]}'])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"
    # 1/3 = 3^-1 = 2 mod 5, a non-residue like 2 itself: <1/3> = <2>.
    # Truncating read it as int(1/3) = 0 and exited 2 on "square class of 0"
    code, out, err = _run(capsys, ["--field", "F5", "--output", "json",
                                   "decide", '{"diag": ["1/3"]}',
                                   '{"diag": [2]}'])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"


@pytest.mark.parametrize("entry, pointer", [
    ('"10"', "/diag/1"),    # 10 = 0 mod 5
    ('"2/5"', "/diag/1"),   # 5 has no inverse mod 5
    ('"5/3"', "/diag/1"),
])
def test_field_fp_entry_not_a_unit_mod_p_exits_2(capsys, entry, pointer):
    code, out, err = _run(capsys, ["--field", "F5", "decide",
                                   '{"diag": [1, %s]}' % entry,
                                   '{"diag": [1]}'])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"(at {pointer})" in err


@pytest.mark.parametrize("argv, pointer", [
    (["decide", '{"r": true, "coeffs": [{}, {}, {}]}',
      '{"r": 1, "coeffs": [{}, {}, {}]}'], "/r"),
    (["residue", json.dumps({"entries": [{"unit": "1", "factors": [
        {"poly": ["0", "1"], "exp": True, "irreducible": True}]}]}),
      "--place", "inf"], "/entries/0/factors/0/exp"),
])
def test_json_true_is_not_an_integer(capsys, argv, pointer):
    # JSON true is a bool, which Python counts as the int 1
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"(at {pointer})" in err


def _invariant(r, even):
    """The rank-r invariant with `even` as each even coefficient and 0 as
    each odd one."""
    return json.dumps({"r": r, "coeffs": [{"even": even} if d % 2 == 0
                                          else {} for d in range(2 * r + 1)]})


def test_invariant_rank_past_the_maximum_exits_2(capsys):
    # the constant value sums 2^r classes, so a rank past the maximum is
    # refused at /r before any coefficient is read
    r = MAX_INVARIANT_RANK + 1
    zero = json.dumps({"r": r, "coeffs": [{}] * (2 * r + 1)})
    start = time.perf_counter()
    code, out, err = _run(capsys, ["decide", zero, zero])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err.strip() == (f"error: r must be at most {MAX_INVARIANT_RANK}: "
                           f"{r} (at /r)")
    code, _, err = _run(capsys, ["decide", _invariant(1, []),
                                 _invariant(r, [])])
    assert code == 2
    assert "(at /r)" in err


def test_invariant_at_the_maximum_rank_decides(capsys):
    # over (-1, -1), n_Q = <1, 1, 1, 1> in every even degree is constant,
    # of value 2^r n_Q, of signature 2^(r + 2): not the zero invariant
    r = MAX_INVARIANT_RANK
    nq, zero = _invariant(r, [1, 1, 1, 1]), _invariant(r, [])
    for a, b, result in ((zero, zero, "equal"), (nq, nq, "equal"),
                         (nq, zero, "distinct")):
        code, out, _ = _run(capsys, ["--output", "json", "decide", a, b])
        assert code == 0
        assert json.loads(out)["result"] == result


@pytest.mark.parametrize("place", ["0", "5", "0,0", "-1/2"])
def test_constant_place_exits_2(capsys, place):
    code, out, err = _run(capsys, ["residue", '{"entries": [[0, 1], 1]}',
                                   "--place", place])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --place: must be a non-constant polynomial")


@pytest.mark.parametrize("place", ["0,0,1", "2,3,1"])
def test_reducible_place_exits_2(capsys, place):
    # t^2 and t^2 + 3t + 2 = (t + 1)(t + 2) are not places
    code, out, err = _run(capsys, ["residue", '{"entries": [[0, 1]]}',
                                   "--place", place])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --place: {place!r} is not irreducible")


def test_place_beyond_irreducibility_check_exits_2(capsys):
    # t^6 + t + 1 has no rational root and no repeated factor, and
    # factor_poly does not reach degree 6
    code, out, err = _run(capsys, ["residue", '{"entries": [[0, 1]]}',
                                   "--place", "1,1,0,0,0,0,1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --place: '1,1,0,0,0,0,1': cannot certify")


def test_place_past_the_factoring_bound_exits_2_at_once(capsys):
    # t^3 + 10^30 + 6: the rational-root test needs the divisors of
    # 10^30 + 6 = 2 * 7 * 3919 * c, and c > 10^25 has no prime factor
    # below 10^6, so it is not certified; trial division to the square
    # root of 10^30 + 6 never ended
    place = "1000000000000000000000000000006,0,0,1"
    start = time.perf_counter()
    code, out, err = _run(capsys, ["residue", '{"entries": [[1, 0, 1]]}',
                                   "--place", place])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --place: {place!r}: cofactor")


@pytest.mark.parametrize("entry", [
    ["3", "1", "0", "0", "0", "1"],              # t^5 + t + 3: degree 5
    ["1000000000000000000000000000006", "0", "0", "1"],
    "1000000000000000000000000000006",
])
def test_entry_factoring_refusal_keeps_its_pointer(capsys, entry):
    doc = json.dumps({"entries": [1, entry]})
    code, out, err = _run(capsys, ["residue", doc, "--place", "inf"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.rstrip().endswith("(at /entries/1)")


def test_degree_two_place_keeps_its_refusal(capsys):
    # t^2 + 1 is a place, with residue field Q(i)
    code, out, err = _run(capsys, ["residue", '{"entries": [[0, 1]]}',
                                   "--place", "1,0,1"])
    assert code == 2
    assert out == ""
    assert err.startswith(
        "error: group-ring residues only at residue field Q")


def test_errors_exit_2(capsys):
    code, _, err = _run(capsys, ["prod", '{"diag": [1]}', '{"diag": [1]}'])
    assert code == 2
    assert "error:" in err
    code, _, err = _run(capsys, ["decide", "not json", "{}"])
    assert code == 2
    code, _, err = _run(capsys, ["check", "no-such-suite"])
    assert code == 2
    # a list or string where an object or list is expected
    for argv, pointer in [
        (["decide", '{"r": 1, "coeffs": [[], [], []]}',
          '{"r": 1, "coeffs": [[], [], []]}'], "/coeffs/0"),
        (["residue", '{"entries": [{"unit": "1", "factors": ["x"]}]}',
          "--place", "inf"], "/entries/0/factors/0"),
        (["residue", '{"entries": [{"unit": "1", "factors": "x"}]}',
          "--place", "inf"], "/entries/0/factors"),
    ]:
        code, _, err = _run(capsys, argv)
        assert code == 2
        assert err.startswith("error:")
        assert f"(at {pointer})" in err


@pytest.mark.parametrize("flags", [
    ["--field", "F4"],
    ["--field", "Fx"],
    ["--field", "F²"],
    ["--field", "F³7"],
    ["--field", "F٣"],
    ["--field", "F" + "7" * 5000],
    ["--quat", "0", "1"],
    ["--quat", "a", "1"],
])
def test_bad_global_flags_exit_2(capsys, flags):
    code, _, err = _run(capsys, flags + ["decide", '{"diag": [1]}',
                                         '{"diag": [1]}'])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("field, message", [
    ("F²", "unknown field 'F²'"),
    ("F٣", "unknown field 'F٣'"),
    pytest.param("F" + "7" * 5000, "--field: not a rational number",
                 id="F-5000-digits"),
])
def test_field_modulus_is_ascii_digits_read_as_a_number(capsys, field,
                                                        message):
    code, out, err = _run(capsys, ["--field", field, "decide",
                                   '{"diag": [1]}', '{"diag": [1]}'])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)


def test_refused_numbers_are_quoted_in_bounded_size(capsys):
    """A refused value of at most 40 characters is quoted whole; a longer
    one by its first 40 characters and its length."""
    code, out, err = _run(capsys, ["--field", "F" + "7" * 5000, "decide",
                                   '{"diag": [1]}', '{"diag": [1]}'])
    assert (code, out) == (2, "")
    assert len(err.encode()) < 300
    assert err.startswith("error: --field: not a rational number: '"
                          + "7" * 40 + "'... (5000 characters)")
    for n, quoted in [(40, repr("x" * 40)),
                      (41, repr("x" * 40) + "... (41 characters)")]:
        code, _, err = _run(capsys, ["decide", '{"diag": ["%s"]}' % ("x" * n),
                                     '{"diag": [1]}'])
        assert code == 2
        assert err == f"error: not a rational number: {quoted} (at /diag/0)\n"


_SEVENS = "7" * 4000
_HERM_LONG = '{"herm_diag": [["0", "%s", "1", "0"]]}' % _SEVENS
_ONE = '{"herm_diag": [["0", "1", "0", "0"]]}'


def _primorial(lo, hi):
    """The product of the primes p with lo <= p < hi."""
    sieve = bytearray([1]) * hi
    out = 1
    for n in range(2, hi):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, hi, n)))
            if n >= lo:
                out *= n
    return out


@pytest.mark.parametrize("argv", [
    ["decide", '{"diag": ["%s"]}' % _SEVENS, '{"diag": [1]}'],
    ["lambda", "2", _HERM_LONG],
    ["check", "x" * 5000],
    ["residue", '{"entries": [1]}', "--place", "5" + ",0" * 3000],
    ["decide", '{"odd": [["1", "%s", "0", "0"]]}' % _SEVENS, '{"odd": []}'],
    ["--search-bound", _SEVENS, "decide", _ONE, _ONE],
    ["lambda", _SEVENS, _ONE],
    ["--quat", "-1e4000", "-1", "transfer", _ONE],
    ["--quat", "-1e4000", "-1", "psi", '{"even": [1]}'],
    ["--field", "F7", "decide", '{"diag": ["%s"]}' % _SEVENS, '{"diag": [1]}'],
    ["--field", "F7", "decide", '{"diag": ["1/%s"]}' % _SEVENS,
     '{"diag": [1]}'],
    # a class of 7,985 digits: the product of the primes below 18,500
    ["prod", '{"even": ["%d"]}' % _primorial(2, 9300),
     '{"even": ["%d"]}' % _primorial(9300, 18500)],
], ids=["decide-diag", "lambda-2", "check", "place",
        "odd-not-pure", "search-bound", "lambda-degree", "transfer", "psi",
        "Fp-integer", "Fp-fraction", "prod"])
def test_refused_long_values_exit_2_in_one_short_line(capsys, argv):
    """Every refusal quotes the value it refuses by the one rule of
    errors.quoted, so a value thousands of digits long, or a result past
    the integer digit limit, ends in a short line and exit 2."""
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, line", [
    (["--search-bound", _SEVENS, "decide", _ONE, _ONE],
     "error: --search-bound: must be at most 16: <13288-bit integer>"),
    (["--field", "F7", "decide", '{"diag": ["1/%s"]}' % _SEVENS,
      '{"diag": [1]}'],
     "error: " + repr("1/" + "7" * 38) + "... (4002 characters) has no "
     "value mod 7: 7 divides its denominator (at /diag/0)"),
    (["check", "x" * 5000],
     "error: unknown suite " + repr("x" * 40) + "... (5000 characters)"),
], ids=["search-bound", "Fp-fraction", "check"])
def test_long_values_are_cut_or_named_by_their_size(capsys, argv, line):
    code, _, err = _run(capsys, argv)
    assert (code, err) == (2, line + "\n")


_Z = '{"odd": [["0", "1000008", "1000033", "1"]]}'


def test_odd_part_against_itself_needs_no_factoring(capsys):
    """Nrd(1000008 i + 1000033 j + ij) over (-1, -1) is 2 * 1000041000577,
    whose cofactor trial division cannot certify; <z, -z> has the square
    discriminant Nrd(z)^2 and cancels as a square multiple."""
    code, out, err = _run(capsys, ["decide", _Z, _Z])
    assert (code, json.loads(out), err) == (0, {"result": "equal"}, "")


def test_odd_part_against_a_conjugate_is_refused_by_the_rank_one_test(
        capsys):
    """gamma(i) z i = 1000008 i - 1000033 j - ij has the norm of z, and
    the rank-1 test factors it."""
    code, out, err = _run(capsys, [
        "decide", _Z, '{"odd": [["0", "1000008", "-1000033", "-1"]]}'])
    assert (code, out) == (2, "")
    assert err == "error: cofactor 1000041000577 not certified\n"


@pytest.mark.parametrize("argv, message", [
    (["--quat", "٣", "-1", "decide", '{"diag": [1]}', '{"diag": [1]}'],
     "error: --quat: not a rational number: '٣'"),
    (["decide", '{"diag": ["٣"]}', '{"diag": [1]}'],
     "error: not a rational number: '٣' (at /diag/0)"),
], ids=["quat", "json"])
def test_numbers_take_ascii_characters_only(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(message)


_DIAG = '{"diag": [1]}'


@pytest.mark.parametrize("argv, line", [
    (["--quat", "٣", "-1", "decide", _DIAG, _DIAG],
     "error: --quat: not a rational number: '٣'"),
    (["--search-bound", "0", "decide", _DIAG, _DIAG],
     "error: --search-bound: must be at least 1: 0"),
    (["--field", "Fx", "decide", _DIAG, _DIAG], "error: unknown field 'Fx'"),
    (["residue", '{"entries": [[1]]}', "--place", "0,0,1"],
     "error: --place: '0,0,1' is not irreducible"),
    # a refused document keeps its pointer, "/" for the root
    (["decide", _DIAG, '{"herm_diag": [["0", "1", "0", "0"]]}'],
     "error: decide expects two inputs of one shape (at /)"),
], ids=["quat", "search-bound", "field", "place", "document-root"])
def test_refused_flags_carry_no_pointer(capsys, argv, line):
    """A flag is not in a document: its refusal names the flag and ends
    without a JSON pointer."""
    assert _run(capsys, argv) == (2, "", line + "\n")


def test_refused_library_arguments_carry_no_pointer():
    H = QuatAlgebra(-1, -1)
    h = hermitian.herm_diag([H.i(), H.i()], H)
    past = MAX_SEARCH_BOUND + 1
    for call, message in [
            (lambda: RunConfig(search_bound=0),
             "search_bound: must be at least 1: 0"),
            (lambda: hermitian.hyperbolicity_certificate(h, bound=past),
             f"bound: must be at most {MAX_SEARCH_BOUND}: {past}")]:
        with pytest.raises(SchemaViolation) as exc:
            call()
        assert (str(exc.value), exc.value.pointer) == (message, None)


@pytest.mark.parametrize("argv, name", [
    (["--search-bound", "٣", "decide", '{"odd": [["0", "1", "0", "0"]]}',
      '{"odd": [["0", "1", "0", "0"]]}'], "--search-bound"),
    (["--seed", "٣", "check", "morita"], "--seed"),
    (["lambda", "٢", '{"herm_diag": [["0", "1", "0", "0"]]}'], "degree"),
    (["lambda", "2.0", '{"herm_diag": [["0", "1", "0", "0"]]}'], "degree"),
], ids=["search-bound", "seed", "degree", "decimal-degree"])
def test_integer_flags_take_ascii_digits_only(capsys, argv, name):
    """Refused by argparse, which prints the usage and the message."""
    assert cli._read_plain(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: quatwitt")
    value = argv[argv.index(name) + 1] if name in argv else argv[1]
    assert err.endswith(
        f": error: argument {name}: not an integer: {value!r}\n")


def test_field_modulus_with_leading_zeros(capsys):
    argv = ["decide", '{"diag": [1, 2]}', '{"diag": [3, 6]}']
    _, out, _ = _run(capsys, ["--field", "F7"] + argv)
    assert _run(capsys, ["--field", "F0007"] + argv) == (0, out, "")


def test_global_flags_both_sides(capsys):
    doc = '{"odd": [["0", "0", "0", "1"]]}'
    _, before, _ = _run(capsys, ["--quat", "1", "1", "--output", "json",
                                 "psi", doc])
    _, after, _ = _run(capsys, ["psi", doc, "--quat", "1", "1",
                                "--output", "json"])
    assert before == after


def test_check_deterministic(capsys):
    argv = ["--output", "json", "check", "morita", "--seed", "3"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["totals"]["fail"] == 0
    assert all(c["status"] in ("pass", "unknown") for c in rep["cases"])


def test_check_text_output(capsys):
    code, out, _ = _run(capsys, ["check", "morita"])
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["decide", '{"odd": [["0", "1", "0", "0"]]}',
     '{"odd": [["0", "2", "0", "0"]]}'],
    ["check", "morita"],
])
def test_search_bound_below_one_exits_2(capsys, bound, argv):
    code, out, err = _run(capsys, ["--search-bound", bound] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --search-bound: must be at least 1")


def test_run_config_rejects_search_bound_below_one():
    with pytest.raises(SchemaViolation, match="search_bound"):
        RunConfig(search_bound=0)


@pytest.mark.parametrize("argv", [
    ["decide", '{"odd": [["0", "1", "0", "0"]]}',
     '{"odd": [["0", "2", "0", "0"]]}'],
    ["check", "morita"],
])
def test_search_bound_above_the_maximum_exits_2(capsys, monkeypatch, argv):
    """The bound is refused before any input is read or search runs."""
    def no_search(h, bound):
        raise AssertionError("a pair search ran")

    monkeypatch.setattr(hermitian, "_isotropic_pair_vector", no_search)
    bound = MAX_SEARCH_BOUND + 1
    code, out, err = _run(capsys, ["--search-bound", str(bound)] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith(
        f"error: --search-bound: must be at most {MAX_SEARCH_BOUND}: {bound}")
    with pytest.raises(SchemaViolation, match="search_bound: must be at most"):
        RunConfig(search_bound=bound)


def test_search_bound_at_the_maximum_is_accepted(capsys):
    """<i> and <2i> over (-1, -1) are isometric by the rank-1 test, so no
    certificate runs at the maximum bound."""
    assert RunConfig(search_bound=MAX_SEARCH_BOUND).search_bound == \
        MAX_SEARCH_BOUND
    code, out, err = _run(capsys, [
        "--search-bound", str(MAX_SEARCH_BOUND), "--output", "json",
        "decide", '{"odd": [["0", "1", "0", "0"]]}',
        '{"odd": [["0", "2", "0", "0"]]}'])
    assert code == 0, err
    assert json.loads(out)["result"] == "equal"


_PSI_DOC = '{"odd": [["0", "0", "0", "1"]]}'
_REUSE_SEQUENCE = [
    # flags before and after the subcommand
    (["--quat", "1", "1", "--search-bound", "3", "--output", "json",
      "psi", _PSI_DOC], 0),
    (["psi", _PSI_DOC, "--quat", "1", "1", "--search-bound", "3",
      "--output", "json"], 0),
    (["--output", "json", "check", "morita", "--search-bound", "0"], 2),
    # argparse rejects the output format after reading --quat
    (["--quat", "1", "1", "--output", "yaml", "psi", _PSI_DOC], 2),
    # no flags: the default (-1, -1) is a division algebra, so psi refuses,
    # and the default search bound and text output hold again
    (["psi", _PSI_DOC], 2),
    (["decide", '{"odd": [["0", "1", "0", "0"]]}',
      '{"odd": [["0", "4", "0", "0"]]}'], 0),
    (["--output", "json", "check", "morita"], 0),
    (["check", "morita"], 0),
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def _parsed(capsys, parser, argv):
    """What parser.parse_args makes of argv: the namespace's attributes,
    or the exit code and the message."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    reused = [_outcome(capsys, argv) for argv, _ in _REUSE_SEQUENCE]
    assert [code for code, _ in reused] == [c for _, c in _REUSE_SEQUENCE]
    assert reused[0][1] == reused[1][1]
    assert json.loads(reused[6][1])["suite"] == "morita"
    assert reused[7][1].startswith("suite morita:")
    # the same argv, each on a freshly built parser
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv, _ in _REUSE_SEQUENCE]
    assert reused == fresh
    # main leaves most of the sequence to no parser at all, so the parser
    # itself reads it too: one parser in turn, and a fresh one for each
    monkeypatch.undo()
    parser = cli._build_parser()
    assert [_parsed(capsys, parser, argv) for argv, _ in _REUSE_SEQUENCE] \
        == [_parsed(capsys, cli._build_parser.__wrapped__(), argv)
            for argv, _ in _REUSE_SEQUENCE]


_MIXED_DOC = '{"even": ["2", "3"], "odd": [["0", "1", "0", "0"]]}'
_HERM_DOC = '{"herm_diag": [["0", "0", "0", "1"]]}'
# shaped like the benchmark's calls, which add --output json last, with
# the other flags before and after each subcommand
_PLAIN = [
    ["--quat", "-1", "-3", "prod", _MIXED_DOC, _PSI_DOC, "--output", "json"],
    ["--quat", "-1", "-1", "lambda", "2", _HERM_DOC, "--output", "json"],
    ["transfer", _HERM_DOC, "--quat", "1", "1", "--output", "json"],
    ["--quat", "1", "1", "residue", '{"entries": [[0, 1], 1]}',
     "--place", "-1,1", "--output", "json"],
    ["--search-bound", "3", "decide", _MIXED_DOC, _MIXED_DOC,
     "--quat", "-1", "-3", "--output", "json"],
    ["decide", '{"entries": [[0, 1], 1]}', '{"entries": [1, [0, 1]]}',
     "--output", "json"],
    ["--quat", "1", "1", "psi", _PSI_DOC, "--output", "json"],
    ["--seed", "1", "check", "morita", "--search-bound", "3",
     "--output", "json"],
    ["--quat", "1", "1", "residue", '{"entries": [[0, 1], 1]}',
     "--place=-1,1", "--output=json"],
]


def test_plain_command_lines_build_no_parser(capsys, monkeypatch):
    def no_parser():
        raise AssertionError("argparse read a plain command line")

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    for argv in _PLAIN:
        assert main(argv) == 0, capsys.readouterr().err
        assert json.loads(capsys.readouterr().out)
    # main() reads sys.argv[1:]
    monkeypatch.setattr(sys, "argv", ["quatwitt", *_PLAIN[4]])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["result"] == "equal"


_DIAGS = ['{"diag": [1, 2]}', '{"diag": [3, 6]}']


@pytest.mark.parametrize("argv, same_as", [
    (["--out", "json", "check", "morita"],
     ["--output", "json", "check", "morita"]),
    (["--fie=F5", "decide", *_DIAGS], ["--field", "F5", "decide", *_DIAGS]),
], ids=["abbreviation", "equals-sign"])
def test_argparse_reads_what_the_plain_reading_leaves(capsys, argv,
                                                       same_as):
    assert cli._read_plain(argv) is None
    assert _run(capsys, argv) == _run(capsys, same_as)


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: quatwitt [-h]"),
    (["decide", "--help"], "usage: quatwitt decide [-h]"),
], ids=["help", "subcommand-help"])
def test_help_is_argparse_s(capsys, argv, usage):
    assert cli._read_plain(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith(usage)
    assert "--search-bound SEARCH_BOUND" in out


@pytest.mark.parametrize("rhs, result", [
    # (9/4) i = gamma(3/2) i (3/2)
    ('{"herm_diag": [["0", "9/4", "0", "0"]]}', "equal"),
    # odd rank against even rank
    ('{"herm_diag": [["0", "1", "0", "0"], ["0", "0", "1", "0"]]}',
     "distinct"),
])
def test_decide_anti_hermitian_forms(capsys, rhs, result):
    code, out, _ = _run(capsys, [
        "--quat", "-1", "-1", "--output", "json", "decide",
        '{"herm_diag": [["0", "1", "0", "0"]]}', rhs])
    assert code == 0
    assert json.loads(out)["result"] == result


def test_search_bound_reaches_invariant_decisions(capsys, monkeypatch):
    """Over (-1, -7) the degree-1 odd part <z1, z2, -w1, -w2> of the
    invariant is certified hyperbolic only at bound 8 (see
    tests/test_mixed.py::test_mixed_equal_needs_the_full_bound_search), so
    --search-bound 4 must reach the certificate and leave it unknown."""
    hermitian = importlib.import_module("quatwitt.hermitian")
    bounds = []
    certificate = hermitian.hyperbolicity_certificate

    def spy(h, bound):
        bounds.append(bound)
        return certificate(h, bound=bound)

    monkeypatch.setattr(hermitian, "hyperbolicity_certificate", spy)
    odd = [[0, -3, 2, -3], [0, 1, 1, -2], [0, 2, -3, -1], [0, 2, -3, 1]]
    lam1 = json.dumps({"r": 1, "coeffs": [{}, {"odd": odd}, {}]})
    zero = '{"r": 1, "coeffs": [{}, {}, {}]}'
    for flags, result, seen in ((["--search-bound", "4"], "unknown", {4}),
                                ([], "equal", {8})):
        bounds.clear()
        code, out, err = _run(capsys, ["--quat", "-1", "-7", "--output",
                                       "json"] + flags +
                              ["decide", lam1, zero])
        assert code == 0, err
        assert json.loads(out)["result"] == result
        assert set(bounds) == seen
