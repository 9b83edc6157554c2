"""Command-line interface: subcommands, flag placement, exit codes."""

import importlib
import json
import time

import pytest

from quatwitt import cli
from quatwitt.cli import main
from quatwitt.errors import SchemaViolation
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
    ["--quat", "0", "1"],
    ["--quat", "a", "1"],
])
def test_bad_global_flags_exit_2(capsys, flags):
    code, _, err = _run(capsys, flags + ["decide", '{"diag": [1]}',
                                         '{"diag": [1]}'])
    assert code == 2
    assert "error:" in err


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
    mixed_module = importlib.import_module("quatwitt.mixed")
    bounds = []
    certificate = mixed_module.hyperbolicity_certificate

    def spy(h, bound):
        bounds.append(bound)
        return certificate(h, bound=bound)

    monkeypatch.setattr(mixed_module, "hyperbolicity_certificate", spy)
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
