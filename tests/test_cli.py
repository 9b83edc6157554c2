"""Command-line interface: subcommands, flag placement, exit codes."""

import json

import pytest

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
    # the pairing probes in mixed_equal meet an entry above 10^18 whose
    # prime factors trial division finds; no probe and no certificate
    # settles the pair
    code, out, err = _run(capsys, [
        "--quat", "-3", "-10", "--output", "json", "decide",
        '{"odd": [[0, 3, -5, 5], [0, 4, -3, 3]]}',
        '{"odd": [[0, 3, -5, 5], [0, 20, -15, 15]]}',
    ])
    assert code == 0, err
    assert json.loads(out)["result"] == "unknown"


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
    for field in ("Q", "Qt"):
        code, _, _ = _run(capsys, ["--field", field, "residue",
                                   '{"entries": [[0, 1], 1]}', "--place", "0,1"])
        assert code == 0
    code, out, _ = _run(capsys, ["--field", "F5", "--output", "json", "decide",
                                 '{"diag": [1]}', '{"diag": [4]}'])
    assert code == 0
    assert json.loads(out)["result"] == "equal"


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
