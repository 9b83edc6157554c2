"""Every pinned command line, in one table.

Each row is one call of `quatwitt` at the frontier of what it decides: an
input it refuses, leaves "unknown", or once answered slowly.  A row holds
the argv, the exact exit code, stdout and stderr of the call, the ROADMAP
item whose landing would change the row (None for a refusal that stays),
why the row is pinned, and a time limit in seconds.  An item that lands
edits its rows, and a new verdict carries its proof in `why`.

Two tests run every row: in process through `cli.main`, so a traceback
fails the run, and in a fresh interpreter under the row's time limit,
with `-O` exactly when the test run has it.  Run as a script, the file
prints the number of rows for each ROADMAP item.
"""

import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quatwitt import cli

ROOT = Path(__file__).resolve().parent.parent

Row = collections.namedtuple(
    "Row", "id argv code out err item why timeout", defaults=(20,))

# the digit limit the parser reads, as serialize._fraction reads it
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()


def _rank20_form():
    """A rank-20 form over (-1, -1): coordinates -2..2 drawn by
    random.Random(1), all-zero draws skipped; a 479-byte document."""
    rng = random.Random(1)
    diag = []
    while len(diag) < 20:
        c = [rng.randint(-2, 2) for _ in range(3)]
        if any(c):
            diag.append(["0"] + [str(x) for x in c])
    return json.dumps({"herm_diag": diag})


def _verdict(v):
    return '{\n  "result": "%s"\n}\n' % v


EQUAL, DISTINCT, UNKNOWN = map(_verdict, ("equal", "distinct", "unknown"))
DIAG1 = '{"diag": [1]}'
I = '{"odd": [["0", "1", "0", "0"]]}'
TWO_I = '{"odd": [["0", "2", "0", "0"]]}'
HERM_I = '{"herm_diag": [["0", "1", "0", "0"]]}'
SEVENS = "7" * 4000
# z = 1000008 i + 1000033 j + ij over (-1, -1), of reduced norm
# 2 * 1000041000577, and gamma(i) z i
Z = '{"odd": [["0","1000008","1000033","1"]]}'
Z_CONJUGATE = '{"odd": [["0","1000008","-1000033","-1"]]}'
PLUS = ('{"entries": [{"factors": [{"poly": [1, 0, 1], '
        '"irreducible": true}]}]}')
MINUS = ('{"entries": [{"factors": [{"poly": [-1, 0, 1], '
         '"irreducible": true}]}]}')
QUINTIC = '{"entries": [[-1, -1, 0, 0, 0, 1]]}'
CUBIC = '{"entries": [[-2, 0, 0, 1]]}'
# argparse's usage lines at 80 columns, of the command line and of lambda
FLAGS = ("[-h] [--field FIELD] [--quat a b] [--seed SEED]\n%s"
         "[--search-bound SEARCH_BOUND] [--output {text,json}]\n")
USAGE = ("usage: quatwitt " + FLAGS % (" " * 16)
         + " " * 16 + "{prod,lambda,transfer,residue,decide,psi,check} ...\n")
LAMBDA_USAGE = ("usage: quatwitt lambda " + FLAGS % (" " * 23)
                + " " * 23 + "degree form\n")
# lambda^2 of the rank-20 form: 295 bytes
RANK20_LAMBDA2 = ('{\n  "even": {\n    "diag": [\n' + '      "1",\n' * 18
                  + '      "2",\n      "6"\n    ]\n  },\n'
                  '  "odd": {\n    "herm_diag": []\n  }\n}\n')
NOT_CERTIFIED = "error: cofactor %s not certified\n"
NOT_IRREDUCIBLE = ("error: factor is not irreducible "
                   "(at /entries/0/factors/0/poly)\n")

ROWS = [
    # -- numbers past the integer digit limit --
    Row("digits-json", ["decide", '{"diag": ["1e10000000"]}', DIAG1],
        2, "", "error: not a rational number: '1e10000000' (at /diag/0)\n",
        None,
        "a decimal exponent is refused past the integer digit limit, "
        "before 10**exp is built; read, the number would take days to "
        "factor"),
    Row("digits-quat", ["--quat", "1e10000000", "-1", "decide", DIAG1, DIAG1],
        2, "", "error: --quat: not a rational number: '1e10000000'\n",
        None, "the same refusal at --quat"),
    Row("digits-at-limit", ["decide", '{"diag": ["1e%d"]}' % LIMIT, DIAG1],
        2, "", "error: not a rational number: '1e%d' (at /diag/0)\n" % LIMIT,
        None, "10**limit has one digit more than an integer literal may have"),
    Row("digits-negative-exponent",
        ["decide", '{"diag": ["-3e-%d"]}' % LIMIT, DIAG1],
        2, "", "error: not a rational number: '-3e-%d' (at /diag/0)\n" % LIMIT,
        None, "so has the denominator of -3e-limit"),
    Row("digits-ten-times-limit",
        ["decide", '{"diag": ["1e%d"]}' % (10 * LIMIT), DIAG1],
        2, "",
        "error: not a rational number: '1e%d' (at /diag/0)\n" % (10 * LIMIT),
        None,
        "an exponent past twice the limit is refused before Fraction "
        "builds 10**exp"),
    Row("digits-ten-times-limit-quat",
        ["--quat", "1e%d" % (10 * LIMIT), "-1", "decide", DIAG1, DIAG1],
        2, "", "error: --quat: not a rational number: '1e%d'\n" % (10 * LIMIT),
        None, "the same refusal at --quat"),
    Row("digits-under-limit",
        ["--output", "json", "decide", '{"diag": ["1e%d"]}' % (LIMIT - 1),
         '{"diag": [%d]}' % 10 ** ((LIMIT - 1) % 2)],
        0, EQUAL, "", None,
        "10**(limit - 1) has limit digits and is read: its square class "
        "is that of 10**(its exponent mod 2)"),
    Row("digits-zero-mantissa",
        ["--output", "json", "decide",
         '{"herm_diag": [["0e%d", "1", "0", "0"]]}' % (10 * LIMIT), HERM_I],
        0, EQUAL, "", None, "a zero mantissa is 0 whatever its exponent"),
    Row("nested-json",
        ["decide", '{"diag": ' + "[" * 50000 + "]" * 50000 + "}", DIAG1],
        2, "",
        "error: invalid JSON: maximum recursion depth exceeded while "
        "decoding a JSON array from a unicode string (at /)\n",
        None,
        "50,000 nested arrays (about 100 KB, under the 128 KB limit on one "
        "argument) overflow the JSON decoder's recursion: invalid JSON at "
        "the root"),
    # -- the search bound and the integer flags --
    Row("search-bound-17", ["--search-bound", "17", "decide", I, TWO_I],
        2, "", "error: --search-bound: must be at most 16: 17\n", None,
        "past the maximum of 16 the pair search could exhaust memory"),
    Row("search-bound-0", ["--search-bound", "0", "decide", DIAG1, DIAG1],
        2, "", "error: --search-bound: must be at least 1: 0\n", None,
        "a bound below 1 is refused; a refused flag carries no pointer"),
    Row("search-bound-arabic-indic",
        ["--search-bound", "٣", "decide", I, TWO_I],
        2, "", USAGE + "quatwitt: error: argument --search-bound: "
        "not an integer: '٣'\n", None,
        "integer flags take ASCII digits only; argparse refuses the rest"),
    Row("lambda-degree-arabic-indic", ["lambda", "٢", HERM_I],
        2, "", LAMBDA_USAGE + "quatwitt lambda: error: argument degree: "
        "not an integer: '٢'\n", None, "so does the degree of lambda"),
    # -- --field --
    Row("field-prime-past-1e12",
        ["--field", "F1000000000039", "decide", DIAG1, DIAG1],
        0, EQUAL, "", None, "a prime past 10^12 is still certified"),
    Row("field-square-of-prime",
        ["--field", "F1000006000009", "decide", DIAG1, DIAG1],
        2, "", "error: not an odd prime: 1000006000009\n", None,
        "the square of 1000003 is refused as composite, not as out of "
        "range"),
    Row("field-superscript", ["--field", "F²", "decide", DIAG1, DIAG1],
        2, "", "error: unknown field 'F²'\n", None,
        "--field takes ASCII digits only, read as the JSON numbers are"),
    Row("field-5000-digits",
        ["--field", "F" + "7" * 5000, "decide", DIAG1, DIAG1],
        2, "", "error: --field: not a rational number: '%s'... "
        "(5000 characters)\n" % ("7" * 40), None,
        "a refused value is quoted by its first 40 characters and its "
        "length"),
    # -- documents and long values --
    Row("shorthand-pointer", ["decide", '{"even": [1, "x"]}', '{"even": [1]}'],
        2, "", "error: not a rational number: 'x' (at /even/1)\n", None,
        "a shorthand part is refused at its pointer as written"),
    Row("decide-long-diag", ["decide", '{"diag": ["%s"]}' % SEVENS, DIAG1],
        2, "", NOT_CERTIFIED % "<12872-bit integer>", None,
        "an integer past 40 digits is quoted by its bits, so a value "
        "thousands of digits long ends in a short line"),
    Row("lambda-long-coordinate",
        ["lambda", "2", '{"herm_diag": [["0", "%s", "1", "0"]]}' % SEVENS],
        2, "", NOT_CERTIFIED % "<26553-bit integer>", None,
        "so does the norm of a coordinate of lambda's form"),
    Row("check-long-suite", ["check", "x" * 5000],
        2, "", "error: unknown suite '%s'... (5000 characters)\n" % ("x" * 40),
        None, "so does an unknown suite"),
    Row("place-long", ["residue", '{"entries": [1]}',
                       "--place", "5" + ",0" * 3000],
        2, "", "error: --place: must be a non-constant polynomial: "
        "'5%s,'... (6001 characters)\n" % (",0" * 19), None,
        "so does a constant place of 3,001 coefficients"),
    Row("transfer-huge-division",
        ["--quat", "-1e4000", "-1", "transfer", HERM_I],
        2, "", "error: '(-1%s'... (4009 characters) is a division "
        "algebra\n" % ("0" * 37), None,
        "and the algebra (-10^4000, -1), which has no transfer"),
    # -- odd parts --
    Row("odd-self-large-norm", ["--quat", "-1", "-1", "decide", Z, Z],
        0, EQUAL, "", None,
        "<z, -z> has the square discriminant Nrd(z)^2 and cancels as a "
        "square multiple, so the cofactor 1000041000577, which trial "
        "division cannot certify, is never factored"),
    Row("odd-conjugate-uncertified",
        ["--quat", "-1", "-1", "decide", Z, Z_CONJUGATE],
        2, "", NOT_CERTIFIED % 1000041000577, 5,
        "gamma(i) z i has the norm of z, and the rank-1 test factors it"),
    Row("odd-self-split-huge",
        ["--quat", "1e4000", "-1", "decide", I, I],
        0, EQUAL, "", None,
        "<i> - <i> cancels before the transfer, so no nilpotent is "
        "searched over the split (10^4000, -1)"),
    Row("odd-split-no-zero",
        ["--quat", "1697", "162", "decide", I,
         '{"odd": [["0", "0", "1", "0"]]}'],
        2, "", "error: no zero of the pure norm form of height <= 100\n", 3,
        "<i> against <j> over the split (1697, 162) needs a nilpotent for "
        "the transfer"),
    # -- W(Q) --
    Row("kernel-read-back",
        ["decide",
         '{"diag": [-6761829963070, -2310769230, -1874730, 1352078, '
         '12562985526, 43026386810, 1009507350390, 17161624956630]}',
         '{"diag": [2, 1000250007881, -6761829963070, '
         '255602579744060901183840033675204555]}'],
        2, "", NOT_CERTIFIED % 1000250007881, 5,
        "the second form is the kernel witt_class prints for the first, "
        "and it does not read back: 1000250007881 = 1000037 * 1000213 "
        "(item 22)"),
    Row("even-ten-entries",
        ["decide", '{"even": [47759, -5389, 6931, -9881, -57263, -55417, '
         '82079, -86881, 47759, -47759]}', '{"even": [1]}'],
        0, DISTINCT, "", None,
        "equality reads the two diagonals, whose dimensions differ in "
        "parity, so the kernel of the ten is not peeled; peeled, it took "
        "7-11 s", 5),
    # -- the three verdict documents --
    Row("verdict-equal", ["decide", '{"diag": [1, -1, 5]}', '{"diag": [5]}'],
        0, EQUAL, "", None,
        "decide prints its verdict from documents written once at import"),
    Row("verdict-distinct", ["decide", DIAG1, '{"diag": [3]}'],
        0, DISTINCT, "", None, "the second of the three documents"),
    Row("verdict-unknown",
        ["--quat", "-1", "-7", "--search-bound", "4", "decide",
         '{"odd": [["0", "-3", "2", "-3"], ["0", "1", "1", "-2"]]}',
         '{"odd": [["0", "-2", "3", "1"], ["0", "-2", "3", "-1"]]}'],
        0, UNKNOWN, "", None,
        "the third: certified equal only at search bound 8, so bound 4 "
        "leaves it unknown; item 2's rule leaves it unknown too"),
    # -- lambda --
    Row("lambda2-rank20", ["lambda", "2", _rank20_form()],
        0, RANK20_LAMBDA2, "", None,
        "lambda^d runs the convolution only to degree d; with every "
        "degree computed this took about 450 s"),
    # -- Q(t) --
    Row("qt-degree2-pairs",
        ["decide", '{"entries": [[3, 0, 1], [3, 0, 1]]}',
         '{"entries": [[6, 0, 2], [6, 0, 2]]}'],
        2, "", "error: second residue at a degree-2 place has a square "
        "discriminant but does not cancel in pairs\n", 7,
        "the residues <1, 1> and <2, 2> at t^2 + 3 are equal over Q, but "
        "over Q(sqrt -3) their difference has a square discriminant and "
        "no pair that cancels"),
    Row("qt-cubic-self", ["--output", "json", "decide", CUBIC, CUBIC],
        0, EQUAL, "", None,
        "<t^3 - 2> - <t^3 - 2> is one pair <e, -e>, hyperbolic, although "
        "Q[t]/(t^3 - 2) is a residue field of degree 3"),
    Row("qt-cubic-second-residue",
        ["decide", CUBIC, '{"entries": [[-4, 0, 0, 2]]}'],
        2, "", "error: only degree <= 2 residue fields\n", 15,
        "units 1 and 2: nothing cancels, and the second residue at "
        "t^3 - 2 lies in a residue field of degree 3"),
    Row("qt-quintic", ["decide", QUINTIC, QUINTIC],
        2, "", "error: cannot certify irreducibility beyond degree 4 "
        "(at /entries/0)\n", 15,
        "t^5 - t - 1, a squarefree quintic with no rational root, is past "
        "the factorizer, although the difference cancels entry by entry"),
    Row("qt-reducible-flagged-first", ["decide", MINUS, PLUS],
        2, "", NOT_IRREDUCIBLE, None,
        "t^2 - 1 flagged irreducible is refused at its own pointer"),
    Row("qt-reducible-flagged-second", ["decide", PLUS, MINUS],
        2, "", NOT_IRREDUCIBLE, None,
        "a refused factor is never cached, so it is refused beside a "
        "document whose t^2 + 1 passed"),
]


def _ids(rows):
    return [r.id for r in rows]


@pytest.fixture(autouse=True)
def _eighty_columns(monkeypatch):
    # argparse wraps its usage to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("row", ROWS, ids=_ids(ROWS))
def test_row_in_process(capsys, row):
    try:
        code = cli.main(list(row.argv))
    except SystemExit as exc:  # argparse's refusals
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (row.code, row.out, row.err)


@pytest.mark.parametrize("row", ROWS, ids=_ids(ROWS))
def test_row_in_a_fresh_interpreter(row):
    flags = ["-O"] if sys.flags.optimize else []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "quatwitt.cli", *row.argv],
        env=env, capture_output=True, timeout=row.timeout)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) \
        == (row.code, row.out, row.err)


def test_rows_have_unique_ids_and_the_rank20_form_its_479_bytes():
    assert len(set(_ids(ROWS))) == len(ROWS)
    assert len(_rank20_form()) == 479


if __name__ == "__main__":
    counts = collections.Counter(r.item or 0 for r in ROWS)
    for item, n in sorted(counts.items()):
        print(f"item {item or 'none'}: {n}")
