"""The command line never ends in a traceback (needs hypothesis): whatever
flags and documents it is given, main returns 0 or 2, or argparse exits
with 2.  The flag values mix ASCII digits with other Unicode digits (a
superscript two, an Arabic-Indic three), signs, blanks, fractions,
decimals and numbers past the interpreter's limit on integer digits."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quatwitt.cli import main  # noqa: E402

BIG = "7" * 5000

NUMBERS = ["-1", "1", "-3", "3", "1/2", "-0.5", "+2", " -1", "1e1", "0",
           "1/0", "²", "³", "٣", "-٣", "", "x", "-x", BIG, "-" + BIG]
FIELDS = ["Q", "F3", "F5", "F7", "F0007", "F²", "F³7", "F٣", "F-5", "F 5",
          "F", "f5", "F4", "F1", "F0", "Qt", "", "F5/1", "F5.0", "F" + BIG]
SEARCH_BOUNDS = ["1", "2", "3", "0", "-1", "17", "²", "٣", "x", "", "1.5",
                 BIG]
SEEDS = ["0", "1", "-1", "x", "²", "٣", BIG]
DEGREES = ["0", "1", "2", "3", "-1", "²", "x", BIG]
PLACES = ["inf", "0,1", "1,1", "1,0,1", "0", "x", "²,1", "1,", "0,1/2"]

DIAG = ('{"diag": [1, -2]}', '{"diag": ["1/2", 3]}', '{"diag": []}')
HERM = ('{"herm_diag": [["0", "1", "0", "0"]]}',
        '{"herm_diag": [["0", "0", "1", "1"]]}')
MIXED = ('{"even": {"diag": [1]}, '
         '"odd": {"herm_diag": [["0", "1", "0", "0"]]}}',
         '{"even": [2, 3], "odd": [["0", "1", "0", "0"]]}', '{"even": [1]}',
         '{"odd": [["0", "0", "0", "1"]]}', '{}')
QT = ('{"entries": [{"unit": "2", "factors": [{"poly": ["1", "0", "1"], '
      '"exp": 1, "irreducible": true}]}]}', '{"entries": [[0, 1], 1]}')
INVARIANTS = ('{"r": 1, "coeffs": [{}, {"even": [1]}, {}]}',)
MALFORMED = (
    '{"even": [1, "x"]}', '{"odd": [["0", "x", "0", "0"]]}',
    '{"odd": [["1", "1", "0", "0"]]}', '{"even": 5}', '{"diag": "x"}',
    '{"diag": [true]}', '{"diag": ["²"]}', '{"diag": ["٣"]}',
    '{"diag": [0]}', '{"r": 0, "coeffs": []}', '{"entries": [[0, 0]]}',
    '{"herm_diag": [["0", "1", "0"]]}', '{"diag": [%s]}' % BIG, '[1]',
    'not json', '',
)
ANY = DIAG + HERM + MIXED + QT + INVARIANTS + MALFORMED


def _doc(good):
    """A document of the shape the subcommand reads, or any from the pool."""
    return st.one_of(st.sampled_from(good), st.sampled_from(ANY))


SUBCOMMANDS = st.one_of(
    st.tuples(st.just("prod"), _doc(MIXED), _doc(MIXED)),
    st.tuples(st.just("lambda"), st.sampled_from(DEGREES), _doc(HERM)),
    st.tuples(st.just("transfer"), _doc(HERM)),
    st.tuples(st.just("residue"), _doc(QT), st.just("--place"),
              st.sampled_from(PLACES)),
    st.sampled_from([DIAG, HERM, MIXED, QT, INVARIANTS]).flatmap(
        lambda good: st.tuples(st.just("decide"), _doc(good), _doc(good))),
    st.tuples(st.just("psi"), _doc(MIXED)),
)


def _flag(name, values):
    """The flag and its values, absent two times in three, so that most
    commands get far enough to read their documents."""
    return st.one_of(st.just([]), st.just([]),
                     values.map(lambda v: [name, *v]))


def _one(pool):
    return st.sampled_from(pool).map(lambda v: (v,))


# transfer and psi need a split algebra, which two numbers seldom give
QUATS = st.one_of(st.sampled_from([("1", "1"), ("2", "-1")]),
                  st.tuples(st.sampled_from(NUMBERS),
                            st.sampled_from(NUMBERS)))
FLAGS = st.tuples(_flag("--field", _one(FIELDS)), _flag("--quat", QUATS),
                  _flag("--search-bound", _one(SEARCH_BOUNDS)),
                  _flag("--seed", _one(SEEDS)))


@st.composite
def argvs(draw):
    flags = [v for flag in draw(FLAGS) for v in flag]
    command = list(draw(SUBCOMMANDS))
    # the global flags may also follow the subcommand
    return flags + command if draw(st.booleans()) else command + flags


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.example(["--field", "F²", "decide", '{"diag": [1]}',
                     '{"diag": [1]}'])
@hypothesis.example(["--field", "F" + BIG, "decide", '{"diag": [1]}',
                     '{"diag": [1]}'])
@hypothesis.given(argvs())
def test_main_exits_0_or_2_and_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            assert exc.code == 2
            assert "error:" in err.getvalue()
            return
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
