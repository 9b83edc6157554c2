"""The README's command-line examples, pinned by output digest.

Each example is run through `quatwitt.cli.main` in this process; the
SHA-256 of its stdout and its exit code must match the values recorded
when the examples were last checked by hand.  A change to any printed
byte of these commands fails here.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from quatwitt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# (argv after `quatwitt`, SHA-256 of stdout, exit code), in README order
EXAMPLES = [
    (["prod", '{"even": [2, 3], "odd": [["0", "1", "0", "0"]]}',
      '{"odd": [["0", "0", "1", "0"]]}'],
     "c21fd87278e4f33dbe0e0b9dab991af6eb6d512634da4e09276e087635992d12", 0),
    (["lambda", "2", '{"herm_diag": [["0", "1", "0", "0"]]}'],
     "0622b00dd09f865100e66ca72eaf9b6b72dbcae9ca752ebd6ba7f2f691d19794", 0),
    (["--quat", "1", "1", "transfer",
      '{"herm_diag": [["0", "0", "0", "1"]]}'],
     "7b0f07a30b76a57cd66c7ba30737e3cdfca2267bb3fe49ff609be94b444e4c61", 0),
    (["residue", '{"entries": [[0, 1], 1]}', "--place", "0,1"],
     "953b82cbb020b6bd2b3ef43ccd9fab93286c5930cf79549077f28bdd171867d9", 0),
    (["decide", '{"diag": [1, -1, 5]}', '{"diag": [5]}'],
     "a1e8b62f520fbff110d3221d7436a07502d1d22bd93fec9d88e349c147b8fc7b", 0),
    (["--quat", "1", "1", "psi", '{"odd": [["0", "0", "0", "1"]]}'],
     "af56323411b1d467d60de9c54aa99691af768b4c74cd7277d9dd3c16def7e6e9", 0),
    (["check", "morita", "--output", "json"],
     "502a6deb907a3558be9e5353736e8de5d1bf52df7b60bbb12e66398b86e950d3", 0),
]


def _readme_commands():
    """argv of every `quatwitt ...` line in the README's shell blocks,
    with backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    cmds = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        joined = re.sub(r"\\\n\s*", " ", block)
        for line in joined.splitlines():
            if line.startswith("quatwitt "):
                cmds.append(shlex.split(line)[1:])
    return cmds


def test_readme_lists_the_pinned_examples():
    assert _readme_commands() == [argv for argv, _, _ in EXAMPLES]


@pytest.mark.parametrize("argv,digest,code", EXAMPLES,
                         ids=[next(a for a in argv if a.isalpha())
                              for argv, _, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, digest, code):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
