"""The generic-splitting demo, pinned by output digest.

The demo prints the conic parametrization x(t), y(t), psi images and
residues; it runs in this process and the SHA-256 of its stdout must match
the value recorded when its output was last checked by hand.
"""

import hashlib
import runpy
from pathlib import Path

DEMO = (Path(__file__).resolve().parent.parent / "demos"
        / "generic_splitting_tour.py")
DIGEST = "10de7b6917bbe81e9be8b0321e084771e4f57df56a4468bc3f219b33f1ea747c"


def test_generic_splitting_demo_output(capsys):
    runpy.run_path(str(DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGEST
