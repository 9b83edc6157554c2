"""The demos, pinned by output digest.

Each demo runs in this process and the SHA-256 of its stdout must match the
value recorded when its output was last checked by hand.
"""

import hashlib
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _stdout_digest(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_generic_splitting_demo_output(capsys):
    # the conic parametrization x(t), y(t), psi images and residues
    assert _stdout_digest(capsys, "generic_splitting_tour.py") \
        == "10de7b6917bbe81e9be8b0321e084771e4f57df56a4468bc3f219b33f1ea747c"


def test_mixed_ring_demo_output(capsys):
    # products, lambda powers, a hyperbolicity certificate and decisions
    assert _stdout_digest(capsys, "mixed_ring_tour.py") \
        == "3b2715ccf9ef51a1a528f3a005ac8db20bdbdce7d433895a79940f200469e07c"
