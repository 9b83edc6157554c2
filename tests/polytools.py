"""Polynomial helpers that only the tests need, imported by the test files
as a plain module (pytest puts this directory on sys.path)."""

from quatwitt import polys as P


def ppow(p: P.Poly, e: int) -> P.Poly:
    """p to the power e >= 0, by repeated multiplication."""
    out = P.ONE
    for _ in range(e):
        out = P.pmul(out, p)
    return out
