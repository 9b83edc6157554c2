"""Pinned hyperbolicity certificates: the status and witness of a fixed,
seeded set of `hyperbolicity_certificate` calls, hashed.

The set spans two integral and two non-integral division algebras, ranks 2
and 4 and search bounds 1-4: forms built hyperbolic (<z, -c^2 z>, shuffled),
n_Q multiples (found by the hash search) and random forms, most of them
anisotropic at the bound.  The digest was recorded while quaternions still
had Fraction coordinates, so it pins the witnesses across changes of the
arithmetic underneath.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction

from quatwitt.hermitian import AntiHermForm, hyperbolicity_certificate
from quatwitt.quaternions import QuatAlgebra

ALGEBRAS = ((-1, -1), (-1, -3), (Fraction(-2, 3), Fraction(-5, 7)),
            (Fraction(3, 2), Fraction(-7, 3)))
COORDS = (0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))

DIGEST = "64176969f3adc907fab729f1bbc29fa8d2048302db8fee8a4ba02d64cd441f26"
STATUSES = {"hyperbolic": 41, "anisotropic-at-bound": 19}


def _pure(rng, A):
    while True:
        z = A.pure(*(rng.choice(COORDS) for _ in range(3)))
        if z.is_invertible():
            return z


def _cases(seed=2024):
    rng = random.Random(seed)
    for a, b in ALGEBRAS:
        A = QuatAlgebra(a, b)
        for rank in (2, 4):
            for bound in (1, 2, 3, 4):
                half = [_pure(rng, A) for _ in range(rank // 2)]
                c = rng.choice((1, 2, Fraction(1, 3)))
                hyp = half + [-z.scale(c * c) for z in half]
                rng.shuffle(hyp)
                yield AntiHermForm(tuple(hyp), A), bound
                if rank == 2 or bound == 1:
                    # larger random forms at bound >= 2 take seconds each
                    yield AntiHermForm(tuple(_pure(rng, A)
                                             for _ in range(rank)), A), bound
        z = _pure(rng, A)
        nq = (z, z.scale(-A.a), z.scale(-A.b), z.scale(A.a * A.b))
        for bound in (2, 4):
            yield AntiHermForm(nq, A), bound


def test_certificate_witness_digest():
    digest = hashlib.sha256()
    statuses = Counter()
    for form, bound in _cases():
        cert = hyperbolicity_certificate(form, bound)
        statuses[cert.status] += 1
        digest.update(
            f"{form!r} {bound} {cert.status} {cert.witness!r}\n".encode())
    assert dict(statuses) == STATUSES
    assert digest.hexdigest() == DIGEST
