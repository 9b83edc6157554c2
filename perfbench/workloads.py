"""Seeded op streams for the three benchmark workloads.

This module uses only the standard library and never imports quatwitt: the
generator produces plain data (integers, lists, dicts) from the seed, and
the worker turns each op into library calls.  An op is a dict

    {"i": index, "kind": ..., "cls": "construct" | "decide",
     "cli": bool, "args": {...}}

`args` carries everything the op needs plus the answer known by
construction, when there is one (`expect`).  Quaternions are integer
coordinate lists [c0, c1, c2, c3]; algebras are [a, b]; a mixed class is
{"even": [diagonal], "odd": [quaternion, ...]}.

Categorical choices (op kind, CLI route, dimension, rank, how a pair is
built) are stratified: every block of draws holds each choice exactly in
proportion to its weight, in a seeded order.  Only the numbers inside the
inputs are drawn freely.  Each class mixes fast and slow ops, and a share
that drifted from seed to seed would move its median across the gap
between them.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("wq-forms", "mixed-split", "division-certify")

SPLIT_ALGEBRAS = ([1, 1], [2, 7], [5, -1])
DIVISION_ALGEBRAS = ([-1, -1], [-1, -3])

# Op kinds that have a matching `quatwitt` subcommand (decide, prod,
# lambda, transfer, psi, residue; see ops.py).
CLI_KINDS = frozenset({
    "witt_equal", "product", "lambda_all", "morita_transfer", "psi_split",
    "residue", "mixed_equal", "kt_witt_equal",
})

# Share of all ops issued through `quatwitt.cli.main`.
CLI_SHARE = 0.1

# Stream size: a run of S seconds issues S * OPS_PER_SECOND ops, which
# take about S seconds of timed calls at the commit the benchmark was
# defined on.  A fixed count, rather than a deadline, keeps the cache state
# and the sample counts behind each percentile the same from run to run.
OPS_PER_SECOND = {
    "wq-forms": 165,
    "mixed-split": 50,
    "division-certify": 13,
}

# Op mix per workload: (kind, class, weight).  The weights keep each
# class's median inside one cluster of similar ops (wq-forms: fresh forms
# of dimension 4-6; mixed-split: odd x odd products and the Q(t) equality;
# division-certify: <z, -z> certificates and pairs whose difference has
# rank 4) rather than on the gap between a fast and a slow cluster.
MIXES = {
    "wq-forms": (
        ("witt_class", "construct", 8),
        ("witt_equal", "decide", 7),
        ("is_isotropic", "decide", 5),
    ),
    "mixed-split": (
        ("product", "construct", 30),
        ("lambda_all", "construct", 6),
        ("phi_z0", "construct", 5),
        ("morita_transfer", "construct", 5),
        ("psi_split", "construct", 8),
        ("residue", "construct", 5),
        ("mixed_equal", "decide", 14),
        ("kt_witt_equal", "decide", 16),
        ("is_constant_invariant", "decide", 8),
    ),
    "division-certify": (
        ("mixed_equal", "decide", 1),
        ("certificate", "construct", 1),
    ),
}

# wq-forms: one op in four repeats the input of an earlier decide op.
# witt_class inputs are always fresh: a repeated witt_class is a 20 us
# cache hit, and a quarter of the class at that one point put its median
# in the gap between cached and computed classes.
WQ_REPEAT = ((True, 1), (False, 3))
WQ_DIMS = ((2, 1), (3, 1), (4, 3), (5, 3), (6, 3), (7, 1), (8, 1))

# division-certify schedules its two slow input families at fixed op
# indices, so every run of the same length has the same number of them:
# - every SAME_DISC_PERIOD-th op (from SAME_DISC_OFFSET) is a pair sharing
#   rank parity, discriminant and even part: no screen decides it, so
#   mixed_equal runs its full search at bound 8 (0.1 to ~25 s), and no
#   answer is known;
# - every NQ_PERIOD-th op (from NQ_OFFSET) is a certificate for n_Q <z>,
#   hyperbolic by construction (0.1 to ~7 s).
SAME_DISC_PERIOD, SAME_DISC_OFFSET = 260, 75
NQ_PERIOD, NQ_OFFSET = 260, 25
# The cost of an equal pair is set by the rank of the difference x - y:
# about 23 ms at rank 2, 90 ms at 4, 225 ms at 6, 470 ms at 8.
DIVISION_RANKS = ((1, 5), (2, 11), (3, 3), (4, 1))


class Draw:
    """A seeded generator plus stratified categorical choices."""

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self._queues = {}

    def pick(self, name, weighted):
        """Next item of the stratified sequence `name`: each block of
        sum(weights) draws holds every item `weight` times."""
        queue = self._queues.get(name)
        if not queue:
            queue = [item for item, w in weighted for _ in range(w)]
            self.rng.shuffle(queue)
            self._queues[name] = queue
        return queue.pop()

    def one_of(self, name, items):
        return self.pick(name, [(item, 1) for item in items])

    def nonzero(self, bound: int) -> int:
        while True:
            v = self.rng.randint(-bound, bound)
            if v:
                return v

    def diag(self, dim: int, bound: int):
        return [self.nonzero(bound) for _ in range(dim)]

    def pure(self, alg, height: int):
        """Invertible pure quaternion with integer coordinates."""
        while True:
            c = [0] + [self.rng.randint(-height, height) for _ in range(3)]
            if any(c) and pure_nrd(alg, c):
                return c

    def element(self, alg, height: int):
        """Invertible quaternion (reduced norm nonzero)."""
        a, b = alg
        while True:
            c = [self.rng.randint(-height, height) for _ in range(4)]
            if c[0] ** 2 - a * c[1] ** 2 - b * c[2] ** 2 + a * b * c[3] ** 2:
                return c

    def mixed(self, alg, rank, even_dim, height=5):
        return {"even": self.diag(even_dim, 10),
                "odd": [self.pure(alg, height) for _ in range(rank)]}

    def square_scaled(self, z):
        """c^2 z: <c^2 z> and <z> are isometric through x -> c x."""
        s = self.rng.randint(1, 3) ** 2
        return [s * c for c in z]


def pure_nrd(alg, c):
    a, b = alg
    return -a * c[1] * c[1] - b * c[2] * c[2] + a * b * c[3] * c[3]


def squarefree(n: int) -> int:
    """Signed squarefree part of a nonzero integer (trial division)."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
        p += 1
    return sign * out * n


def herm_disc(alg, entries) -> int:
    """Square class (as a squarefree integer) of the product of reduced
    norms, the discriminant screen of mixed_equal."""
    prod = 1
    for z in entries:
        prod *= pure_nrd(alg, z)
    return squarefree(prod)


def quat_mul(alg, x, y):
    """Product in (a, b | Q) on coordinate lists: i^2 = a, j^2 = b,
    ij = -ji.  Written out here so checks do not share the library's
    arithmetic."""
    a, b = alg
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return [
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    ]


def quat_conj(x):
    return [x[0], -x[1], -x[2], -x[3]]


def _copy(x):
    return {"even": list(x["even"]), "odd": [list(z) for z in x["odd"]]}


# ---------------------------------------------------------------------------
# wq-forms


def _wq_op(d: Draw, kind):
    if kind == "witt_class":
        return {"diag": d.diag(d.pick("wq.dim", WQ_DIMS), 60)}
    if kind == "witt_equal":
        q1 = d.diag(d.pick("wq.dim", WQ_DIMS), 60)
        how = d.one_of("wq.equal", ("equal", "signature", "disc", "parity"))
        if how == "equal":
            # square-rescaled, padded with <c, -c>, permuted
            q2 = [v * d.rng.randint(1, 3) ** 2 for v in q1]
            for _ in range(d.rng.randint(0, 1)):
                c = d.nonzero(60)
                q2 += [c, -c]
        elif how == "signature":
            q2 = list(q1)
            k = d.rng.randrange(len(q2))
            q2[k] = -q2[k]
        elif how == "disc":
            q2 = list(q1)
            k = d.rng.randrange(len(q2))
            q2[k] *= d.rng.choice((2, 3, 5, 7, 11, 13))
        else:
            q2 = q1 + [d.nonzero(60)]
        d.rng.shuffle(q2)
        return {"lhs": q1, "rhs": q2,
                "expect": "equal" if how == "equal" else "distinct"}
    if kind == "is_isotropic":
        dim = d.one_of("wq.iso.dim", (2, 3, 4, 5))
        how = d.one_of("wq.iso", ("vector", "definite", "random"))
        if how == "vector":
            # isotropic by construction: sum a_i x_i^2 = 0 for a known x
            while True:
                x = [d.rng.randint(1, 4) for _ in range(dim)]
                head = d.diag(dim - 1, 60)
                s = sum(a * v * v for a, v in zip(head, x))
                if s and s % (x[-1] * x[-1]) == 0:
                    diag = head + [-s // (x[-1] * x[-1])]
                    return {"diag": diag, "expect": True, "vector": x}
        if how == "definite":
            sign = d.rng.choice((1, -1))
            return {"diag": [sign * d.rng.randint(1, 60) for _ in range(dim)],
                    "expect": False}
        return {"diag": d.diag(dim, 60), "expect": None}
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# mixed-split


def _split_op(d: Draw, kind):
    if kind == "product":
        if d.pick("product.alg", (("division", 1), ("split", 3))) == "split":
            alg = list(d.one_of("split.alg", SPLIT_ALGEBRAS))
        else:
            alg = [-1, -1]
        how = d.pick("product", (("odd*odd", 3), ("rank1", 1), ("rank0", 1)))
        if how == "odd*odd":
            x = {"even": [], "odd": [d.pure(alg, 9)]}
            y = {"even": [], "odd": [d.pure(alg, 9)]}
        else:
            x = d.mixed(alg, 1 if how == "rank1" else 0, d.rng.randint(0, 2))
            y = d.mixed(alg, 1, d.rng.randint(0, 2))
        return {"alg": alg, "lhs": x, "rhs": y}
    if kind == "lambda_all":
        alg = [-1, -1]
        rank = d.pick("lambda.rank", ((1, 1), (2, 2), (3, 1)))
        herm = [d.pure(alg, 6) for _ in range(rank)]
        # the subcommand computes one degree; the checked ones are 1 and 2r
        return {"alg": alg, "herm": herm,
                "degree": d.rng.choice((1, 2 * rank))}
    alg = list(d.one_of("split.alg", SPLIT_ALGEBRAS))
    if kind in ("phi_z0", "psi_split"):
        return {"alg": alg, "x": d.mixed(alg, d.rng.randint(1, 2),
                                         d.rng.randint(0, 2))}
    if kind == "morita_transfer":
        return {"alg": alg, "herm": [d.pure(alg, 9)
                                     for _ in range(d.rng.randint(1, 3))]}
    if kind == "residue":
        # place: infinity, or t - c for a small integer c
        place = "inf" if d.rng.random() < 0.3 else d.rng.randint(-6, 6)
        return {"alg": alg, "place": place,
                "x": d.mixed(alg, d.rng.randint(1, 2), d.rng.randint(0, 2))}
    if kind == "mixed_equal":
        x = d.mixed(alg, d.one_of("split.meq.rank", (1, 2, 3)),
                    d.rng.randint(0, 2))
        y = _copy(x)
        how = d.one_of("split.meq", ("perm", "square", "pad", "replace"))
        if how == "perm":
            d.rng.shuffle(y["odd"])
        elif how == "square":
            y["odd"] = [d.square_scaled(z) for z in y["odd"]]
        elif how == "pad":
            w = d.pure(alg, 5)
            y["odd"] += [w, [-c for c in w]]
        else:
            k = d.rng.randrange(len(y["odd"]))
            y["odd"][k] = d.pure(alg, 5)
        return {"alg": alg, "lhs": x, "rhs": y}
    if kind == "kt_witt_equal":
        x = d.mixed(alg, 1, d.rng.randint(0, 2))
        y = _copy(x)
        how = d.one_of("kt", ("kernel", "perm", "parity", "definite"))
        extra = 0
        if how == "kernel":
            # x + k * (kernel generator of psi): equal images
            extra = d.rng.choice((1, 2))
        elif how == "perm":
            d.rng.shuffle(y["even"])
            y["odd"] = [d.square_scaled(z) for z in y["odd"]]
        elif how == "parity":
            y["even"].append(d.nonzero(10))
        else:
            y["even"] += [d.rng.randint(1, 10), d.rng.randint(1, 10)]
        return {"alg": alg, "lhs": x, "rhs": y, "kernel": extra,
                "expect": "equal" if how in ("kernel", "perm") else "distinct"}
    if kind == "is_constant_invariant":
        alg = [-1, -1]
        x0 = {"even": d.diag(d.rng.randint(0, 2), 10), "odd": []}
        if d.pick("constancy", ((True, 3), (False, 1))):
            # x_d = n_Q (x) y_d: constant by construction
            ys = [d.diag(d.rng.randint(0, 1), 10) for _ in range(2)]
            return {"alg": alg, "x0": x0, "nq_mult": ys, "expect": "constant"}
        return {"alg": alg, "x0": x0, "basis": d.rng.choice((1, 2)),
                "expect": "nonconstant"}
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# division-certify


def _division_pair(d: Draw, same_disc: bool):
    alg = list(d.one_of("div.alg", DIVISION_ALGEBRAS))
    x = d.mixed(alg, d.pick("div.rank", DIVISION_RANKS), d.rng.randint(0, 1))
    y = _copy(x)
    if same_disc:
        # scale one entry by a non-square: rank, discriminant and even part
        # all agree, and no answer is known
        k = d.rng.randrange(len(y["odd"]))
        c = d.rng.choice((2, 3, 5, 6, 7))
        y["odd"][k] = [c * v for v in y["odd"][k]]
        return {"alg": alg, "lhs": x, "rhs": y, "expect": None,
                "how": "same-disc"}
    if d.pick("div.expect", (("equal", 9), ("distinct", 1))) == "equal":
        how = d.one_of("div.equal", ("perm", "square", "conj", "pad"))
    else:
        how = d.one_of("div.distinct", ("parity", "disc", "even"))
    if how == "perm":
        d.rng.shuffle(y["odd"])
    elif how == "square":
        y["odd"] = [d.square_scaled(z) for z in y["odd"]]
    elif how == "conj":
        qs = [d.element(alg, 1) for _ in y["odd"]]
        y["odd"] = [quat_mul(alg, quat_mul(alg, quat_conj(q), z), q)
                    for q, z in zip(qs, y["odd"])]
    elif how == "pad":
        w = d.pure(alg, 5)
        y["odd"] += [w, [-c for c in w]]
        d.rng.shuffle(y["odd"])
    elif how == "parity":
        y["odd"] = [d.pure(alg, 5) for _ in range(len(x["odd"]) + 1)]
    elif how == "disc":
        target = herm_disc(alg, x["odd"])
        while True:
            y["odd"] = [d.pure(alg, 5) for _ in range(len(x["odd"]))]
            if herm_disc(alg, y["odd"]) != target:
                break
    else:
        y["even"] = y["even"] + [d.nonzero(10)]
    expect = "equal" if how in ("perm", "square", "conj", "pad") else "distinct"
    return {"alg": alg, "lhs": x, "rhs": y, "expect": expect, "how": how}


def _certificate(d: Draw, nq: bool):
    alg = list(d.one_of("div.alg", DIVISION_ALGEBRAS))
    if nq:
        # n_Q <z>: the norm-form entries times z, hyperbolic since n_Q
        # annihilates the odd part
        a, b = alg
        z = d.pure(alg, 4)
        return {"alg": alg, "how": "nq",
                "herm": [[s * c for c in z] for s in (1, -a, -b, a * b)]}
    if d.pick("cert", (("pair", 2), ("double", 1))) == "pair":
        z = d.pure(alg, 6)
        return {"alg": alg, "how": "pair", "herm": [z, [-c for c in z]]}
    z1, z2 = d.pure(alg, 6), d.pure(alg, 6)
    return {"alg": alg, "how": "double",
            "herm": [z1, z2, [-c for c in z2], [-c for c in z1]]}


def _division_op(d: Draw, kind):
    if kind == "mixed_equal":
        return _division_pair(d, False)
    return _certificate(d, False)


# ---------------------------------------------------------------------------
# streams


_MAKERS = {
    "wq-forms": _wq_op,
    "mixed-split": _split_op,
    "division-certify": _division_op,
}


def cli_weights(workload: str):
    """Stratified CLI route for kinds that have a subcommand, so that about
    CLI_SHARE of all ops take it."""
    mix = MIXES[workload]
    total = sum(w for _, _, w in mix)
    eligible = sum(w for k, _, w in mix if k in CLI_KINDS)
    per20 = max(1, min(20, round(20 * CLI_SHARE * total / eligible)))
    return ((True, per20), (False, 20 - per20))


def stream_size(workload: str, seconds: float) -> int:
    """Ops in a run of `seconds`; at least 20, so both classes have ops."""
    return max(20, round(seconds * OPS_PER_SECOND[workload]))


def stream(workload: str, seed: int):
    """Endless deterministic op stream for one workload and seed."""
    if workload not in MIXES:
        raise ValueError(f"unknown workload {workload!r}")
    d = Draw(f"{workload}/{seed}")
    mix = MIXES[workload]
    kinds = [(k, w) for k, _, w in mix]
    classes = {k: c for k, c, _ in mix}
    cli = cli_weights(workload)
    history = []
    i = 0
    while True:
        if workload == "wq-forms" and history and d.pick("repeat", WQ_REPEAT):
            kind, args = d.rng.choice(history)
            history.append((kind, args))
        elif workload == "division-certify" and \
                i % SAME_DISC_PERIOD == SAME_DISC_OFFSET:
            # always the library call, so a refusal shows its type
            yield {"i": i, "kind": "mixed_equal", "cls": "decide",
                   "cli": False, "args": _division_pair(d, True)}
            i += 1
            continue
        elif workload == "division-certify" and i % NQ_PERIOD == NQ_OFFSET:
            kind, args = "certificate", _certificate(d, True)
        else:
            kind = d.pick("kind", kinds)
            args = _MAKERS[workload](d, kind)
            if workload == "wq-forms" and kind != "witt_class":
                history.append((kind, args))
        via_cli = kind in CLI_KINDS and d.pick("cli." + kind, cli)
        yield {"i": i, "kind": kind, "cls": classes[kind], "cli": via_cli,
               "args": args}
        i += 1


def input_digest(workload: str, seed: int, count: int) -> str:
    """SHA-256 of the first `count` ops, to show the stream is a function
    of (workload, seed) alone."""
    h = hashlib.sha256()
    gen = stream(workload, seed)
    for _ in range(count):
        h.update(json.dumps(next(gen), sort_keys=True).encode())
    return h.hexdigest()
