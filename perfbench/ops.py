"""Turns generated ops into library calls and checks their results.

`Runner.prepare(op)` builds the library inputs untimed and returns a
`Prepared`: the zero-argument callable the worker times, the context the
check needs, and for CLI ops a `post` step that parses the captured output
back into library objects (untimed).  `Runner.check(op, prepared, result)`
checks the result against the answer known by construction or against an
independent path: closed form vs. twisted trace form, Morita transfer along
a second nilpotent, Gram-matrix transfer, specialisation at good points, a
brute-force isotropy search, and exact re-verification of certificates with
the arithmetic written out in `workloads.quat_mul`.  Checks compare Witt
classes through `witt_equal` and invariants, never exact representatives.

Every timed library call goes through a module attribute (`QF.witt_class`,
`CLI.main`, ...), so a traced run, which rebinds those names, sees it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import quatwitt as Q

# import_module, not `from quatwitt import mixed`: the package namespace
# binds `mixed` to a function of the same name
CLI, FF, HM, INV, MX, P, QF = (
    importlib.import_module(f"quatwitt.{name}") for name in
    ("cli", "funcfield", "hermitian", "invariants", "mixed", "polys",
     "quadforms"))

import workloads as W
from fixed import fixed_data

EMPTY = QF.QuadForm((), Q.QQ)


class CheckFailed(Exception):
    """A result contradicts its known answer or an independent path."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Prepared:
    call: Callable[[], Any]
    ctx: Any = None
    post: Optional[Callable[[Any], Any]] = None


def brute_zero(reps, bound: int):
    """Nonzero integer vector with sum r_i x_i^2 = 0 and |x_i| <= bound,
    found by meeting the positive and negative halves: the smaller half
    goes in a table, the larger is streamed against it."""
    n = len(reps)
    pos = [i for i in range(n) if reps[i] > 0]
    neg = [i for i in range(n) if reps[i] < 0]
    if not pos or not neg:
        return None
    small, large = sorted((pos, neg), key=len)
    table = {}
    for c in itertools.product(range(bound + 1), repeat=len(small)):
        s = abs(sum(reps[i] * v * v for i, v in zip(small, c)))
        if s:
            table.setdefault(s, c)
    for c in itertools.product(range(bound + 1), repeat=len(large)):
        s = abs(sum(reps[i] * v * v for i, v in zip(large, c)))
        if s and s in table:
            vec = [0] * n
            for i, v in zip(small, table[s]):
                vec[i] = v
            for i, v in zip(large, c):
                vec[i] = v
            return vec
    return None


def _perp(*forms):
    out = EMPTY
    for f in forms:
        out = out.perp(f)
    return out


def _nrd_class(entries):
    prod = Fraction(1)
    for z in entries:
        prod *= z.nrd()
    return Q.square_class(prod)


def _herm_doc(rows):
    return json.dumps({"herm_diag": [[str(c) for c in z] for z in rows]})


def _mixed_doc(doc):
    return json.dumps({"even": [str(v) for v in doc["even"]],
                       "odd": [[str(c) for c in z] for z in doc["odd"]]})


def _quat_flags(ab):
    return ["--quat", str(ab[0]), str(ab[1])]


def run_cli(argv):
    """`quatwitt.cli.main(argv)` in this process with stdout captured;
    returns the JSON document it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(argv + ["--output", "json"])
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    if code != 0:
        raise CheckFailed(f"cli exit {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


class Runner:
    """Library-side half of the benchmark for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.fixed = fixed_data(workload)

    # -- input construction -------------------------------------------------

    def alg(self, ab):
        return self.fixed["algebras"][tuple(ab)]

    def herm(self, A, rows):
        return Q.herm_diag([A.element(*map(Fraction, c)) for c in rows], A)

    def mixed(self, A, doc):
        even = Q.witt_class(Q.qf(doc["even"])) if doc["even"] else Q.witt_zero()
        odd = tuple(A.element(*map(Fraction, c)) for c in doc["odd"])
        return Q.mixed(A, even=even, odd_entries=odd)

    def _phi(self, x, z0):
        """even part plus the transferred odd part, as one form over Q."""
        return x.even.anis.perp(Q.morita_transfer(x.odd, z0))

    # -- prepare --------------------------------------------------------------

    def prepare(self, op) -> Prepared:
        return getattr(self, "_prep_" + op["kind"])(op["args"], op["cli"])

    def _prep_witt_class(self, a, cli):
        q = Q.qf(a["diag"])
        return Prepared(lambda: QF.witt_class(q), q)

    def _prep_witt_equal(self, a, cli):
        if cli:
            argv = ["decide", json.dumps({"diag": a["lhs"]}),
                    json.dumps({"diag": a["rhs"]})]
            return Prepared(lambda: run_cli(argv), post=lambda d: d["result"])
        q1, q2 = Q.qf(a["lhs"]), Q.qf(a["rhs"])
        return Prepared(
            lambda: "equal" if QF.witt_equal(q1, q2) else "distinct")

    def _prep_is_isotropic(self, a, cli):
        q = Q.qf(a["diag"])
        return Prepared(lambda: QF.is_isotropic(q), q)

    def _prep_product(self, a, cli):
        A = self.alg(a["alg"])
        x, y = self.mixed(A, a["lhs"]), self.mixed(A, a["rhs"])
        if cli:
            argv = _quat_flags(a["alg"]) + [
                "prod", _mixed_doc(a["lhs"]), _mixed_doc(a["rhs"])]
            return Prepared(lambda: run_cli(argv), (x, y),
                            lambda d: Q.parse_input(d, algebra=A))
        return Prepared(lambda: x * y, (x, y))

    def _prep_lambda_all(self, a, cli):
        A = self.alg(a["alg"])
        h = self.herm(A, a["herm"])
        if cli:
            d = a["degree"]
            argv = _quat_flags(a["alg"]) + ["lambda", str(d),
                                            _herm_doc(a["herm"])]
            return Prepared(lambda: run_cli(argv), h,
                            lambda doc: {d: Q.parse_input(doc, algebra=A)})
        return Prepared(lambda: INV.lambda_all(h), h,
                        lambda lam: dict(enumerate(lam)))

    def _prep_phi_z0(self, a, cli):
        A = self.alg(a["alg"])
        x = self.mixed(A, a["x"])
        z0 = self.fixed["nilpotent"][tuple(a["alg"])]
        return Prepared(lambda: MX.phi_z0(x, z0), (x, z0))

    def _prep_morita_transfer(self, a, cli):
        A = self.alg(a["alg"])
        h = self.herm(A, a["herm"])
        z0 = self.fixed["nilpotent"][tuple(a["alg"])]
        if cli:
            argv = _quat_flags(a["alg"]) + ["transfer", _herm_doc(a["herm"])]
            return Prepared(lambda: run_cli(argv), (h, z0), Q.parse_input)
        return Prepared(lambda: HM.morita_transfer(h, z0), (h, z0))

    def _prep_psi_split(self, a, cli):
        key = tuple(a["alg"])
        x = self.mixed(self.alg(key), a["x"])
        conic = self.fixed["conic"][key]
        if cli:
            argv = _quat_flags(a["alg"]) + ["psi", _mixed_doc(a["x"])]
            return Prepared(lambda: run_cli(argv), (x, conic), Q.parse_input)
        return Prepared(lambda: FF.psi_split(x, conic), (x, conic))

    def _prep_residue(self, a, cli):
        key = tuple(a["alg"])
        img = Q.psi_split(self.mixed(self.alg(key), a["x"]),
                          self.fixed["conic"][key])
        c = a["place"]
        if cli:
            text = "inf" if c == "inf" else f"{-c},1"
            argv = _quat_flags(a["alg"]) + [
                "residue", json.dumps(Q.serialize(img)), f"--place={text}"]
            return Prepared(lambda: run_cli(argv), (img, c), lambda d: (
                Q.qf([Fraction(s) for s in d["first"]["diag"]]),
                Q.qf([Fraction(s) for s in d["second"]["diag"]])))
        if c == "inf":
            v = Q.Place("infinite")
        else:
            v = Q.Place("poly", pi=P.monic(P.poly([-c, 1])))
        return Prepared(lambda: FF.residue(img, v), (img, c),
                        lambda g: (g.even.anis, g.odd.anis))

    def _prep_mixed_equal(self, a, cli):
        A = self.alg(a["alg"])
        x, y = self.mixed(A, a["lhs"]), self.mixed(A, a["rhs"])
        if cli:
            argv = _quat_flags(a["alg"]) + [
                "decide", _mixed_doc(a["lhs"]), _mixed_doc(a["rhs"])]
            return Prepared(lambda: run_cli(argv), (x, y),
                            lambda d: d["result"])
        return Prepared(lambda: MX.mixed_equal(x, y), (x, y))

    def _prep_kt_witt_equal(self, a, cli):
        key = tuple(a["alg"])
        A = self.alg(key)
        x, y = self.mixed(A, a["lhs"]), self.mixed(A, a["rhs"])
        for _ in range(a["kernel"]):
            y = y + self.fixed["kernel"][key]
        conic = self.fixed["conic"][key]
        px, py = Q.psi_split(x, conic), Q.psi_split(y, conic)
        if cli:
            argv = ["decide", json.dumps(Q.serialize(px)),
                    json.dumps(Q.serialize(py))]
            return Prepared(lambda: run_cli(argv), (px, py),
                            lambda d: d["result"])
        return Prepared(
            lambda: "equal" if FF.kt_witt_equal(px, py) else "distinct",
            (px, py))

    def _prep_is_constant_invariant(self, a, cli):
        A = self.alg(a["alg"])
        coeffs = [self.mixed(A, a["x0"])]
        if "nq_mult" in a:
            nqf = self.fixed["n_q"][tuple(a["alg"])].anis
            for y in a["nq_mult"]:
                cls = Q.witt_class(nqf.tensor(Q.qf(y))) if y else Q.witt_zero()
                coeffs.append(Q.mixed(A, even=cls))
        else:
            for d in (1, 2):
                coeffs.append(Q.mixed_one(A) if d == a["basis"]
                              else Q.mixed_zero(A))
        alpha = Q.LambdaInvariant(1, tuple(coeffs))
        return Prepared(lambda: INV.is_constant_invariant(alpha), coeffs)

    def _prep_certificate(self, a, cli):
        h = self.herm(self.alg(a["alg"]), a["herm"])
        return Prepared(lambda: HM.hyperbolicity_certificate(h), h)

    # -- check: returns "ok" or "unknown", raises CheckFailed ----------------

    def check(self, op, prep: Prepared, result):
        if prep.post is not None:
            result = prep.post(result)
        return getattr(self, "_check_" + op["kind"])(op["args"], prep.ctx,
                                                     result)

    def _check_witt_class(self, a, q, w):
        n = w.anis.dim
        _require(n % 2 == q.dim % 2 and n <= q.dim, "kernel dimension")
        _require(Q.signature(w.anis) == Q.signature(q), "signature")
        _require(not Q.is_isotropic(w.anis), "kernel is isotropic")
        _require(Q.witt_equal(w.anis, q), "class differs from its input")
        return "ok"

    def _check_witt_equal(self, a, ctx, verdict):
        _require(verdict == a["expect"],
                 f"verdict {verdict}, expected {a['expect']}")
        return "ok"

    def _check_is_isotropic(self, a, q, verdict):
        if a["expect"] is not None:
            _require(verdict is a["expect"], "isotropy verdict")
            if "vector" in a:
                _require(sum(d * v * v for d, v in zip(a["diag"], a["vector"]))
                         == 0, "construction vector")
            return "ok"
        reps = list(q.reps())
        definite = all(r > 0 for r in reps) or all(r < 0 for r in reps)
        if definite or len(reps) >= 5:
            _require(verdict is (not definite), "dimension/definiteness rule")
            return "ok"
        # brute-force search for a zero: height 12, then 60 when the
        # verdict says one exists
        vec = brute_zero(reps, 12)
        if verdict and vec is None:
            vec = brute_zero(reps, 60)
        _require(verdict is (vec is not None),
                 f"verdict {verdict}, brute-force zero {vec}")
        return "ok"

    def _check_product(self, a, ctx, xy):
        x, y = ctx
        A = x.algebra
        if (A.a, A.b) in self.fixed["alt_nilpotent"]:
            z1 = self.fixed["alt_nilpotent"][(A.a, A.b)]
            _require(Q.witt_equal(self._phi(xy, z1),
                                  self._phi(x, z1).tensor(self._phi(y, z1))),
                     "phi(x y) != phi(x) phi(y)")
            return "ok"
        # division algebra: even part against the closed form of each
        # odd*odd term, odd part by rank parity and discriminant
        terms = [x.even.anis.tensor(y.even.anis)]
        for zs in x.odd.diag:
            for zt in y.odd.diag:
                terms.append(Q.odd_product_closed_form(zs, zt).anis)
        _require(Q.witt_equal(xy.even.anis, _perp(*terms)), "even part")
        n_odd = x.even.anis.dim * y.odd.rank + y.even.anis.dim * x.odd.rank
        _require(xy.odd.rank % 2 == n_odd % 2, "odd rank parity")
        want = Fraction(1)
        for _ in x.even.anis.reps():
            for z in y.odd.diag:
                want *= z.nrd()
        for _ in y.even.anis.reps():
            for z in x.odd.diag:
                want *= z.nrd()
        _require(_nrd_class(xy.odd.diag) == Q.square_class(want),
                 "odd discriminant")
        return "ok"

    def _check_lambda_all(self, a, h, lam):
        r = h.rank
        _require(len(lam) in (1, 2 * r + 1), "number of lambda powers")
        for d, cls in lam.items():
            if d == 0:
                _require(Q.witt_equal(cls.even.anis, Q.qf([1]))
                         and cls.odd.rank == 0, "lambda^0")
            elif d == 1:
                _require(Q.witt_equal(cls.even.anis, EMPTY), "lambda^1 even")
                _require(cls.odd.rank == r
                         and _nrd_class(cls.odd.diag) == _nrd_class(h.diag),
                         "lambda^1 odd")
            elif d == 2 * r:
                prod = Fraction(1)
                for z in h.diag:
                    prod *= z.nrd()
                _require(Q.witt_equal(cls.even.anis, Q.qf([prod]))
                         and cls.odd.rank == 0, "lambda^2r")
        return "ok"

    def _transfer_oracle(self, h, z0):
        """Gram-matrix path: diagonalize b_{z0,z} slot by slot."""
        parts = []
        for z in h.diag:
            gram = HM.morita_gram(z, z0)
            parts.append(Q.qf([1, -1]) if gram is None else Q.diagonalize(gram))
        return _perp(*parts)

    def _check_phi_z0(self, a, ctx, w):
        x, z0 = ctx
        want = x.even.anis.perp(self._transfer_oracle(x.odd, z0))
        _require(Q.witt_equal(w.anis, want), "phi vs Gram-matrix transfer")
        return "ok"

    def _check_morita_transfer(self, a, ctx, q):
        h, z0 = ctx
        _require(q.dim == 2 * h.rank, "transfer dimension")
        _require(Q.witt_equal(q, self._transfer_oracle(h, z0)),
                 "transfer vs Gram-matrix transfer")
        return "ok"

    def _check_psi_split(self, a, ctx, img):
        x, conic = ctx
        A = x.algebra
        _require(img.dim == x.even.anis.dim + 2 * x.odd.rank, "psi dimension")
        # psi(x) at t = c is phi along the rational nilpotent omega_bar(c),
        # wherever no Trd(z omega_bar(c)) vanishes
        checked = 0
        for c in FF.good_points(img, 6):
            zc = A.pure(conic.x_t.evaluate(c), conic.y_t.evaluate(c),
                        Fraction(1))
            if any((z * zc).trd() == 0 for z in x.odd.diag):
                continue
            _require(Q.witt_equal(img.specialize(c), self._phi(x, zc)),
                     f"psi specialised at {c}")
            checked += 1
            if checked == 2:
                break
        _require(checked > 0, "no usable specialisation point")
        return "ok"

    def _check_residue(self, a, ctx, out):
        img, place = ctx
        first, second = out
        # psi-images are unramified away from the pole of the conic map
        _require(Q.witt_equal(second, EMPTY), "second residue of a psi-image")
        if place != "inf":
            c = Fraction(place)
            if all(e.value_at(c) != 0 for e in img.entries):
                _require(Q.witt_equal(first, img.specialize(c)),
                         "first residue at a good point")
        return "ok"

    def _check_mixed_equal(self, a, ctx, verdict):
        if self.workload == "division-certify":
            if verdict == "unknown":
                return "unknown"
            _require(verdict in ("equal", "distinct"), f"verdict {verdict!r}")
            if a["expect"] is not None:
                _require(verdict == a["expect"],
                         f"verdict {verdict}, expected {a['expect']}")
            return "ok"
        x, y = ctx
        z1 = self.fixed["alt_nilpotent"][(x.algebra.a, x.algebra.b)]
        same = Q.witt_equal(self._phi(x, z1), self._phi(y, z1))
        _require(verdict == ("equal" if same else "distinct"),
                 "verdict vs transfer along a second nilpotent")
        return "ok"

    def _check_kt_witt_equal(self, a, ctx, verdict):
        px, py = ctx
        _require(verdict == a["expect"],
                 f"verdict {verdict}, expected {a['expect']}")
        if verdict == "equal":
            for c in FF.good_points(px.perp(py), 3):
                _require(Q.witt_equal(px.specialize(c), py.specialize(c)),
                         f"specialisation at {c}")
        return "ok"

    def _check_is_constant_invariant(self, a, coeffs, res):
        if res.status == "unknown":
            return "unknown"
        _require(res.status == a["expect"], f"status {res.status}")
        if res.status == "constant":
            # chi(1; x0, x1, x2) = x0 + x2
            _require(Q.mixed_equal(res.value, coeffs[0] + coeffs[2]) == "equal",
                     "constant value")
        else:
            _require(res.witness == a["basis"], "nonconstancy witness")
        return "ok"

    def _check_certificate(self, a, h, cert):
        if cert.status != "hyperbolic":
            return "unknown"
        alg = (h.algebra.a, h.algebra.b)
        _require(len(cert.witness) == h.rank // 2, "witness size")
        zs = [list(z.coords) for z in h.diag]
        for x in cert.witness:
            for y in cert.witness:
                acc = [0, 0, 0, 0]
                for xk, zk, yk in zip(x, zs, y):
                    left = W.quat_mul(alg, W.quat_conj(list(xk.coords)), zk)
                    term = W.quat_mul(alg, left, list(yk.coords))
                    acc = [s + t for s, t in zip(acc, term)]
                _require(not any(acc), "witness is not totally isotropic")
        return "ok"
