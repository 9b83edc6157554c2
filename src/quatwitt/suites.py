"""Named verification suites with deterministic machine-readable reports.

Each suite exercises one slice of the library against independent
formulations (closed forms, brute-force searches, specialization oracles).
Semi-decision outcomes are reported as "unknown" and never fail a suite.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb
from typing import Dict, List, Optional

from . import polys as P
from .errors import UnknownSuite, quoted
from .funcfield import (
    FunctionFieldForm,
    Place,
    conic_parametrize,
    ff_class,
    ff_form,
    good_points,
    kernel_generator,
    kt_witt_equal,
    psi_split,
    residue,
    conic_w0_places,
    w0_membership,
)
from .hermitian import (
    DEFAULT_SEARCH_BOUND,
    AntiHermForm,
    check_search_bound,
    hyperbolicity_certificate,
    morita_gram,
    morita_transfer,
)
from .invariants import (
    LambdaInvariant,
    chi,
    int_multiple,
    is_constant_invariant,
    invariant_equal,
    lambda_all,
    lambda_basis_invariant,
    n_q_class,
    n_q_mixed,
    versal_sample_check,
)
from .mixed import (
    MixedClass,
    closed_form_diag,
    mixed,
    mixed_equal,
    phi_z0,
    twisted_trace_form,
)
from .quadforms import (
    QuadForm,
    diagonalize,
    hyperbolic,
    is_isotropic,
    is_witt_zero,
    qf,
    witt_class,
    witt_equal,
    witt_zero,
)
from .quaternions import QuatAlgebra, draw_pure, find_nilpotent
from .record import Record

DIVISION_ALGEBRAS = [(-1, -1)]
SPLIT_ALGEBRAS = [(1, 1), (2, 7), (5, -1)]


# Neither RunConfig nor Report has a hash: a report's cases grow in place.
class RunConfig(Record):
    __slots__ = ("seed", "search_bound")
    __hash__ = None

    def __init__(self, seed: int = 0,
                 search_bound: int = DEFAULT_SEARCH_BOUND):
        check_search_bound("search_bound", search_bound)
        self.seed = seed
        self.search_bound = search_bound


class Report(Record):
    """The cases of one suite run; `cases` is a fresh list by default."""

    __slots__ = ("suite", "cases")
    __hash__ = None

    def __init__(self, suite: str, cases: Optional[List[dict]] = None):
        self.suite = suite
        self.cases = [] if cases is None else cases

    @property
    def totals(self) -> Dict[str, int]:
        t = {"pass": 0, "fail": 0, "unknown": 0}
        for c in self.cases:
            t[c["status"]] += 1
        return t

    @property
    def exit_code(self) -> int:
        return 1 if self.totals["fail"] else 0

    def finish(self) -> "Report":
        self.cases.sort(key=lambda c: c["id"])
        return self

    def to_json(self) -> str:
        doc = {"suite": self.suite, "totals": self.totals, "cases": self.cases}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        t = self.totals
        lines = [f"suite {self.suite}: {t['pass']} pass, {t['fail']} fail, "
                 f"{t['unknown']} unknown"]
        for c in self.cases:
            if c["status"] != "pass":
                line = f"  [{c['status']}] {c['id']}"
                if c.get("witness"):
                    line += f": {c['witness']}"
                lines.append(line)
        return "\n".join(lines) + "\n"


def _case(cases: List[dict], cid: str, ok: Optional[bool],
          witness: Optional[str] = None):
    status = "unknown" if ok is None else ("pass" if ok else "fail")
    c = {"id": cid, "status": status}
    if witness is not None:
        c["witness"] = witness
    cases.append(c)


def _rand_form(rng: random.Random, dim: int, bound: int) -> QuadForm:
    vals = []
    while len(vals) < dim:
        v = rng.randint(-bound, bound)
        if v:
            vals.append(v)
    return qf(vals)


def _rand_mixed(rng: random.Random, A: QuatAlgebra,
                odd_rank: int = 1) -> MixedClass:
    even = witt_class(_rand_form(rng, rng.randint(0, 2), 10)) \
        if rng.random() < 0.8 else witt_zero()
    odd = tuple(draw_pure(rng, A, 5) for _ in range(odd_rank))
    return mixed(A, even=even, odd_entries=odd)


# ---------------------------------------------------------------------------
# brute-force isotropy oracle (independent of the library search)


def _brute_zero(reps, bound: int):
    n = len(reps)
    pos = [i for i in range(n) if reps[i] > 0]
    neg = [i for i in range(n) if reps[i] < 0]
    if not pos or not neg:
        return None
    table = {}
    for c in itertools.product(range(bound + 1), repeat=len(pos)):
        s = sum(reps[i] * v * v for i, v in zip(pos, c))
        if s:
            table.setdefault(s, c)
    for c in itertools.product(range(bound + 1), repeat=len(neg)):
        s = -sum(reps[i] * v * v for i, v in zip(neg, c))
        if s and s in table:
            vec = [0] * n
            for i, v in zip(pos, table[s]):
                vec[i] = v
            for i, v in zip(neg, c):
                vec[i] = v
            return vec
    return None


# ---------------------------------------------------------------------------
# suites


def _suite_products(cfg: RunConfig) -> Report:
    rep = Report("products")
    rng = random.Random(cfg.seed)
    for a, b in DIVISION_ALGEBRAS + SPLIT_ALGEBRAS[:2]:
        A = QuatAlgebra(a, b)
        for k in range(170):
            z1, z2 = draw_pure(rng, A, 9), draw_pure(rng, A, 9)
            tt = twisted_trace_form(z1, z2)
            ok = witt_equal(tt, closed_form_diag(z1, z2))
            if (z1 * z2).trd() == 0:
                ok = ok and is_witt_zero(tt)
            _case(rep.cases, f"products/trace-vs-closed/{a}_{b}/{k:04d}", ok,
                  None if ok else f"z1={z1!r} z2={z2!r}")
    for k in range(500):
        q = _rand_form(rng, rng.randint(1, 5), 30)
        ok = witt_class(q.perp(q.neg())).is_zero()
        _case(rep.cases, f"products/self-cancel/{k:04d}", ok,
              None if ok else repr(q))
    for k in range(200):
        q = _rand_form(rng, rng.randint(2, 4), 20)
        verdict = is_isotropic(q)
        vec = _brute_zero(q.reps(), 12)
        if verdict and vec is None:
            vec = _brute_zero(q.reps(), 60)
        if vec is not None:
            ok = verdict and sum(r * v * v for r, v in zip(q.reps(), vec)) == 0
        else:
            ok = not verdict
        _case(rep.cases, f"products/hasse-minkowski/{k:04d}", ok,
              None if ok else f"{q!r} verdict={verdict} vec={vec}")
    return rep.finish()


def _suite_morita(cfg: RunConfig) -> Report:
    rep = Report("morita")
    rng = random.Random(cfg.seed)
    for a, b in SPLIT_ALGEBRAS:
        A = QuatAlgebra(a, b)
        z0 = find_nilpotent(A)
        for k in range(200):
            z = draw_pure(rng, A, 9)
            h = AntiHermForm((z,), A)
            q = morita_transfer(h, z0)
            t = (z * z0).trd()
            if t == 0:
                ok = witt_equal(q, hyperbolic(1))
            else:
                expected = qf([-t, t * (-z.nrd())])
                ok = witt_equal(q, expected) and q.dim == 2
                gram = morita_gram(z, z0)
                ok = ok and witt_equal(diagonalize(gram), q)
            _case(rep.cases, f"morita/transfer/{a}_{b}/{k:04d}", ok,
                  None if ok else f"z={z!r}")
    return rep.finish()


def _suite_lambda(cfg: RunConfig) -> Report:
    rep = Report("lambda")
    rng = random.Random(cfg.seed)
    for a, b in DIVISION_ALGEBRAS + SPLIT_ALGEBRAS[:1]:
        A = QuatAlgebra(a, b)
        for k in range(120):
            z = draw_pure(rng, A, 9)
            h = AntiHermForm((z,), A)
            lam = lambda_all(h)
            ok = (
                lam[0].even == witt_class(qf([1]))
                and lam[0].odd.rank == 0
                and lam[1].even.is_zero()
                and lam[1].odd.diag == (z,)
                and lam[2].even == witt_class(qf([z.nrd()]))
                and lam[2].odd.rank == 0
            )
            _case(rep.cases, f"lambda/determinant/{a}_{b}/{k:04d}", ok,
                  None if ok else f"z={z!r}")
    # sum formula on rank-2 forms, even-decidable slices
    A = QuatAlgebra(-1, -1)
    for k in range(100):
        z1, z2 = draw_pure(rng, A, 5), draw_pure(rng, A, 5)
        h1 = AntiHermForm((z1,), A)
        h2 = AntiHermForm((z2,), A)
        h = h1.perp(h2)
        lam1, lam2, lam = lambda_all(h1), lambda_all(h2), lambda_all(h)
        ok = True
        for d in range(5):
            total = mixed(A)
            for i in range(max(0, d - 2), min(d, 2) + 1):
                total = total + lam1[i] * lam2[d - i]
            lhs = lam[d]
            if d % 2 == 0:
                ok = ok and lhs.even == total.even
            else:
                ok = ok and mixed_equal(
                    lhs, total, search_bound=cfg.search_bound) != "distinct"
        _case(rep.cases, f"lambda/sum-formula/{k:04d}", ok)
    return rep.finish()


def _suite_relations(cfg: RunConfig) -> Report:
    rep = Report("relations")
    rng = random.Random(cfg.seed)
    for a, b in [(-1, -1), (1, 1)]:
        A = QuatAlgebra(a, b)
        nq_mixed = n_q_mixed(A)
        for r in (1, 2, 3):
            for k in range(50):
                h = AntiHermForm(
                    tuple(draw_pure(rng, A, 6) for _ in range(r)), A
                )
                lam = lambda_all(h)
                for i in range(r + 1):
                    val = nq_mixed * lam[2 * i]
                    target = int_multiple(comb(r, i), nq_mixed)
                    ok = val.even == target.even and val.odd.rank == 0
                    _case(rep.cases,
                          f"relations/even/{a}_{b}/r{r}/i{i}/{k:04d}", ok,
                          None if ok else f"h={h!r}")
    # curated odd-degree hyperbolicity certificates over the division algebra
    A = QuatAlgebra(-1, -1)
    nq = n_q_class(A)
    curated = [A.i(), A.i() + A.j(), A.i() + A.j() + A.ij()]
    for idx, z in enumerate(curated):
        h = AntiHermForm(tuple(z.scale(c) for c in nq.anis.reps()), A)
        cert = hyperbolicity_certificate(h, bound=cfg.search_bound)
        ok = cert.status == "hyperbolic"
        _case(rep.cases, f"relations/odd-curated/{idx}", ok,
              None if ok else cert.status)
    # presentation relations n_Q lambda^{2i} = C(r,i) n_Q lambda^0
    for a, b in [(-1, -1), (1, 1)]:
        A = QuatAlgebra(a, b)
        for r in (1, 2, 3):
            for i in range(r + 1):
                alpha = lambda_basis_invariant(r, 2 * i, A, scale=n_q_mixed(A))
                beta = lambda_basis_invariant(
                    r, 0, A, scale=int_multiple(comb(r, i), n_q_mixed(A))
                )
                verdict = invariant_equal(alpha, beta,
                                          search_bound=cfg.search_bound)
                _case(rep.cases, f"relations/presentation/{a}_{b}/r{r}/i{i}",
                      True if verdict == "equal" else
                      (None if verdict == "unknown" else False),
                      None if verdict == "equal" else verdict)
    return rep.finish()


def _suite_constancy(cfg: RunConfig) -> Report:
    rep = Report("constancy")
    rng = random.Random(cfg.seed)
    A = QuatAlgebra(-1, -1)
    nqf = n_q_class(A).anis
    for k in range(100):
        coeffs = [_rand_mixed(rng, A, odd_rank=0)]
        for _d in range(1, 3):
            y = _rand_form(rng, rng.randint(0, 1), 10)
            cls = witt_class(nqf.tensor(y)) if y.dim else witt_zero()
            coeffs.append(mixed(A, even=cls))
        alpha = LambdaInvariant(1, tuple(coeffs))
        res = is_constant_invariant(alpha, search_bound=cfg.search_bound)
        ok = res.status == "constant"
        value = None
        if ok:
            value = chi(1, coeffs)
            ok = mixed_equal(res.value, value,
                             search_bound=cfg.search_bound) == "equal"
        _case(rep.cases, f"constancy/membership/{k:04d}", ok,
              None if ok else res.status)
        if ok:
            check = versal_sample_check(alpha, value, n_samples=50,
                                        seed=cfg.seed + k, height=6)
            _case(rep.cases, f"constancy/versal/{k:04d}",
                  check.status == "consistent",
                  None if check.status == "consistent" else str(check.point))
    # a non-constant invariant must be flagged with its witness index
    for idx, d in enumerate((1, 2)):
        alpha = lambda_basis_invariant(1, d, A)
        res = is_constant_invariant(alpha, search_bound=cfg.search_bound)
        _case(rep.cases, f"constancy/nonconstant/{idx}",
              res.status == "nonconstant" and res.witness == d,
              None if res.status == "nonconstant" else res.status)
    return rep.finish()


def _suite_splitting(cfg: RunConfig) -> Report:
    rep = Report("splitting")
    rng = random.Random(cfg.seed)
    # phi_z0 multiplicativity
    for a, b in SPLIT_ALGEBRAS[:2]:
        A = QuatAlgebra(a, b)
        z0 = find_nilpotent(A)
        for k in range(100):
            x = _rand_mixed(rng, A)
            y = _rand_mixed(rng, A)
            lhs = phi_z0(x * y, z0)
            rhs = phi_z0(x, z0) * phi_z0(y, z0)
            _case(rep.cases, f"splitting/phi-mult/{a}_{b}/{k:04d}",
                  lhs == rhs)
    # psi kernel and images
    for a, b in SPLIT_ALGEBRAS[:2]:
        A = QuatAlgebra(a, b)
        conic = conic_parametrize(A)
        nqm = n_q_mixed(A)
        _case(rep.cases, f"splitting/psi-nq/{a}_{b}",
              kt_witt_equal(psi_split(nqm, conic), ff_form([])))
        gen = kernel_generator(A)
        _case(rep.cases, f"splitting/psi-kernel-gen/{a}_{b}",
              kt_witt_equal(psi_split(gen, conic), ff_form([])))
        ij_cls = mixed(A, odd_entries=(A.ij(),))
        even_img = mixed(A, even=kernel_generator(A).even)
        _case(rep.cases, f"splitting/psi-ij/{a}_{b}",
              kt_witt_equal(psi_split(ij_cls, conic),
                            psi_split(even_img, conic)))
        for k in range(100):
            x = _rand_mixed(rng, A)
            img = psi_split(x, conic)
            _case(rep.cases, f"splitting/psi-w0/{a}_{b}/{k:04d}",
                  w0_membership(img, conic_w0_places(img, conic)))
        for k in range(25):
            x = _rand_mixed(rng, A)
            y = _rand_mixed(rng, A)
            ok = kt_witt_equal(psi_split(x * y, conic),
                               psi_split(x, conic).tensor(psi_split(y, conic)))
            _case(rep.cases, f"splitting/psi-mult/{a}_{b}/{k:04d}", ok)
    # residue calculus
    irreducibles = [P.poly([0, 1]), P.poly([-1, 1]), P.poly([2, 1]),
                    P.poly([1, 0, 1]), P.poly([-2, 0, 1])]

    def rand_ff(dim):
        entries = []
        for _ in range(dim):
            u = 0
            while not u:
                u = rng.randint(-10, 10)
            entries.append(ff_class(u, [(f, 1) for f in irreducibles
                                        if rng.random() < 0.4]))
        return FunctionFieldForm(tuple(entries))

    deg1_places = [Place("poly", pi=pi) for pi in irreducibles
                   if P.degree(pi) == 1] + [Place("infinite")]
    for k in range(200):
        q1 = rand_ff(rng.randint(1, 3))
        q2 = rand_ff(rng.randint(1, 3))
        v = deg1_places[rng.randrange(len(deg1_places))]
        lhs = residue(q1.perp(q2), v)
        rhs = residue(q1, v) + residue(q2, v)
        ok = lhs == rhs
        # group-ring multiplicativity against a unit-diagonal form
        units = ff_form([rng.choice([2, 3, 5, -1, 7])
                         for _ in range(rng.randint(1, 2))])
        lhs2 = residue(q1.tensor(units), v)
        rhs2 = residue(q1, v) * residue(units, v)
        ok = ok and lhs2 == rhs2
        _case(rep.cases, f"splitting/residue/{k:04d}", ok,
              None if ok else f"{q1!r} at {v!r}")
    # kt_witt_equal against the specialization oracle
    for k in range(100):
        q1 = rand_ff(rng.randint(1, 3))
        if k % 2 == 0:
            # equal by construction: square scaling plus a hyperbolic pad
            f = irreducibles[rng.randrange(len(irreducibles))]
            q2 = q1.perp(ff_form([f, P.pneg(f)]))
            expected = True
        else:
            q2 = q1.perp(ff_form([rng.choice([3, 5, 7])]))
            expected = False
        got = kt_witt_equal(q1, q2)
        ok = got == expected
        diff = q1.perp(q2.neg())
        pts = good_points(diff, 5)
        agree = [witt_equal(q1.specialize(c), q2.specialize(c)) for c in pts]
        if got:
            ok = ok and all(agree)
        else:
            ok = ok and not all(agree)
        _case(rep.cases, f"splitting/kt-oracle/{k:04d}", ok,
              None if ok else f"expected={expected} got={got}")
    return rep.finish()


SUITES = {
    "products": _suite_products,
    "morita": _suite_morita,
    "lambda": _suite_lambda,
    "relations": _suite_relations,
    "constancy": _suite_constancy,
    "splitting": _suite_splitting,
}


def run_suite(name: str, cfg: Optional[RunConfig] = None) -> Report:
    cfg = cfg or RunConfig()
    if name == "all":
        rep = Report("all")
        for sub in sorted(SUITES):
            rep.cases.extend(SUITES[sub](cfg).cases)
        return rep.finish()
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {quoted(name)}")
    return SUITES[name](cfg)


def emit_report(rep: Report, mode: str = "text") -> str:
    return rep.to_json() if mode == "json" else rep.to_text()
