"""Acceptance checks.

Each test exercises one top-level guarantee of the library and prints a
single pass/fail line. All arithmetic is exact; tolerance is zero. The
heavy lifting is shared: every verification suite runs once per session
and the criteria inspect its cases.
"""

import hashlib
import json
import sys
import time

import pytest

from quatwitt import suites
from quatwitt.suites import RunConfig, Report, _case, emit_report, run_suite

_CACHE = {}
_TIMES = {}


def _suite(name):
    if name not in _CACHE:
        t0 = time.monotonic()
        _CACHE[name] = run_suite(name, RunConfig())
        _TIMES[name] = time.monotonic() - t0
    return _CACHE[name]


def _select(rep, prefix):
    return [c for c in rep.cases if c["id"].startswith(prefix)]


def _verdict(capsys, name, ok):
    with capsys.disabled():
        sys.stdout.write(f"\nACCEPTANCE {name}: {'pass' if ok else 'FAIL'}\n")
        sys.stdout.flush()
    assert ok, name


def _all_pass(cases, minimum):
    return (len(cases) >= minimum
            and all(c["status"] == "pass" for c in cases))


def test_criterion_1_product_cross_check(capsys):
    """Twisted trace form vs the closed-form odd product, 500+ pairs."""
    rep = _suite("products")
    cases = _select(rep, "products/trace-vs-closed/")
    ok = _all_pass(cases, 500) and _TIMES["products"] < 30.0
    _verdict(capsys, "product-cross-check", ok)


def test_criterion_2_morita_transfer(capsys):
    rep = _suite("morita")
    cases = _select(rep, "morita/transfer/")
    algebras = {c["id"].split("/")[2] for c in cases}
    ok = _all_pass(cases, 600) and len(algebras) >= 3
    _verdict(capsys, "morita-transfer", ok)


def test_criterion_3_lambda_determinant(capsys):
    rep = _suite("lambda")
    cases = _select(rep, "lambda/determinant/")
    algebras = {c["id"].split("/")[2] for c in cases}
    division = any(a.startswith("-") for a in algebras)
    ok = _all_pass(cases, 200) and division and len(algebras) >= 2
    _verdict(capsys, "lambda-determinant", ok)


def test_criterion_4_relations(capsys):
    rep = _suite("relations")
    even = _select(rep, "relations/even/")
    odd = _select(rep, "relations/odd-curated/")
    pres = _select(rep, "relations/presentation/")
    ok = (_all_pass(even, 50) and _all_pass(odd, 3)
          and _all_pass(pres, 1))
    _verdict(capsys, "relations", ok)


def test_criterion_5_constancy(capsys):
    rep = _suite("constancy")
    member = _select(rep, "constancy/membership/")
    versal = _select(rep, "constancy/versal/")
    nonconst = _select(rep, "constancy/nonconstant/")
    ok = (_all_pass(member, 100) and _all_pass(versal, 100)
          and _all_pass(nonconst, 1))
    _verdict(capsys, "chi-constancy", ok)


def test_criterion_6_phi_psi(capsys):
    rep = _suite("splitting")
    phi = _select(rep, "splitting/phi-mult/")
    kernel = (_select(rep, "splitting/psi-nq/")
              + _select(rep, "splitting/psi-kernel-gen/")
              + _select(rep, "splitting/psi-ij/"))
    w0 = _select(rep, "splitting/psi-w0/")
    mult = _select(rep, "splitting/psi-mult/")
    ok = (_all_pass(phi, 200) and _all_pass(kernel, 6)
          and _all_pass(w0, 100) and _all_pass(mult, 1))
    _verdict(capsys, "phi-psi", ok)


def test_criterion_7_witt_decision(capsys):
    rep = _suite("products")
    cancel = _select(rep, "products/self-cancel/")
    hm = _select(rep, "products/hasse-minkowski/")
    ok = _all_pass(cancel, 500) and _all_pass(hm, 200)
    _verdict(capsys, "witt-decision", ok)


def test_criterion_8_residue_calculus(capsys):
    rep = _suite("splitting")
    res = _select(rep, "splitting/residue/")
    oracle = _select(rep, "splitting/kt-oracle/")
    # an oracle disagreement is a hard failure
    ok = (_all_pass(res, 200) and len(oracle) >= 100
          and not any(c["status"] == "fail" for c in oracle)
          and sum(c["status"] == "pass" for c in oracle) >= 100)
    _verdict(capsys, "residue-calculus", ok)


# SHA-256 of emit_report(run_suite(name, RunConfig()), "json") per suite,
# recorded at commit 9e3ec20.  `check all --output json` is assembled from
# the cases of these six reports.
SUITE_DIGESTS = {
    "products":
        "137299aeb561ae97303eb27c416bb362a9274afabd951e2bd2b66d4024979d76",
    "morita":
        "502a6deb907a3558be9e5353736e8de5d1bf52df7b60bbb12e66398b86e950d3",
    "lambda":
        "9f4fa2f5bad01caae4da41916ff7a61d6f044c7ebdc94c4f24d9b5efd33f9a01",
    "relations":
        "ce619442c035a35fb0faad5f17dd03679b01139ad012ae871f0f1834a49f14b3",
    "constancy":
        "df89f981dcfb7b9edc12022b5e287fab82a1a0f012160d8809af231dbd59683d",
    "splitting":
        "f5f8b1fa69f9254fb344e21685c7a9b872246575d4a4c1786f7d5c132e409fa1",
}


def test_suite_reports_match_recorded_digests():
    """Every suite report is byte-identical to the recorded one; the
    reports come from the session cache, so no suite runs twice."""
    for name, digest in SUITE_DIGESTS.items():
        report = emit_report(_suite(name), "json")
        assert hashlib.sha256(report.encode()).hexdigest() == digest, name


# SHA-256 of `quatwitt check all --output json`, which CI also checks
ALL_DIGEST = "8c6efee50bb9d02cf34fd3a4cd42ab0cbc8e61f4802a3fadaeceffecb81ca5d7"


def test_the_all_report_joins_the_suite_reports(monkeypatch):
    """run_suite("all") puts the six suites' cases together in name order
    into the report `check all` prints; the suites come from the session
    cache, so none runs again."""
    monkeypatch.setattr(suites, "SUITES", {
        name: (lambda cfg, name=name: _suite(name)) for name in SUITE_DIGESTS})
    report = emit_report(run_suite("all"), "json")
    assert hashlib.sha256(report.encode()).hexdigest() == ALL_DIGEST


@pytest.mark.parametrize("verdict, status, code",
                         [("unknown", "unknown", 0), ("distinct", "fail", 1)])
def test_relations_report_a_presentation_verdict_other_than_equal(
        monkeypatch, verdict, status, code):
    """A presentation relation whose `invariant_equal` verdict is not
    "equal" is reported as unknown or failed, with the verdict as its
    witness; only a failure sets the exit code."""
    monkeypatch.setattr(suites, "invariant_equal", lambda *a, **k: verdict)
    rep = run_suite("relations")
    presentation = _select(rep, "relations/presentation/")
    assert len(presentation) == 18
    assert all(c["status"] == status and c["witness"] == verdict
               for c in presentation)
    assert all(c["status"] == "pass" for c in rep.cases
               if c not in presentation)
    assert rep.exit_code == code


def test_reports_are_deterministic():
    cfg = RunConfig(seed=1)
    one = emit_report(run_suite("morita", cfg), "json")
    two = emit_report(run_suite("morita", cfg), "json")
    assert one == two


def test_report_edge_cases():
    rep = Report(suite="empty")
    rep.finish()
    assert rep.totals == {"pass": 0, "fail": 0, "unknown": 0}
    assert rep.exit_code == 0
    text = emit_report(rep, "text")
    assert "0 fail" in text
    doc = json.loads(emit_report(rep, "json"))
    assert doc["cases"] == []


def test_report_text_lists_cases_that_did_not_pass():
    """Failed and unknown cases are listed with their witness, when they
    carry one; passed cases are only counted."""
    rep = Report(suite="demo")
    _case(rep.cases, "c", None, "bound 8")
    _case(rep.cases, "a", True)
    _case(rep.cases, "b", False, "h=<i>")
    _case(rep.cases, "d", False)
    rep.finish()
    assert rep.to_text() == ("suite demo: 1 pass, 2 fail, 1 unknown\n"
                             "  [fail] b: h=<i>\n"
                             "  [unknown] c: bound 8\n"
                             "  [fail] d\n")
