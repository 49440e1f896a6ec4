"""Acceptance suite: one test per criterion, exact tolerances, one
PASS/FAIL line each (run with -s to see them).  Each criterion runs the
``flagtype verify`` suite of the same content, so every check has one
implementation."""

import time
from functools import cache

from flagtype import suites


def report(num, label, checks, t0, detail=""):
    """Assert that `checks` (suite check triples) is nonempty and all pass;
    the line names the failing ones."""
    ok = bool(checks) and all(c[1] for c in checks)
    parts = [detail] if detail else []
    parts += ["FAILED %s: %s" % (c[0], c[2]) for c in checks if not c[1]]
    parts.append("%.0fs" % (time.time() - t0))
    line = "[%s] criterion %-2d %s  -- %s" % ("PASS" if ok else "FAIL", num,
                                              label, "; ".join(parts))
    print(line)
    assert ok, line


def test_criterion_1_prop58_identities():
    t0 = time.time()
    res = suites.suite_prop58()
    report(1, "b-invariant relation identities (1000 triples per n,q)",
           res["checks"], t0)


def test_criterion_2_g_invariance():
    t0 = time.time()
    res = suites.suite_ginvariance()
    report(2, "b-invariants are G-invariant (33 random words per n,q)",
           res["checks"], t0)


def test_criterion_3_representative_roundtrip():
    t0 = time.time()
    res = suites.suite_roundtrip()
    report(3, "representative roundtrip, exhaustive b at n <= 4",
           res["checks"], t0)


def test_criterion_4_rv_generator_battery():
    t0 = time.time()
    res = suites.suite_rv_generators()
    report(4, "R_V generator battery over GF(5), all blocks populated",
           res["checks"], t0)


def test_criterion_5_bruhat_censuses():
    t0 = time.time()
    res = suites.suite_bruhat()
    report(5, "Bruhat censuses (P: n+1 cells, SO: parity split, G: 1)",
           res["checks"], t0)


def test_criterion_6_desk_scale_completeness():
    t0 = time.time()
    res = suites.suite_r_classes()
    report(6, "(n, q) in %r: |O_2n| exact, b-classes = R-orbits for every "
           "theta" % (suites.R_CLASS_CELLS,), res["checks"], t0)


@cache
def witness_checks():
    """The witnesses suite's checks: those of the square-class families
    (labels with "_sq") back criterion 8, the others criterion 7."""
    return suites.suite_witnesses()["checks"]


def test_criterion_7_witness_separation():
    t0 = time.time()
    report(7, "witness separations (O4 q=5; O6 families q=3/5)",
           [c for c in witness_checks() if "_sq" not in c[0]], t0)


def test_criterion_8_square_class_witnesses():
    t0 = time.time()
    report(8, "square-class witnesses (exactly 2 classes; certificates)",
           [c for c in witness_checks() if "_sq" in c[0]], t0)


def test_criterion_9_classifier_vs_census():
    t0 = time.time()
    res = suites.suite_censuses()
    report(9, "classifier vs census (q-stable counts iff finite)",
           res["checks"], t0)


def test_criterion_10_cor87_spot_checks():
    t0 = time.time()
    res = suites.suite_cor87()
    report(10, "appendix counting formula spot checks", res["checks"], t0,
           "; ".join("%s: %s" % (c[0], c[2]) for c in res["checks"]))
