import tracemalloc

import pytest

from flagtype.linalg import canonicalize, identity
from flagtype import witnesses
from flagtype.geometry import group_generators
from flagtype.flags import validate_tuple, act
from flagtype.engine import tuple_key
from flagtype.witnesses import (FAMILIES, build, equivariance_check,
                                separation_check,
                                family_classes)

from oracles import orbit


def test_all_families_validate_small_field():
    for fid, fam in FAMILIES.items():
        for q in (3, 5):
            lam = fam.lambda_domain(q, fam.n_min)[0]
            build(fid, fam.n_min, lam, q)  # validity asserted inside


def test_o4_l31_4_vectors():
    # U_{4,lambda} = <f1 + lam f3, f2 - lam f4> at n = 2 (f_i = e_i)
    ft = build("O4_L31_4", 2, 2, 5)
    u4 = ft[3][0]
    want = canonicalize(5, 4, [[1, 0, 2, 0], [0, 1, 0, -2]])
    assert u4 == want


def test_o6_l322_vectors():
    # U_+^{2,lambda} = <f1+f3, lam f2 + f3>
    ft = build("O6_L322_sq", 3, 2, 5)
    top = ft[2][1]
    want = canonicalize(5, 6, [[1, 0, 1, 0, 0, 0], [0, 2, 1, 0, 0, 0]])
    assert top == want
    v = ft[0][0]
    assert v == canonicalize(5, 6, [[0, 1, 0, 1, 0, 0],
                                    [0, 0, 1, 0, -1, 0],
                                    [0, 0, 0, 0, 0, 1]])


def test_o5_embedding_preserves_form():
    # phi uses the 1/2 coefficient; the built tuple must be valid over
    # every supported field and over the rationals
    ft = build("O5emb_L33p", 3, 1, 3)
    ft5 = build("O5emb_L33p", 3, 1, 5)
    first = ft5[0][0]
    assert first.dim == 1
    # over GF(5): e3 + (1/2) e4 = e3 + 3 e4 shows up in the first factor
    vec = first.rows[0]
    assert vec[2] == 1 and vec[3] == 3


def test_padding_at_larger_n():
    # O6_L32p at n = 4 pads each factor with U_[l]
    ft = build("O6_L32p", 4, 1, 3)
    comps = FAMILIES["O6_L32p"].comps
    assert validate_tuple(ft, comps, 4) is None
    # padded spaces contain e_1 up to the pad length... the first factor
    # has dim 2 and no padding is needed; dims already enforced by validate


def test_lambda_domain_and_errors():
    fam = FAMILIES["O4_L31_0"]
    assert fam.lambda_domain(5, 2) == [0, 1, 2, 3, 4]
    assert fam.lambda_domain(5, 3) == [0, 2, 3, 4]  # lambda != 1 once padded
    with pytest.raises(ValueError):
        build("O4_L31_0", 1, 0, 3)          # n too small
    with pytest.raises(ValueError):
        build("O6_L322_sq", 3, 0, 3)        # lambda outside F^x
    with pytest.raises(ValueError):
        build("O10_L323_sq", 4, 1, 3)       # n below minimum


def test_equivariance_identity_and_spec_example():
    cert = equivariance_check("O6_L322_sq", 2, 1, 5)
    assert cert["ok"] and cert["target"] == 2
    assert cert["g"] == identity(5, 6)
    cert = equivariance_check("O6_L322_sq", 1, 2, 5)
    assert cert["ok"] and cert["target"] == 4
    ft1 = build("O6_L322_sq", 3, 1, 5)
    ft4 = build("O6_L322_sq", 3, 4, 5)
    assert act(cert["g"], ft1) == ft4


SQUARE_CLASS_FAMILIES = [fid for fid, fam in FAMILIES.items()
                         if fam.relation == "square-class"]


@pytest.mark.parametrize("fid", SQUARE_CLASS_FAMILIES)
def test_diagonal_certificates_hold_for_every_lambda_and_c(fid):
    """Each square-class family's diagonal candidate carries m_lambda to
    m_{lambda/c^2} for every (lambda, c), at q in {3, 5, 7, 11, 13} at
    n_min and at q in {3, 5, 7} at n_min + 1: a certificate needs no orbit
    search."""
    fam = FAMILIES[fid]
    for n, qs in ((fam.n_min, (3, 5, 7, 11, 13)), (fam.n_min + 1, (3, 5, 7))):
        for q in qs:
            for lam in fam.lambda_domain(q, n):
                for c in range(1, q):
                    cert = equivariance_check(fid, lam, c, q, n)
                    assert cert["ok"], (n, q, lam, c, cert)
                    assert cert["target"] == lam * pow(c, -2, q) % q


def test_failing_candidate_is_reported_without_a_search(monkeypatch):
    """A wrong diagonal pattern gives ok False with its target; no orbit
    search runs in its place."""
    monkeypatch.setattr(FAMILIES["O6_L322_sq"], "equivariance",
                        lambda c, q: [c, c, c])
    for name in ("separation_check", "same_orbit", "stabilizer_orbits"):
        monkeypatch.setattr(witnesses, name,
                            lambda *a, **k: pytest.fail("a search ran"))
    cert = equivariance_check("O6_L322_sq", 1, 2, 5)
    assert not cert["ok"] and "g" not in cert
    assert (cert["lam"], cert["target"]) == (1, 4)


def test_separation_spec_examples():
    v, g = separation_check("O4_L31_4", 2, 3, 5)
    assert v == "No"
    v, g = separation_check("O4_L31_4", 2, 2, 5)
    assert v == "Yes" and g == identity(5, 4)
    # Lemma 3.2' permits collisions only within {mu, 1-mu}: mu = 3 differs
    v, g = separation_check("O6_L32p", 2, 3, 5)
    assert v == "No"
    v, _ = separation_check("O8_L32_i", 1, 2, 3)
    assert v == "Infeasible"


def test_family_classes_o4_q3():
    for i in range(5):
        classes, _ = family_classes("O4_L31_%d" % i, 3)
        assert len(classes) == 3  # all lambda in F_3 pairwise distinct


def tuple_bfs_classes(family_id, q):
    """Classes of {m_lambda} from the BFS orbit of each whole tuple."""
    fam = FAMILIES[family_id]
    n = fam.n_min
    lambdas = fam.lambda_domain(q, n)
    keys = {lam: tuple_key(build(family_id, n, lam, q)) for lam in lambdas}
    classes, done = [], set()
    for lam in lambdas:
        if lam in done:
            continue
        members, _ = orbit(build(family_id, n, lam, q),
                           group_generators(q, n), q)
        reached = {tuple_key(m) for m in members}
        cls = [mu for mu in lambdas if mu not in done and keys[mu] in reached]
        done.update(cls)
        classes.append(cls)
    return classes


@pytest.mark.parametrize("q", [3, 5])
def test_family_classes_match_tuple_bfs(q):
    for i in range(5):
        fid = "O4_L31_%d" % i
        assert family_classes(fid, q)[0] == tuple_bfs_classes(fid, q)


@pytest.mark.parametrize("q", [3, 5])
def test_family_classes_same_on_the_full_generating_set(q, monkeypatch):
    """The four-element set gives the same classes, in the same order, as
    all of ``group_generators`` for every family separable at n_min."""
    fids = [fid for fid, fam in FAMILIES.items() if fam.separable_at(fam.n_min)]
    assert len(fids) == 11
    small = {fid: family_classes(fid, q) for fid in fids}
    monkeypatch.setattr(witnesses, "small_generators", group_generators)
    assert {fid: family_classes(fid, q) for fid in fids} == small


def test_square_class_partition_q3():
    classes, _ = family_classes("O6_L322_sq", 3)
    assert sorted(map(sorted, classes)) == [[1], [2]]


def test_family_classes_o6_q5_memory():
    """The q=5 classes of O6_L32p come from one stabilizer chain whose
    levels keep Schreier vectors: well under 100 MB of allocations, where
    one stored permutation of all points per orbit point took about 500 MB.
    """
    tracemalloc.start()
    try:
        classes, _ = family_classes("O6_L32p", 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert classes == [[0], [1], [2, 4], [3]]
    assert peak < 100 * 2 ** 20
