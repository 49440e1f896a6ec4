import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagtype import canonical
from flagtype.linalg import Mat, canonicalize, identity, mat_mul, \
    act_on_subspace, sc, solve, kernel, full_space, RATIONAL
from flagtype.geometry import (standard_isotropic, random_isotropic,
                               random_group_element, is_isotropic,
                               classify_element, NOT_ORTHOGONAL)
from flagtype.invariants import BInvariants, b_invariants, theta, \
    ThetaInvariants
from flagtype.canonical import (IndexLayout, standard_pair, representative,
                                enumerate_valid_b, enumerate_thetas,
                                normalize_pair, h_block, h15,
                                rv_transvection, eliminate,
                                check_rv_membership, sp_prime_generators,
                                in_sp_prime, sp_form_matrix, PLUS_BLOCKS,
                                EXCLUDED_PAIRS, COMPENSATED_PAIRS,
                                block_precedes, _PairingSystem)
from flagtype.suites import full_blocks_layout


def test_standard_pair_examples():
    n, q = 3, 3
    t = ThetaInvariants(n, n, 0, 0, 0)
    su, sm = standard_pair(t, q)
    assert su == sm == standard_isotropic(q, n, 0)
    t = ThetaInvariants(n, 0, 0, 0, n)
    su, sm = standard_pair(t, q)
    assert su == standard_isotropic(q, n, 0)
    assert sm == standard_isotropic(q, n, n)
    t = ThetaInvariants(3, 1, 1, 0, 1)
    su, sm = standard_pair(t, q)
    assert theta(su, sm, 3) == t


def test_layout_partitions():
    lay = full_blocks_layout()
    # plus blocks partition I+ and tilde sets partition 1..2n (asserted in
    # the constructor); spot-check the audit dump shape
    audit = lay.audit()
    assert sorted(audit["I"]) == list(range(1, 16))
    assert set(audit["plus_blocks"]) == set(PLUS_BLOCKS)


def test_representative_examples():
    # b1 = n, rest 0 -> U_0
    for n in (2, 3, 4):
        b = BInvariants([n] + [0] * 14)
        assert representative(b, n, 3) == standard_isotropic(3, n, 0)
    # n = 2, b15 = 2: V = span{e1+e3, e4-e2}
    b = BInvariants([0] * 14 + [2])
    v = representative(b, 2, 3)
    assert v == canonicalize(3, 4, [[1, 0, 1, 0], [0, -1, 0, 1]])
    assert is_isotropic(v, 2)


def test_representative_roundtrip_exhaustive_n3():
    q = 3
    for n in (1, 2, 3):
        for t in enumerate_thetas(n):
            su, sm = standard_pair(t, q)
            for b in enumerate_valid_b(t):
                v = representative(b, n, q)
                assert v.dim == n and is_isotropic(v, n)
                bb, tt = b_invariants(su, sm, v, n)
                assert bb == b and tt == t


def test_valid_b_enumeration_consistency():
    for n in (2, 3):
        for t in enumerate_thetas(n):
            bs = enumerate_valid_b(t)
            assert len(set(bs)) == len(bs)
            from flagtype.invariants import verify_relations
            for b in bs:
                assert verify_relations(b, t) == []


def test_normalize_pair_standard_and_random():
    n, q = 3, 5
    u0 = standard_isotropic(q, n, 0)
    un = standard_isotropic(q, n, n)
    g = normalize_pair(u0, un, n)
    assert act_on_subspace(g, u0) == u0 and act_on_subspace(g, un) == un
    rng = random.Random(0)
    for _ in range(60):
        nn = rng.choice([2, 3, 4])
        qq = rng.choice([3, 5])
        h = random_group_element(qq, nn, rng)
        up = act_on_subspace(h, standard_isotropic(qq, nn, 0))
        um = act_on_subspace(h, standard_isotropic(qq, nn,
                                                   rng.randrange(nn + 1)))
        normalize_pair(up, um, nn)  # postconditions asserted inside
        up = random_isotropic(qq, nn, rng.randrange(nn + 1), rng)
        um = random_isotropic(qq, nn, rng.randrange(nn + 1), rng)
        normalize_pair(up, um, nn)


def test_normalize_pair_rational():
    # the rational path works when the residual split part stays small
    n = 2
    up = canonicalize(0, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    um = canonicalize(0, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    g = normalize_pair(up, um, n)
    assert classify_element(g, n) != NOT_ORTHOGONAL


def test_normalize_pair_checks_catch_a_wrong_frame(monkeypatch):
    """Neither check of normalize_pair is vacuous.  U+^f and U-^f placed on
    each other's positions make an orthogonal frame that misplaces the
    pair; partners scaled by 2 make a frame that is not orthogonal."""
    n, q = 2, 3
    h = random_group_element(q, n, random.Random(7))
    # theta (1, 0, 0, 1, 0): d = 1 places one partner, a1 = 1 one U^f pair
    up, um = (act_on_subspace(h, canonicalize(q, 4, rows)) for rows in
              ([[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]]))
    normalize_pair(up, um, n)
    positions = canonical.theta_positions
    isotropize = canonical._isotropize

    def swapped(t):
        pos = dict(positions(t))
        pos["up"], pos["um"] = pos["um"], pos["up"]
        return pos

    with monkeypatch.context() as m:
        m.setattr(canonical, "theta_positions", swapped)
        with pytest.raises(AssertionError, match="postcondition failed"):
            normalize_pair(up, um, n)
    with monkeypatch.context() as m:
        m.setattr(canonical, "_isotropize", lambda q, n, v, w: tuple(
            2 * x % q for x in isotropize(q, n, v, w)))
        with pytest.raises(AssertionError, match="non-orthogonal"):
            normalize_pair(up, um, n)


def test_rv_generator_identity_cases():
    q = 5
    lay = full_blocks_layout()
    for j in (1, 7, 12, 14):
        g = h_block(lay, j, identity(q, lay.b[j]), q)
        check_rv_membership(lay, g, q)
        assert g == identity(q, 2 * lay.n)
    i = lay.plus["1"][0]
    k = lay.plus["3"][0]
    g = rv_transvection(lay, i, k, 0, q)
    check_rv_membership(lay, g, q)
    assert g == identity(q, 2 * lay.n)


@pytest.mark.parametrize("q", [0, 3, 5])
def test_rv_generator_block_pairs(q):
    rng = random.Random(1)
    lay = full_blocks_layout()
    n = lay.n
    one = identity(q, 2 * n)
    count = 0
    for bi in PLUS_BLOCKS:
        for bk in PLUS_BLOCKS:
            if bi == bk or not block_precedes(bi, bk):
                continue
            if (bi, bk) in EXCLUDED_PAIRS and \
                    (bi, bk) not in COMPENSATED_PAIRS:
                with pytest.raises(ValueError):
                    rv_transvection(lay, lay.plus[bi][0], lay.plus[bk][0],
                                    1, q)
                continue
            i, k = lay.plus[bi][0], lay.plus[bk][0]
            mu = rng.randrange(1, q) if q else Fraction(rng.randrange(1, 7), 3)
            g = rv_transvection(lay, i, k, mu, q)
            check_rv_membership(lay, g, q)
            # g e_k = e_k + mu e_i, and g - 1 lives on the blocks' tilde sets
            want = [sc(q, 0)] * (2 * n)
            want[k - 1] = sc(q, 1)
            want[i - 1] = sc(q, mu)
            assert [row[k - 1] for row in g.rows] == want
            t_set = {*lay.tilde(bi), *lay.tilde(bk)}
            assert all(r in t_set and c in t_set
                       for r in range(1, 2 * n + 1)
                       for c in range(1, 2 * n + 1)
                       if g.rows[r - 1][c - 1] != one.rows[r - 1][c - 1])
            count += 1
    assert count >= 30
    # non-comparable pair is rejected
    with pytest.raises(ValueError):
        rv_transvection(lay, lay.plus["10"][0], lay.plus["9"][0], 1, q)


def test_compensated_action_matches_citation():
    # case (ii): g e_k = e_k + mu e_i and g e_{bar eta8(i)} picks up
    # -mu e_{bar kappa(k)}
    q = 5
    lay = full_blocks_layout()
    n = lay.n
    i = lay.I[8][0]
    k = lay.I[12][0]
    mu = 2
    g = rv_transvection(lay, i, k, mu, q)
    check_rv_membership(lay, g, q)
    from flagtype.geometry import bar
    col = [g.rows[r][k - 1] for r in range(2 * n)]
    want = [0] * (2 * n)
    want[k - 1] = 1
    want[i - 1] = mu
    assert col == want
    cc = bar(lay.eta[8][i], n)
    col = [g.rows[r][cc - 1] for r in range(2 * n)]
    want = [0] * (2 * n)
    want[cc - 1] = 1
    want[bar(lay.kappa[k], n) - 1] = (-mu) % q
    assert col == want


def test_h15_and_sp_membership():
    q = 5
    lay = full_blocks_layout()
    m = lay.b[15] // 2
    om = sp_form_matrix(q, m)
    gens = sp_prime_generators(q, m)
    assert all(in_sp_prime(g, m) for g in gens)
    rng = random.Random(2)
    a = identity(q, 2 * m)
    for _ in range(5):
        a = mat_mul(a, gens[rng.randrange(len(gens))])
    check_rv_membership(lay, h15(lay, a, q), q)
    with pytest.raises(ValueError):
        bad = Mat(q, [[1, 1], [0, 1]])
        if not in_sp_prime(bad, m):
            h15(lay, bad, q)
        else:
            raise ValueError("pick a different non-symplectic example")


def test_eliminate_cases():
    q = 5
    lay = full_blocks_layout()
    k = lay.plus["6b"][0]
    assert eliminate(lay, k, {}, q) == identity(q, 2 * lay.n)
    g = eliminate(lay, k, {lay.plus["1"][0]: 3}, q)
    check_rv_membership(lay, g, q)
    # inadmissible support
    with pytest.raises(ValueError):
        eliminate(lay, lay.plus["12b"][0], {lay.plus["8b"][0]: 1}, q)
    with pytest.raises(ValueError):
        eliminate(lay, lay.plus["5"][0], {lay.plus["3"][0]: 1}, q)


def test_index_layout_rejects_bad_b():
    with pytest.raises(ValueError):
        IndexLayout(2, BInvariants([0] * 14 + [1]))  # odd b15


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, RATIONAL)), st.integers(1, 3), st.data())
def test_pairing_system_matches_one_solve_per_target(q, n, data):
    """Rows placed some at once and the rest one by one: each target's
    solution is that of ``linalg.solve`` on the whole system (an
    AssertionError where it has none), and the kernel is ``kernel``'s."""
    width = 2 * n
    entry = st.integers(0, q - 1) if q else st.integers(-2, 2)
    vecs = data.draw(st.lists(st.tuples(*[entry] * width),
                              max_size=width + 1))
    vecs = [tuple(sc(q, x) for x in v) for v in vecs]
    placed = list(enumerate(vecs, 1))
    targets = tuple(data.draw(st.sets(st.integers(1, len(vecs) or 1))))
    system = _PairingSystem(q, width, targets)
    head = data.draw(st.integers(0, len(placed)))
    system.place(*placed[:head])
    for pv in placed[head:]:
        system.place(pv)
    m = Mat(q, [v[::-1] for v in vecs]) if vecs else None
    assert system.kernel() == (kernel(m) if m else full_space(q, width))
    for p in targets:
        if m is None:
            continue
        want = solve(m, [int(pos == p) for pos, _ in placed])
        if want is None:
            with pytest.raises(AssertionError):
                system.solve(p)
        else:
            assert system.solve(p) == want


def test_representative_memo_is_bounded():
    """V(b) is kept for at most 256 (b, n, q), the one used longest ago
    dropped first, and a layout's V(b) is the memo's."""
    representative.cache_clear()
    bs = [b for t in enumerate_thetas(3) for b in enumerate_valid_b(t)]
    reps = [representative(b, 3, q) for q in (3, 5) for b in bs]
    assert len(reps) > 256
    info = representative.cache_info()
    assert (info.maxsize, info.currsize, info.hits) == (256, 256, 0)
    assert IndexLayout(3, bs[-1]).representative(5) is reps[-1]
    assert representative.cache_info().hits == 1
    assert representative(bs[0], 3, 3) == reps[0]
    assert representative.cache_info().misses == info.misses + 1
    representative.cache_clear()
