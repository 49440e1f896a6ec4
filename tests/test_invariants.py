import random

import pytest
from hypothesis import given, settings, strategies as st

from flagtype.linalg import (canonicalize, act_on_subspace, identity, mat_mul,
                             mat_vec, RATIONAL)
from flagtype.geometry import (standard_isotropic, coordinate_subspace,
                               random_isotropic, random_group_element, form,
                               group_generators, w_element, bar)
from flagtype.invariants import (theta, theta_and_w, b_invariants,
                                 x_filtration, verify_relations, BInvariants,
                                 ThetaInvariants, theta_of_b)

from oracles import (b_invariants_by_meets, rational_group_generators,
                     transvection)


def test_theta_trivial_cases():
    n, q = 3, 5
    u0 = standard_isotropic(q, n, 0)
    un = standard_isotropic(q, n, n)
    t = theta(u0, u0, n)
    assert t.tuple5() == (n, 0, 0, 0, 0)
    t = theta(u0, un, n)
    assert t.tuple5() == (0, 0, 0, n, 0)
    um = canonicalize(q, 2 * n, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    assert theta(u0, um, n).tuple5() == (1, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        theta(coordinate_subspace(q, 2 * n, [1, 6]), u0, n)


def test_b_trivial_cases():
    n, q = 3, 3
    u0 = standard_isotropic(q, n, 0)
    un = standard_isotropic(q, n, n)
    b, _ = b_invariants(u0, u0, u0, n)
    assert b.b == (n,) + (0,) * 14
    b, _ = b_invariants(u0, u0, un, n)
    assert b.b == (0, n) + (0,) * 13


def test_x_filtration_cases():
    n, q = 3, 3
    u0 = standard_isotropic(q, n, 0)
    x, x0, x1 = x_filtration(u0, u0, u0, n)
    assert x == x0 == x1 == u0
    # a1 = 0 pairing means X1 = X
    un = standard_isotropic(q, n, n)
    rng = random.Random(0)
    for _ in range(50):
        v = random_isotropic(q, n, n, rng)
        t = theta(u0, u0, n)
        x, x0, x1 = x_filtration(u0, u0, v, n)
        assert x1 == x  # U+ = U- makes the induced pairing vanish


def test_b15_even_randomized():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.choice([2, 3, 4])
        q = rng.choice([3, 5])
        up = random_isotropic(q, n, rng.randrange(n + 1), rng)
        um = random_isotropic(q, n, rng.randrange(n + 1), rng)
        v = random_isotropic(q, n, n, rng)
        x, x0, x1 = x_filtration(up, um, v, n)
        assert (x.dim - x1.dim) % 2 == 0
        assert x.contains_space(x1) and x1.contains_space(x0)


def test_verify_relations_perturbation():
    n, q = 3, 3
    u0 = standard_isotropic(q, n, 0)
    b, t = b_invariants(u0, u0, u0, n)
    assert verify_relations(b, t) == []
    bad = list(b.b)
    bad[0] += 1
    assert "a0 = b1+b2" in verify_relations(BInvariants(bad), t)
    odd = list(b.b)
    odd[14] = 1
    viol = verify_relations(BInvariants(odd), theta_of_b(n + 1, BInvariants(odd)))
    assert "b15 is even" in viol


def test_relations_hold_randomized():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.choice([2, 3, 4, 5])
        q = rng.choice([3, 5])
        up = random_isotropic(q, n, rng.randrange(n + 1), rng)
        um = random_isotropic(q, n, rng.randrange(n + 1), rng)
        v = random_isotropic(q, n, n, rng)
        b, t = b_invariants(up, um, v, n)  # internal asserts cover the relation equalities
        assert verify_relations(b, t) == []


def test_g_invariance_randomized():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        q = rng.choice([3, 5])
        up = random_isotropic(q, n, rng.randrange(n + 1), rng)
        um = random_isotropic(q, n, rng.randrange(n + 1), rng)
        v = random_isotropic(q, n, n, rng)
        b1, t1 = b_invariants(up, um, v, n)
        g = random_group_element(q, n, rng)
        b2, t2 = b_invariants(act_on_subspace(g, up), act_on_subspace(g, um),
                              act_on_subspace(g, v), n)
        assert b1 == b2 and t1 == t2


def test_induced_pairing_alternating():
    # <u, u> = 0 for the plus-part pairing on X
    from flagtype.invariants import _plus_part_map
    from flagtype.linalg import meet, join
    from flagtype.geometry import perp
    rng = random.Random(4)
    for _ in range(100):
        n, q = 3, 3
        up = random_isotropic(q, n, rng.randrange(n + 1), rng)
        um = random_isotropic(q, n, rng.randrange(n + 1), rng)
        v = random_isotropic(q, n, n, rng)
        wp = meet(up, perp(um, n))
        wm = meet(um, perp(up, n))
        x = meet(join(up, um), v)
        plus = _plus_part_map(join(up, wm), join(wp, um), x)
        for vp, xr in zip(plus, x.rows):
            assert form(q, n, vp, xr) == 0
        for i in range(len(plus)):
            for j in range(len(plus)):
                lhs = form(q, n, plus[i], x.rows[j])
                rhs = form(q, n, plus[j], x.rows[i])
                assert (lhs + rhs) % q == 0


def test_theta_consistency_guard():
    with pytest.raises(ValueError):
        ThetaInvariants(2, 2, 1, 0, 0)  # a2 < 0


def test_public_functions_validate_their_input():
    """theta, x_filtration and b_invariants each reject a non-isotropic U+
    or U- and a V that is not maximal isotropic, U+ and U- in either slot."""
    n, q = 3, 5
    u0 = standard_isotropic(q, n, 0)
    bad_u = coordinate_subspace(q, 2 * n, [1, 6])         # (e1, e6) = 1
    short_v = coordinate_subspace(q, 2 * n, [1, 2])       # isotropic, dim 2
    bad_v = coordinate_subspace(q, 2 * n, [1, 2, 6])      # dim 3, not isotropic
    for up, um in ((bad_u, u0), (u0, bad_u)):
        with pytest.raises(ValueError):
            theta(up, um, n)
        for f in (x_filtration, b_invariants):
            with pytest.raises(ValueError):
                f(up, um, u0, n)
    for v in (short_v, bad_v):
        for f in (x_filtration, b_invariants):
            with pytest.raises(ValueError):
                f(u0, u0, v, n)


@st.composite
def isotropic_triples(draw):
    """(q, n, U+, U-, V), 2 <= n <= 4: each space is g.U_0 (V) or spanned by
    a prefix of its basis (U+, U-), g a word of 0, 2 or 12 factors, each a
    transvection times some w_d: short words stay near standard position,
    long ones are generic, in either family of maximal isotropics.  U-
    reuses U+'s g a quarter of the time, so that W0 is often large.  The
    words come from a seeded Random; with each letter drawn by hypothesis,
    b8, b12, b13 and b15 were rarely nonzero."""
    q = draw(st.sampled_from((3, 5, RATIONAL)))
    n = draw(st.integers(2, 4))
    rng = draw(st.randoms(use_true_random=True))
    u0 = standard_isotropic(q, n, 0)

    def word():
        g = identity(q, 2 * n)
        for _ in range(rng.choice((0, 2, 12, 12))):
            r = rng.randrange(1, 2 * n + 1)
            c = rng.choice([c for c in range(1, 2 * n + 1)
                            if c not in (r, bar(r, n))])
            mu = rng.randrange(q) if q else rng.randrange(-2, 3)
            g = mat_mul(mat_mul(g, transvection(q, n, r, c, mu)),
                        w_element(q, n, rng.randrange(n + 1)))
        return [mat_vec(g, e) for e in u0.rows]

    plus = word()
    minus = plus if rng.randrange(4) == 0 else word()
    up = canonicalize(q, 2 * n, plus[:rng.randrange(n + 1)])
    um = canonicalize(q, 2 * n, minus[:rng.randrange(n + 1)])
    return q, n, up, um, canonicalize(q, 2 * n, word())


@settings(max_examples=300, deadline=None)
@given(isotropic_triples())
def test_b_invariants_match_meets(case):
    """The Gram-kernel and Gram-rank route against perps and Zassenhaus
    meets: theta, W0, W+, W-, X, X0, X1 and all fifteen b."""
    _, n, up, um, v = case
    want = b_invariants_by_meets(up, um, v, n)
    t, w0, wp, wm = theta_and_w(up, um, n)
    x, x0, x1 = x_filtration(up, um, v, n)
    b, tb = b_invariants(up, um, v, n)
    assert t == tb == want["theta"]
    assert (w0, wp, wm) == (want["w0"], want["wp"], want["wm"])
    assert (x, x0, x1) == (want["x"], want["x0"], want["x1"])
    assert b == want["b"]


@settings(max_examples=100, deadline=None)
@given(isotropic_triples(), st.data())
def test_theta_and_b_are_g_invariant(case, data):
    """theta and b do not change under a random word in group_generators
    (over Q, where no primitive root exists, in their rational analogue)."""
    q, n, up, um, v = case
    gens = group_generators(q, n) if q else rational_group_generators(n)
    g = identity(q, 2 * n)
    for k in data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=1,
                                max_size=8)):
        g = mat_mul(g, gens[k])
    moved = [act_on_subspace(g, s) for s in (up, um, v)]
    assert b_invariants(*moved, n) == b_invariants(up, um, v, n)
    assert theta(moved[0], moved[1], n) == theta(up, um, n)
