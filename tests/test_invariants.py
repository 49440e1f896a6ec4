import random

import pytest
from hypothesis import given, settings, strategies as st

from flagtype.linalg import (canonicalize, act_on_subspace, identity, mat_mul,
                             mat_vec, meet, join, rank_rows, sc, RATIONAL)
from flagtype.geometry import (standard_isotropic, coordinate_subspace,
                               random_isotropic, random_group_element, form,
                               group_generators, w_element, bar, perp)
from flagtype.invariants import (theta, theta_and_w, b_invariants,
                                 x_filtration, verify_relations, BInvariants,
                                 ThetaInvariants, theta_of_b, _meet_perp,
                                 _zassenhaus_kernel, _gram_rows,
                                 _prefix_ranks)
from flagtype.canonical import normalize_pair, representative

from oracles import (b_invariants_by_meets, rational_group_generators,
                     transvection, kernel_combinations)


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
    """<u, u> = 0 for the plus-part pairing on X, with U+ + W- and W+ + U-
    given as the row lists of their summands.  Every fifth pair has
    U- = U+, so a0 = dim U+ and the lists are linearly dependent."""
    from flagtype.invariants import _plus_part_map
    rng = random.Random(4)
    n, q = 3, 3
    dependent = 0
    for k in range(100):
        up = random_isotropic(q, n, rng.randrange(n + 1), rng)
        um = up if k % 5 == 0 else \
            random_isotropic(q, n, rng.randrange(n + 1), rng)
        v = random_isotropic(q, n, n, rng)
        wp = meet(up, perp(um, n))
        wm = meet(um, perp(up, n))
        x = meet(join(up, um), v)
        left, right = up.rows + wm.rows, wp.rows + um.rows
        dependent += rank_rows(left, q, 2 * n) < len(left)
        plus = _plus_part_map(left, right, x)
        lspan, rspan = join(up, wm), join(wp, um)
        for vp, xr in zip(plus, x.rows):
            assert lspan.contains(vp)
            assert rspan.contains([(a - b) % q for a, b in zip(xr, vp)])
            assert form(q, n, vp, xr) == 0
        for i in range(len(plus)):
            for j in range(len(plus)):
                lhs = form(q, n, plus[i], x.rows[j])
                rhs = form(q, n, plus[j], x.rows[i])
                assert (lhs + rhs) % q == 0
    assert dependent >= 10


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


def word_triple(rng, q, n):
    """(U+, U-, V): each space is g.U_0 (V) or spanned by a prefix of its
    basis (U+, U-), g a word of 0, 2 or 12 factors drawn from rng, each a
    transvection times some w_d: short words stay near standard position,
    long ones are generic, in either family of maximal isotropics.  U-
    reuses U+'s g a quarter of the time, so that W0 is often large."""
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
    return up, um, canonicalize(q, 2 * n, word())


@st.composite
def isotropic_triples(draw):
    """(q, n, U+, U-, V), 2 <= n <= 4, by ``word_triple``.  The words come
    from a seeded Random; with each letter drawn by hypothesis, b8, b12,
    b13 and b15 were rarely nonzero."""
    q = draw(st.sampled_from((3, 5, RATIONAL)))
    n = draw(st.integers(2, 4))
    rng = draw(st.randoms(use_true_random=True))
    return (q, n) + word_triple(rng, q, n)


@settings(max_examples=300, deadline=None)
@given(isotropic_triples())
def test_b_invariants_match_meets(case):
    """The one-elimination Zassenhaus forms, plus-part splitting and prefix
    ranks against perps, Zassenhaus meets, one solve per X-vector and a
    kernel for X1: theta, W0, W+, W-, X, X0, X1 and all fifteen b."""
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


def _field_rows(q, count, width):
    """`count` vectors of F^width: entries mod q, or in -2..2 over Q."""
    entry = st.integers(0, q - 1) if q else st.integers(-2, 2)
    return st.lists(st.tuples(*[entry] * width), min_size=count,
                    max_size=count)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, RATIONAL)), st.integers(1, 3), st.data())
def test_meet_perp_matches_meet_with_perp(q, n, data):
    """A ∩ B^perp from one Zassenhaus form equals the meet of A with the
    perp of B, for any subspaces A and B of F^{2n} given by spanning rows,
    dependent ones too."""
    a_rows, b_rows = (data.draw(_field_rows(
        q, data.draw(st.integers(0, 2 * n + 1)), 2 * n)) for _ in range(2))
    a, b = (canonicalize(q, 2 * n, rows) for rows in (a_rows, b_rows))
    assert _meet_perp(q, 2 * n, a_rows, b_rows) == meet(a, perp(b, n))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, RATIONAL)), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 6), st.data())
def test_x1_elimination_matches_kernel_combinations(q, k, m, width, data):
    """X1's elimination: the span of the combinations of k rows (dependent
    ones too) whose Gram rows sum to zero, from one elimination of
    (Gram row | row), against a kernel and then its combinations."""
    gram_rows = data.draw(_field_rows(q, k, m))
    rows = data.draw(_field_rows(q, k, width))
    got = _zassenhaus_kernel(q, width, gram_rows, rows)
    assert got == kernel_combinations(q, width, gram_rows, rows)


@settings(max_examples=100, deadline=None)
@given(isotropic_triples())
def test_prefix_ranks_match_gram_ranks(case):
    """Each prefix rank of the chains W0 ⊆ W± ⊆ U± and W+ ⊆ W+ + W- is the
    rank of the Gram matrix of that prefix alone, and dim A - dim(A ∩ V)
    for the span A of the prefix."""
    q, n, up, um, v = case
    _, w0, wp, wm = theta_and_w(up, um, n)
    for chain in ((w0, wp, up), (w0, wm, um), (wp, wm)):
        blocks = [_gram_rows(q, s.rows, v.rows) for s in chain]
        ranks = _prefix_ranks(q, *blocks)
        assert len(ranks) == len(chain)
        for k, r in enumerate(ranks):
            cols = [c for blk in blocks[:k + 1] for c in blk]
            assert r == rank_rows(cols, q, n)
            span = chain[0]
            for s in chain[1:k + 1]:
                span = join(span, s)
            assert r == span.dim - meet(span, v).dim


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, RATIONAL)), st.integers(1, 4),
       st.integers(0, 4), st.integers(0, 4), st.data())
def test_gram_rows_match_the_form_table(q, n, ka, kb, data):
    """The Gram rows with each row of B reversed once are the table of
    ``form`` entry by entry."""
    a = [tuple(sc(q, x) for x in r) for r in data.draw(_field_rows(q, ka, 2 * n))]
    b = [tuple(sc(q, x) for x in r) for r in data.draw(_field_rows(q, kb, 2 * n))]
    assert _gram_rows(q, a, b) == [tuple(form(q, n, x, y) for y in b)
                                   for x in a]


def _outcome(f, *args):
    """f(*args), or the ValueError it raises as (ValueError, message)."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=100, deadline=None)
@given(isotropic_triples())
def test_memoized_pair_work_matches_a_cold_call(case):
    """normalize_pair after b_invariants takes the pair's W-spaces from the
    memo and gives the g of a cold call; theta_and_w and V(b) warm equal
    their values after cache_clear().  Over Q, normalize_pair may refuse a
    pair (a2 > 0), and then it refuses it cold too."""
    q, n, up, um, v = case
    theta_and_w.cache_clear()
    b, _ = b_invariants(up, um, v, n)
    hits = theta_and_w.cache_info().hits
    warm_g = _outcome(normalize_pair, up, um, n)
    assert theta_and_w.cache_info().hits == hits + 1
    warm_w = theta_and_w(up, um, n)
    warm_rep = representative(b, n, q)
    theta_and_w.cache_clear()
    representative.cache_clear()
    assert _outcome(normalize_pair, up, um, n) == warm_g
    theta_and_w.cache_clear()
    assert theta_and_w(up, um, n) == warm_w
    assert representative(b, n, q) == warm_rep


@pytest.mark.parametrize("q", (3, 5, RATIONAL))
def test_refused_inputs_are_refused_on_every_call(q):
    """No memo keeps a refusal or lets a refused input through: a
    non-isotropic pair and an invalid b raise on a first and a second
    call."""
    n = 3
    u0 = standard_isotropic(q, n, 0)
    bad_u = coordinate_subspace(q, 2 * n, [1, 6])         # (e1, e6) = 1
    theta_and_w.cache_clear()
    representative.cache_clear()
    for _ in range(2):
        for up, um in ((bad_u, u0), (u0, bad_u)):
            for f in (theta_and_w, normalize_pair):
                with pytest.raises(ValueError):
                    f(up, um, n)
        for b in ((0,) * 14 + (1,),          # odd b15
                  (1,) + (0,) * 14,          # a2 = 1 but b12+b13+b14 = 0
                  (0,) * 14 + (-2,)):        # negative
            with pytest.raises(ValueError):
                representative(b, 2, q)
        with pytest.raises(ValueError):
            representative((0,) * 13 + (2, 0), 2, 4)   # q not a field
    assert theta_and_w.cache_info().currsize == 0


GOLDEN_STRATA = ((3, 3), (3, 5), (4, 3), (4, 5))

# (seed, b, theta, g, V(b)) for word_triple(Random(seed), q, n) with
# (n, q) = GOLDEN_STRATA[seed % 4]: g = normalize_pair(U+, U-), V(b) =
# representative(b), matrix rows as digit strings.  Seeds 0-31, and eight
# later seeds that make b7, b8, b12, b13 or b15 nonzero.
TRIPLE_GOLDEN = [
    (0, "000000000020010", "00201",
     "100000 010000 001000 000100 000010 000001",
     "001000 000010 000001"),
    (1, "000000000300000", "03000",
     "000100 000010 000001 100000 010000 001000",
     "000100 000010 000001"),
    (2, "000200000000020", "00202",
     "10000000 01000000 00100000 00010000 00001000 00000100 00000010 00000001",
     "10000000 01000000 00100000 00010000"),
    (3, "000000001020000", "00310",
     "00010000 00000100 00000010 10040000 00000001 01000000 00100000 00001001",
     "10010000 00001004 00000100 00000010"),
    (4, "020000000100000", "21000",
     "000010 000001 000100 001000 100000 010000",
     "000100 000010 000001"),
    (5, "110000000000010", "20001",
     "001000 002003 000020 034001 203010 104101",
     "100000 001000 000010"),
    (6, "000000000000040", "00004",
     "10000000 01000000 00100000 00010000 00001000 00000100 00000010 00000001",
     "10000000 01000000 00100000 00010000"),
    (7, "000000000101000", "01021",
     "00003134 33400000 14403421 32200000 14031041 23010000 00000011 23110000",
     "01000100 00101040 00010400 00000001"),
    (8, "001000000200000", "03000",
     "100000 010000 001000 000100 000010 000001",
     "100000 000100 000010"),
    (9, "000000000030000", "00300",
     "010000 000100 000001 100000 001000 000010",
     "000100 000010 000001"),
    (10, "010001000020000", "10210",
     "10000000 00100000 00010000 01000000 00000010 00001000 00000100 00000001",
     "00001000 00000100 00000010 00000001"),
    (11, "000400000000000", "00400",
     "10000000 01000000 00100000 00010000 00001000 00000100 00000010 00000001",
     "10000000 01000000 00100000 00010000"),
    (12, "010010000100000", "11010",
     "000100 000010 100020 000101 010101 201000",
     "001000 000010 000001"),
    (13, "000000000000110", "00012",
     "242430 000401 434042 404010 110100 202421",
     "101000 010000 000104"),
    (14, "000100000010100", "00211",
     "00002202 00002002 12020100 00000011 01001001 00000001 00120010 00200001",
     "10000000 00110000 00001200 00000010"),
    (15, "100000000000030", "10003",
     "10000000 01000000 00100000 00010000 00001000 00000100 00000010 00000001",
     "10000000 01000000 00100000 00010000"),
    (16, "011000000000010", "11001",
     "000001 000010 000220 002001 012001 100100",
     "010000 001000 000001"),
    (17, "010000000000020", "10002",
     "000004 000032 000404 004001 020001 441431",
     "010000 001000 000001"),
    (18, "000001000020010", "00211",
     "00020001 00020010 11201202 00000220 00210010 00000001 01220110 02112101",
     "00010000 00000100 00000010 00000001"),
    (19, "100000000300000", "13000",
     "10000000 01000000 00100000 00010000 00001000 00000100 00000010 00000001",
     "10000000 00001000 00000100 00000010"),
    (20, "010000000010010", "10101",
     "001000 010000 102000 000001 000010 000101",
     "001000 000010 000001"),
    (21, "000000000020010", "00201",
     "100000 010000 001000 000100 000010 000001",
     "001000 000010 000001"),
    (22, "100000000010020", "10102",
     "00020000 00000010 10010000 00100000 00000100 00000001 01000000 00002001",
     "10000000 00100000 00010000 00000010"),
    (23, "001000000200010", "03001",
     "00000420 00000003 00000241 00040000 00004241 02410000 21200210 04200001",
     "10000000 00010000 00000100 00000010"),
    (24, "010011000000000", "10020",
     "000010 100200 001021 000100 000001 010100",
     "010000 000100 000001"),
    (25, "000000000100002", "01020",
     "000100 000030 000002 300210 020301 001011",
     "010100 001040 000001"),
    (26, "030001000000000", "30010",
     "00001000 00000200 00000010 00000001 10000000 01000000 00201000 00010100",
     "00001000 00000100 00000010 00000001"),
    (27, "010000000200010", "12001",
     "00000203 00000421 00000202 00030334 00002401 40404010 03002201 14444010",
     "00010000 00000100 00000010 00000001"),
    (28, "002010000000000", "02010",
     "010000 001000 100000 000001 000100 000010",
     "100000 010000 001000"),
    (29, "000210000000000", "00210",
     "000130 000100 100420 000001 031000 020001",
     "100000 010000 001000"),
    (30, "000000000200020", "02002",
     "00000020 00000100 10000000 00001000 00010010 00000001 00100000 02001000",
     "00100000 00010000 00000010 00000001"),
    (31, "102000000000010", "12001",
     "10000000 01000000 00100000 00010000 00001000 00000100 00000010 00000001",
     "10000000 01000000 00100000 00010000"),
    (44, "010000000000100", "10011",
     "010000 000002 001000 000101 211000 000011",
     "011000 000120 000001"),
    (47, "000000000101000", "01021",
     "00001202 02002003 34044041 11324140 04001100 02002100 04423010 33422210",
     "01000100 00101040 00010400 00000001"),
    (84, "000000010100000", "02010",
     "001000 000010 100000 002001 010000 100100",
     "100100 001002 000010"),
    (90, "010000000100002", "11020",
     "00200001 00102000 01100002 10010100 00001000 00000010 10000100 10000010",
     "00101000 00010200 00000010 00000001"),
    (145, "000010010000000", "01020",
     "010200 100000 201030 000100 010001 400010",
     "100100 010000 001004"),
    (166, "000000010110000", "02110",
     "00100000 00000010 00002001 00001020 10010000 10000000 11010000 00000100",
     "10001000 00010002 00000100 00000010"),
    (245, "000000100100000", "02100",
     "000310 000401 000100 121000 100000 010000",
     "101000 000104 000010"),
    (315, "000000000011000", "00121",
     "41320424 02032020 11010132 31100341 44101321 24400410 03000001 41303321",
     "01000100 00101040 00010400 00000001"),
]


@pytest.mark.parametrize("seed,b,th,g,rep", TRIPLE_GOLDEN,
                         ids=[str(row[0]) for row in TRIPLE_GOLDEN])
def test_triple_outputs_are_pinned(seed, b, th, g, rep):
    """b, theta, the Proposition 5.1 element and V(b) of seeded triples."""
    n, q = GOLDEN_STRATA[seed % 4]
    up, um, v = word_triple(random.Random(seed), q, n)
    bb, t = b_invariants(up, um, v, n)

    def digits(rows):
        return " ".join("".join(map(str, r)) for r in rows)

    assert "".join(map(str, bb.b)) == b
    assert "".join(map(str, t.tuple5())) == th
    assert digits(normalize_pair(up, um, n).rows) == g
    assert digits(representative(bb, n, q).rows) == rep
