import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from flagtype.linalg import (Mat, identity, act_on_subspace, mat_vec,
                             canonicalize, mat_mul, RATIONAL)
from flagtype.geometry import (standard_isotropic, group_generators,
                               so_generators, parabolic_generators,
                               group_order, random_group_element,
                               coordinate_subspace, w_element,
                               bar, classify_element, IN_O_MINUS_SO,
                               is_isotropic, small_generators)
from flagtype import flags
from flagtype.flags import Composition, enumerate_chains, act
from flagtype.engine import (same_orbit, census_direct, census_space,
                             census_product, signature, close_group,
                             schreier_descend, StabLevel, Infeasible,
                             tuple_key, SAME, DIFFERENT, order_bound,
                             action_points, index_spaces, stabilizer_orbits)
from flagtype.invariants import b_invariants
from flagtype.canonical import enumerate_thetas, enumerate_valid_b
from flagtype import engine, suites
from flagtype.suites import CENSUS_PLAN

from oracles import (census_full_product, orbit, path_element,
                     rational_group_generators, signature_by_meets,
                     transvection)


def max_flags(q, n):
    return [(ch,) for ch in enumerate_chains(q, n, Composition([n]))]


def test_orbit_with_words():
    n, q = 2, 3
    gens = group_generators(q, n)
    start = ((standard_isotropic(q, n, 0),),)
    members, tree = orbit(start, gens, q)
    assert len(members) == 8
    for m in members[:4]:
        g = path_element(m, tree, gens, q, 2 * n)
        assert act(g, start) == m


def test_orbit_trivial_gens():
    n, q = 2, 3
    start = ((standard_isotropic(q, n, 0),),)
    members, _ = orbit(start, [identity(q, 2 * n)], q)
    assert members == [start]


def test_same_orbit_basics():
    n, q = 2, 3
    gens = group_generators(q, n)
    x = ((standard_isotropic(q, n, 0),),)
    y = ((standard_isotropic(q, n, 1),),)
    v, g = same_orbit(x, x, gens, n, q)
    assert v == "Yes" and g == identity(q, 2 * n)
    v, g = same_orbit(x, y, so_generators(q, n), n, q)
    assert v == "No"
    v, g = same_orbit(x, y, gens, n, q)
    assert v == "Yes" and act(g, x) == y


def test_same_orbit_descent_translate():
    rng = random.Random(0)
    n, q = 3, 3
    gens = group_generators(q, n)
    for _ in range(8):
        chains = []
        for comp in ([2], [1, 2]):
            from flagtype.geometry import random_isotropic
            top = random_isotropic(q, n, comp[-1] + (comp[0] if len(comp) > 1
                                                     else 0), rng)
            if len(comp) == 1:
                chains.append((top,))
            else:
                from flagtype.linalg import canonicalize
                sub = canonicalize(q, 2 * n, top.rows[:comp[0]])
                chains.append((sub, top))
        x = tuple(chains)
        g0 = random_group_element(q, n, rng)
        y = act(g0, x)
        v, g = same_orbit(x, y, gens, n, q)
        assert v == "Yes" and act(g, x) == y


def _line_plane(q, n, line, plane):
    return ((coordinate_subspace(q, 2 * n, line),),
            (coordinate_subspace(q, 2 * n, plane),))


@pytest.mark.parametrize("kind", [parabolic_generators, so_generators,
                                  group_generators])
def test_same_orbit_of_line_plane_pairs(kind):
    """same_orbit on (line, plane) pairs at n=3, q=3 under P, SO and G,
    each verdict checked against membership in the BFS orbit of x.  The
    translates are SAME with a verified element.  <e1> < <e1,e2> and
    <e6> < <e5,e6> share a G-orbit but lie in different P-orbits, since
    only the first plane lies in U_0."""
    n, q = 3, 3
    gens = kind(q, n)
    rng = random.Random(11)
    flag = _line_plane(q, n, [1], [1, 2])
    pairs = [(x, act(random_group_element(q, n, rng, gens=gens), x))
             for x in (flag, _line_plane(q, n, [3], [1, 2]))]
    pairs.append((flag, _line_plane(q, n, [6], [5, 6])))
    verdicts = []
    for x, y in pairs:
        members, _ = orbit(x, gens, q)
        v, g = same_orbit(x, y, gens, n, q)
        assert v == (SAME if tuple_key(y) in {tuple_key(m) for m in members}
                     else DIFFERENT)
        if v == SAME:
            assert act(g, x) == y
        verdicts.append(v)
    assert verdicts == [SAME, SAME, DIFFERENT if kind is parabolic_generators
                        else SAME]


def test_same_orbit_checks_generators_and_budget(monkeypatch):
    n, q = 2, 3
    x = ((standard_isotropic(q, n, 0),),)
    y = ((standard_isotropic(q, n, 1),),)
    gens = group_generators(q, n)
    monkeypatch.setenv("FLAGTYPE_BUDGET", "5")
    with pytest.raises(Infeasible, match="orbit budget exceeded"):
        same_orbit(x, y, gens, n, q)
    monkeypatch.delenv("FLAGTYPE_BUDGET")
    scale = Mat(q, [[2 if i == j == 0 else int(i == j) for j in range(4)]
                    for i in range(4)])
    with pytest.raises(ValueError):
        same_orbit(x, y, gens + [scale], n, q)


@pytest.mark.parametrize("kind", [parabolic_generators, group_generators])
def test_action_points_blocks(kind):
    """Each generator permutes the vector block as mat_vec and each subspace
    block as act_on_subspace; under O_2n every row of an indexed isotropic
    subspace is a point of the vector block (Witt), so the point table the
    subspace orbits share knows every row image they need."""
    n, q = 3, 3
    gens = kind(q, n)
    m = 2 * n
    spaces = [coordinate_subspace(q, m, [1]), coordinate_subspace(q, m, [1, 2]),
              standard_isotropic(q, n, 1),
              canonicalize(q, m, [[1, 0, 0, 0, 0, 1]])]
    assert not is_isotropic(spaces[-1], n)
    vectors, index, images = action_points(gens, spaces)
    degree = len(vectors) + len(index)
    assert vectors[:m] == [tuple(int(i == j) for j in range(m))
                           for i in range(m)]
    assert sorted(index.values()) == list(range(len(vectors), degree))
    assert set(spaces) <= set(index)
    at = {v: i for i, v in enumerate(vectors)}
    assert len(at) == len(vectors)
    for g, img in zip(gens, images):
        assert sorted(img) == list(range(degree))
        for i, v in enumerate(vectors):
            assert img[i] == at[mat_vec(g, v)]
        for s, p in index.items():
            assert img[p] == index[act_on_subspace(g, s)]
    if kind is group_generators:
        isotropic = [s for s in index if is_isotropic(s, n)]
        assert len(isotropic) > len(spaces)
        assert all(r in at for s in isotropic for r in s.rows)


def test_action_points_refuses_the_rationals(monkeypatch):
    """Over Q the orbit of a vector is infinite: action_points raises
    ValueError before it moves any vector, where a search would run until
    the budget is spent."""
    monkeypatch.setenv("FLAGTYPE_BUDGET", "2000")
    monkeypatch.setattr(engine, "mat_vec",
                        lambda *a: pytest.fail("a vector was moved"))
    with pytest.raises(ValueError,
                       match="needs an odd prime q, not the rationals"):
        action_points(rational_group_generators(2), [])


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3), (2, 5)])
def test_order_bound_is_so_order_for_so_generators(n, q):
    so = so_generators(q, n)
    assert order_bound(so, n) == group_order(q, n) // 2
    w = w_element(q, n, 1)
    assert classify_element(w, n) == IN_O_MINUS_SO
    assert order_bound(so + [w], n) == group_order(q, n)
    assert order_bound(group_generators(q, n), n) == group_order(q, n)


def test_census_matches_per_orbit_bfs():
    n, q = 2, 3
    tuples = max_flags(q, n)
    gens = parabolic_generators(q, n)
    cen = census_direct(tuples, gens, n, q)
    seen = set()
    counts = 0
    for t in tuples:
        if tuple_key(t) in seen:
            continue
        members, _ = orbit(t, gens, q)
        seen.update(tuple_key(m) for m in members)
        counts += 1
    assert cen.orbit_count == counts == n + 1
    assert sum(cen.orbit_sizes) == len(tuples)


@pytest.mark.parametrize("kind", [parabolic_generators, so_generators,
                                  group_generators])
def test_code_census_matches_tuple_bfs(kind):
    """The code census of each n=2 plan product at q=3 against a BFS of
    the explicit tuples: the same orbits, each represented by its tuple_key
    minimum, in ascending order of those minima."""
    n, q = 2, 3
    gens = kind(q, n)
    for _, comps, _ in [e for e in CENSUS_PLAN if e[0] == n]:
        spaces = [enumerate_chains(q, n, Composition(c)) for c in comps]
        cen = census_product(spaces, gens, n, q)
        block_of = {}
        for t in itertools.product(*spaces):
            if t not in block_of:
                members, _ = orbit(t, gens, q)
                block_of.update(dict.fromkeys(members, frozenset(members)))
        blocks = set(block_of.values())
        assert cen.total == len(block_of) == sum(cen.orbit_sizes)
        assert cen.orbit_count == len(blocks)
        assert {block_of[r] for r in cen.representatives} == blocks
        for rep, size, sig in zip(cen.representatives, cen.orbit_sizes,
                                  cen.signatures):
            block = block_of[rep]
            assert size == len(block)
            assert tuple_key(rep) == min(map(tuple_key, block))
            assert sig == signature(rep, n)
        keys = [tuple_key(r) for r in cen.representatives]
        assert keys == sorted(keys)


def test_census_direct_needs_a_full_product():
    n, q = 2, 3
    gens = group_generators(q, n)
    lines = enumerate_chains(q, n, Composition([1]))
    tops = enumerate_chains(q, n, Composition([2]))
    tuples = list(itertools.product(lines, tops))
    full = census_direct(tuples, gens, n, q)
    # the list order does not matter: orbits follow the smallest tuple_key
    shuffled = tuples[::-1]
    again = census_direct(shuffled, gens, n, q)
    assert again.orbit_sizes == full.orbit_sizes
    assert [tuple_key(r) for r in again.representatives] == \
        [tuple_key(r) for r in full.representatives]
    bad = [
        tuples + tuples[:1],              # a duplicate
        tuples[:-1] + tuples[:1],         # a duplicate in place of a tuple
        tuples[:-1],                      # not a full product
        [(ch,) for ch in tops] + [(tops[0],)],
    ]
    for case in bad:
        with pytest.raises(ValueError):
            census_direct(case, gens, n, q)


def test_census_counts_match_b_invariants():
    """The orbits of G on M_(alpha) x M_(beta) x M_(n) are the valid
    b-invariants of the thetas with those dimensions (the paper's
    classification of triples by b), point by point: the (theta, b) of the
    census representatives are pairwise distinct and are exactly the
    valid pairs.  The census uses no b-invariants, so this is an
    independent route.  Every alpha <= beta at n = 2, 3 (q=3) and n = 2
    (q=5); at n = 4, q=3, three cells that take the descent, through a
    block shared by two levels and through one dropped after depth 0."""
    cells = [(n, q, alpha, beta) for n, q in ((2, 3), (3, 3), (2, 5))
             for alpha in range(1, n + 1) for beta in range(alpha, n + 1)]
    cells += [(4, 3, 1, 1), (4, 3, 1, 4), (4, 3, 4, 4)]
    counts = []
    for n, q, alpha, beta in cells:
        comps = [Composition([alpha]), Composition([beta]), Composition([n])]
        want = {(t, b) for t in enumerate_thetas(n)
                if t.alpha == alpha and t.beta == beta
                for b in enumerate_valid_b(t)}
        census = census_space(n, q, comps, group_generators(q, n))
        got = [b_invariants(up, um, v, n)[::-1]
               for (up,), (um,), (v,) in census.representatives]
        assert len(set(got)) == len(got) == census.orbit_count
        assert set(got) == want
        counts.append(census.orbit_count)
    assert counts == [10, 9, 11, 10, 19, 14, 40, 26, 24, 10, 9, 11,
                      10, 19, 46]


def test_census_determinism():
    n, q = 2, 3
    comps = [Composition([1]), Composition([2])]
    a = census_space(n, q, comps, group_generators(q, n))
    b = census_space(n, q, comps, group_generators(q, n))
    assert a.orbit_count == b.orbit_count
    assert a.orbit_sizes == b.orbit_sizes
    assert [tuple_key(r) for r in a.representatives] == \
        [tuple_key(r) for r in b.representatives]


@pytest.mark.parametrize("kind", [parabolic_generators, so_generators,
                                  group_generators])
def test_census_space_matches_census_product(kind):
    """census_space, on the permutations of the enumeration, against
    census_product on the enumerated lists (the memo_act path), for every
    CENSUS_PLAN shape at q=3."""
    q = 3
    for n, comps, _ in CENSUS_PLAN:
        cs = [Composition(c) for c in comps]
        gens = kind(q, n)
        got = census_space(n, q, cs, gens)
        want = census_product([enumerate_chains(q, n, c) for c in cs], gens,
                              n, q)
        assert got.to_json(n) == want.to_json(n)


def test_census_descriptors_name_the_compositions():
    """census_direct and census_product label a census as census_space
    does, from the compositions of their chain lists, for every
    CENSUS_PLAN shape at q=3; census_direct on the n=2 shapes only, as an
    n=3 shape holds at least 512 000 explicit tuples."""
    q = 3
    for n, comps, _ in CENSUS_PLAN:
        cs = [Composition(c) for c in comps]
        gens = group_generators(q, n)
        want = census_space(n, q, cs, gens).descriptor
        assert want == "n=%d %s" % (n, "|".join(map(str, comps)))
        spaces = [enumerate_chains(q, n, c) for c in cs]
        assert census_product(spaces, gens, n, q).descriptor == want
        if n == 2:
            tuples = list(itertools.product(*spaces))
            assert census_direct(tuples, gens, n, q).descriptor == want


# the n=2 plan shapes, then shapes whose first component splits into
# several orbits under P or SO, or comes back later, and one- and
# four-component spaces
FIRST_COMPONENT_SHAPES = [c for m, c, _ in CENSUS_PLAN if m == 2] + [
    [(1,), (1,), (1,)], [(1, 1), (1,), (2,)], [(2,), (1, 1), (1,)],
    [(2,)], [(1,)], [(2,), (2,), (1,), (2,)]]


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("kind", [parabolic_generators, so_generators,
                                  group_generators])
def test_code_census_on_the_first_stabilizer_matches_full_product(kind, q):
    """The code census runs on the stabilizer of a point of the first
    component; the census of the whole product's codes gives the same
    JSON: counts, sizes, representatives and their order, signatures."""
    n = 2
    gens = kind(q, n)
    for comps in FIRST_COMPONENT_SHAPES:
        cs = [Composition(c) for c in comps]
        spaces = [enumerate_chains(q, n, c) for c in cs]
        got = census_space(n, q, cs, gens)
        want = census_full_product(*index_spaces(spaces, gens), n, q,
                                   got.descriptor)
        assert got.to_json(n) == want.to_json(n)
        assert census_product(spaces, gens, n, q).to_json(n) == \
            want.to_json(n)


def test_census_without_generators_has_singleton_orbits():
    n, q = 2, 3
    lines = enumerate_chains(q, n, Composition([1]))
    tops = enumerate_chains(q, n, Composition([2]))
    cen = census_direct(list(itertools.product(lines, tops)), [], n, q)
    assert cen.orbit_count == cen.total == 128
    assert cen.orbit_sizes == [1] * 128
    assert cen.representatives == sorted(itertools.product(lines, tops),
                                         key=tuple_key)
    cen = census_space(n, q, [Composition([1])], ())
    assert cen.orbit_count == cen.total == 16
    assert [r for (r,) in cen.representatives] == lines
    # the empty product has one tuple, ()
    cen = census_space(n, q, [], group_generators(q, n))
    assert cen.representatives == [()] and cen.orbit_sizes == [1]


def test_census_space_rejects_a_generator_outside_o2n():
    """diag(2, 1, 1, 1) is not orthogonal and moves isotropic lines off
    M_(1), so the enumerated space outgrows flag_count."""
    n, q = 2, 3
    scale = Mat(q, [[2 if i == j == 0 else int(i == j) for j in range(4)]
                    for i in range(4)])
    for gens in (group_generators(q, n), parabolic_generators(q, n)):
        with pytest.raises(AssertionError, match="not closed under the"):
            census_space(n, q, [Composition([1])], gens + [scale])


def test_orbit_stabilizer_consistency():
    n, q = 2, 3
    gens = group_generators(q, n)
    group = close_group(gens, group_order(q, n) + 8)
    tuples = max_flags(q, n)
    for t in tuples[:3]:
        members, _ = orbit(t, gens, q)
        stab = [g for g in group if act(g, t) == t]
        assert len(members) * len(stab) == len(group)


def test_orbit_sizes_divide_group_order():
    n, q = 2, 3
    cen = census_direct(max_flags(q, n), group_generators(q, n), n, q)
    for s in cen.orbit_sizes:
        assert group_order(q, n) % s == 0


def test_signature_invariance_and_refinement():
    rng = random.Random(1)
    n, q = 2, 3
    gens = group_generators(q, n)
    u0 = standard_isotropic(q, n, 0)
    u1 = standard_isotropic(q, n, 1)
    assert signature(((u0,),), n) == signature(((u1,),), n)
    from flagtype.geometry import random_isotropic
    for _ in range(40):
        up = random_isotropic(q, n, rng.randrange(n + 1), rng)
        um = random_isotropic(q, n, rng.randrange(n + 1), rng)
        v = random_isotropic(q, n, n, rng)
        t1 = ((up,), (um,), (v,))
        g = random_group_element(q, n, rng)
        assert signature(t1, n) == signature(act(g, t1), n)
    # signature-equal is implied by b-equal on triples
    for _ in range(40):
        up1 = random_isotropic(q, n, 2, rng)
        um1 = random_isotropic(q, n, 2, rng)
        v1 = random_isotropic(q, n, n, rng)
        up2 = random_isotropic(q, n, 2, rng)
        um2 = random_isotropic(q, n, 2, rng)
        v2 = random_isotropic(q, n, n, rng)
        b1, t1 = b_invariants(up1, um1, v1, n)
        b2, t2 = b_invariants(up2, um2, v2, n)
        s1 = signature(((up1,), (um1,), (v1,)), n)
        s2 = signature(((up2,), (um2,), (v2,)), n)
        if (b1, t1) == (b2, t2):
            assert s1 == s2


@st.composite
def chain_tuples(draw, fields=(3, 5, RATIONAL)):
    """(q, n, ft): 1-3 nested chains in F^2n, 2 <= n <= 4, of dims in
    0..2n, each either spanned by prefixes of random rows or isotropic
    (prefixes of a basis of g.U_0, g a random word of transvections)."""
    q = draw(st.sampled_from(fields))
    n = draw(st.integers(2, 4))
    entries = st.integers(0, q - 1) if q else st.integers(-2, 2)
    ft = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            g = identity(q, 2 * n)
            for _ in range(draw(st.integers(0, 6))):
                r = draw(st.integers(1, 2 * n))
                c = draw(st.integers(1, 2 * n).filter(
                    lambda c, r=r: c not in (r, bar(r, n))))
                g = mat_mul(g, transvection(q, n, r, c, draw(entries)))
            rows = [mat_vec(g, e) for e in standard_isotropic(q, n, 0).rows]
            top = n
        else:
            rows = draw(st.lists(st.lists(entries, min_size=2 * n,
                                          max_size=2 * n),
                                 min_size=2 * n, max_size=2 * n))
            top = 2 * n
        dims = sorted(draw(st.sets(st.integers(0, top), min_size=1,
                                   max_size=3)))
        ft.append(tuple(canonicalize(q, 2 * n, rows[:d]) for d in dims))
    return q, n, tuple(ft)


@settings(max_examples=150, deadline=None)
@given(chain_tuples())
def test_signature_matches_meets(case):
    _, n, ft = case
    assert signature(ft, n) == signature_by_meets(ft, n)


@settings(max_examples=60, deadline=None)
@given(chain_tuples(fields=(3, 5)), st.data())
def test_signature_g_invariant(case, data):
    q, n, ft = case
    gens = group_generators(q, n)
    g = identity(q, 2 * n)
    for i in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=8)):
        g = mat_mul(g, gens[i])
    assert signature(act(g, ft), n) == signature(ft, n)


def test_signature_edge_cases():
    n, q = 2, 3
    assert signature((), n) == ()
    zero = canonicalize(q, 2 * n, [])
    full = canonicalize(q, 2 * n, identity(q, 2 * n).rows)
    for ft in [((zero,),), ((full,),), ((zero, full), (full,))]:
        assert signature(ft, n) == signature_by_meets(ft, n)
    with pytest.raises(ValueError):
        signature(((coordinate_subspace(q, 2 * n + 2, [1]),),), n)
    with pytest.raises(ValueError):
        signature(((zero,), (canonicalize(5, 2 * n, []),)), n)


def test_schreier_descend_exact():
    n, q = 2, 3
    gens = group_generators(q, n)
    group = close_group(gens, group_order(q, n) + 8)
    level = StabLevel(gens, order=group_order(q, n))
    pt = standard_isotropic(q, n, 0)
    sub, members, trans = schreier_descend(level, pt, q, 2 * n)
    true_stab = {g for g in group if act_on_subspace(g, pt) == pt}
    assert sub.order == len(true_stab)
    assert sub.elements == true_stab
    for m in members[:5]:
        assert act_on_subspace(trans[m], pt) == m


def test_budget_infeasible(monkeypatch):
    n, q = 3, 3
    gens = group_generators(q, n)
    start = ((standard_isotropic(q, n, 0),),)
    monkeypatch.setenv("FLAGTYPE_BUDGET", "5")
    # the engine re-exports the one exception of the flags module
    assert Infeasible is flags.Infeasible
    with pytest.raises(Infeasible):
        orbit(start, gens, q)


def sizes_by_signature(cen):
    out = {}
    for sig, size in zip(cen.signatures, cen.orbit_sizes):
        out[sig] = out.get(sig, 0) + size
    return out


@pytest.mark.parametrize("kind", [parabolic_generators, so_generators,
                                  group_generators])
def test_descent_matches_direct_census(kind, monkeypatch):
    """The stabilizer-chain descent against the direct census, under P, SO
    and G; representatives may differ, so orbits are compared by size and
    signature.

    Under P one more input has later blocks that are not whole flag
    spaces: the lines of U_0, which P keeps but acts on with a kernel, so
    the chains on them get no order from the chains above."""
    n, q = 2, 3
    gens = kind(q, n)
    inputs = [[enumerate_chains(q, n, Composition(c)) for c in comps]
              for m, comps, _ in CENSUS_PLAN if m == n]
    if kind is parabolic_generators:
        u0 = standard_isotropic(q, n, 0)
        lines = [ch for ch in enumerate_chains(q, n, Composition([1]))
                 if u0.contains_space(ch[0])]
        assert len(lines) == q + 1
        inputs.append([enumerate_chains(q, n, Composition([2])), lines,
                       lines])
    for spaces in inputs:
        direct = census_product(spaces, gens, n, q)
        with monkeypatch.context() as m:
            m.setattr(engine, "DIRECT_LIMIT", 0)
            descent = census_product(spaces, gens, n, q)
        assert descent.orbit_count == direct.orbit_count
        assert sorted(descent.orbit_sizes) == sorted(direct.orbit_sizes)
        assert sorted(zip(descent.signatures, descent.orbit_sizes)) == \
            sorted(zip(direct.signatures, direct.orbit_sizes))
        assert descent.total == direct.total == sum(descent.orbit_sizes)


def test_so_and_p_censuses_of_three_lines():
    """SO splits one G-orbit of (1)|(1)|(1) at n=3 in two; every P- and
    SO-orbit lies inside the G-orbits of its signature."""
    n, q = 3, 3
    comps = [Composition([1])] * 3
    g = census_space(n, q, comps, group_generators(q, n))
    so = census_space(n, q, comps, so_generators(q, n))
    p = census_space(n, q, comps, parabolic_generators(q, n))
    assert g.orbit_count == 17 and so.orbit_count == 18
    want = sorted(g.orbit_sizes)
    want.remove(112320)
    assert sorted(so.orbit_sizes) == sorted(want + [56160, 56160])
    assert p.orbit_count == 112
    for cen in (so, p):
        assert sizes_by_signature(cen) == sizes_by_signature(g)
        assert sum(cen.orbit_sizes) == cen.total == 130 ** 3


def test_census_suite_checks_single_q_entries(monkeypatch):
    """A census entry run at one q passes only if its point total is the
    closed-form product of the flag counts and the classifier says Finite;
    one of shape (alpha)|(beta)|(n) also needs its count to be the number
    of valid (theta, b)."""
    monkeypatch.setattr(suites, "family_classes", lambda name, q: ([], None))
    monkeypatch.setattr(suites, "CENSUS_PLAN", [(2, [(1,), (1,), (2,)], (3,))])
    checks = suites.suite_censuses()["checks"]
    assert checks[0][1]
    assert checks[1] == ("census n=2 (1,)|(1,)|(2,) b-count", True,
                         "counts {3: 10}, b-count 10")
    with monkeypatch.context() as m:
        m.setattr(suites, "enumerate_valid_b", lambda t: [None])
        assert not suites.suite_censuses()["checks"][1][1]
    with monkeypatch.context() as m:
        m.setattr(suites, "CENSUS_PLAN", [(2, [(1,), (1,), (1,)], (3,))])
        assert not suites.suite_censuses()["checks"][0][1]
    monkeypatch.setattr(suites, "flag_count", lambda q, n, comp: 1)
    assert not suites.suite_censuses()["checks"][0][1]


def test_stabilizer_orbits_refuses_a_set_that_does_not_generate():
    """P = Stab(U_0) has determinant-1 generators, so the bound is
    |SO_4(3)|; its chain stops at |P| < |SO_4(3)| and the call raises
    instead of returning the orbits of a smaller stabilizer."""
    q, n = 3, 2
    lines = [ch[0] for ch in enumerate_chains(q, n, Composition([1]))]
    fixed = [standard_isotropic(q, n, 1)]
    with pytest.raises(AssertionError, match="do not generate"):
        stabilizer_orbits(parabolic_generators(q, n), n, fixed, lines)
    for gens in (so_generators(q, n), group_generators(q, n),
                 small_generators(q, n)):
        assert sum(map(len, stabilizer_orbits(gens, n, fixed, lines))) \
            == len(lines)


def test_r_class_suite_fails_on_a_smaller_group(monkeypatch):
    """Run on the parabolic P < O_2n, the r-classes suite fails every
    check: both chain orders are |P|, and ``stabilizer_orbits`` refuses a
    set whose chain stops below |SO_2n(q)|."""
    monkeypatch.setattr(suites, "group_generators", parabolic_generators)
    monkeypatch.setattr(suites, "small_generators", parabolic_generators)
    res = suites.suite_r_classes()
    assert not res["ok"]
    orders = [c for c in res["checks"] if c[0].startswith("|O_")]
    small = [c for c in res["checks"] if c[0].startswith("small set: |O_")]
    partitions = [c for c in res["checks"] if c[0].startswith("b-classes")]
    assert len(orders) == len(small) == len(partitions) == \
        len(suites.R_CLASS_CELLS)
    assert not any(c[1] for c in orders + small + partitions)
    assert all("do not generate" in c[2] for c in partitions)
