import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from flagtype.linalg import (Mat, identity, act_on_subspace, mat_vec,
                             canonicalize, mat_mul, RATIONAL)
from flagtype.geometry import (standard_isotropic, group_generators,
                               so_generators, parabolic_generators,
                               group_order, random_group_element,
                               coordinate_subspace, w_element,
                               bar, classify_element, IN_O_MINUS_SO,
                               is_isotropic, small_generators,
                               gl_generators, bruhat_cell, NOT_ORTHOGONAL)
from flagtype import flags
from flagtype.flags import (Composition, enumerate_chains, act, flag_spaces,
                            point_table)
from flagtype.engine import (same_orbit, census_direct, census_space,
                             census_product, signature, signatures,
                             close_group, schreier_descend, StabLevel,
                             Infeasible, tuple_key, SAME, DIFFERENT,
                             order_bound, action_points, stabilizer_orbits)
from flagtype.invariants import b_invariants
from flagtype.witnesses import FAMILIES, build, family_classes
from flagtype.canonical import (enumerate_thetas, enumerate_valid_b,
                                standard_pair)
from flagtype import engine, suites
from flagtype.suites import CENSUS_PLAN

from oracles import (act_blocks, census_full_product, gaussian, orbit,
                     path_element, rational_group_generators,
                     signature_by_meets, transvection)


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


# same_orbit's connecting element g (g·x = y) for y a translate of the
# witness flag x = m_lambda at q = 3, n = 3: the seed draws lambda, then a
# 12-letter word in the generators.  Recorded while each subspace block of
# action_points was still sorted by rows; the rows are base-3 digits.
SAME_ORBIT_GOLDEN = [
    ("O6_L32p", group_generators, 1,
     ["202102", "010000", "000102", "102202", "000010", "000101"]),
    ("O6_L32p", group_generators, 2,
     ["101010", "010101", "212220", "011121", "022120", "011122"]),
    ("O6_L32p", group_generators, 3,
     ["120100", "001010", "000011", "222120", "000111", "000012"]),
    ("O6_L322_sq", group_generators, 6,
     ["122101", "201202", "221101", "101102", "101020", "202221"]),
    ("O6_L322_sq", group_generators, 7,
     ["210122", "111210", "222201", "001001", "001020", "000021"]),
    ("O6_L322_sq", group_generators, 8,
     ["201212", "012002", "000222", "011000", "000121", "000002"]),
    ("O6_L32p", so_generators, 4,
     ["002012", "112021", "021222", "000021", "000001", "000220"]),
    ("O6_L322_sq", parabolic_generators, 5,
     ["112110", "111102", "200110", "000012", "000220", "000120"]),
]


def _translate(family, q, seed, kind):
    """(x, y, gens, n): the witness flag m_lambda and a translate of it by
    a 12-letter word in kind(q, n), drawn from seed."""
    fam = FAMILIES[family]
    n = fam.n_min
    rng = random.Random(seed)
    x = build(family, n, rng.choice(fam.lambda_domain(q, n)), q)
    gens = kind(q, n)
    g = identity(q, 2 * n)
    for _ in range(12):
        g = mat_mul(gens[rng.randrange(len(gens))], g)
    return x, act(g, x), gens, n


@pytest.mark.parametrize("family,kind,seed,rows", SAME_ORBIT_GOLDEN)
def test_same_orbit_connecting_elements_are_pinned(family, kind, seed, rows):
    """The connecting element does not depend on how action_points numbers
    its subspace points: the Schreier trees are breadth-first in label
    order and every level opens at a point of the vector block."""
    verdict, h = same_orbit(*_translate(family, 3, seed, kind), 3)
    assert verdict == SAME
    assert ["".join(map(str, r)) for r in h.rows] == rows


@pytest.mark.parametrize("kind", [parabolic_generators, group_generators])
def test_action_points_blocks(kind):
    """Each generator permutes the vector block as mat_vec and each subspace
    block as act_on_subspace: a walk of each block by act_on_subspace finds
    img[index[s]] == index[g·s] at every member.  The vector block and the
    subspace blocks, consecutive in the order of `spaces`, partition
    range(degree).  Under O_2n every row of an indexed isotropic subspace
    is a point of the vector block (Witt), so the point table the subspace
    orbits share knows every row image they need."""
    n, q = 3, 3
    gens = kind(q, n)
    m = 2 * n
    spaces = [coordinate_subspace(q, m, [1]), coordinate_subspace(q, m, [1, 2]),
              standard_isotropic(q, n, 1),
              canonicalize(q, m, [[1, 0, 0, 0, 0, 1]]),
              coordinate_subspace(q, m, [1, 2])]
    assert not is_isotropic(spaces[-2], n)
    vectors, index, images = action_points(gens, spaces)
    degree = len(images[0])
    assert vectors[:m] == [tuple(int(i == j) for j in range(m))
                           for i in range(m)]
    at = {v: i for i, v in enumerate(vectors)}
    assert len(at) == len(vectors)
    for g, img in zip(gens, images):
        assert sorted(img) == list(range(degree))
        for i, v in enumerate(vectors):
            assert img[i] == at[mat_vec(g, v)]
    blocks, members = [], []
    for s in spaces:
        if any(s in block for block in blocks):
            continue
        block = [s]
        for t in block:
            for g, img in zip(gens, images):
                gt = act_on_subspace(g, t)
                assert img[index[t]] == index[gt]
                if gt not in block:
                    block.append(gt)
        blocks.append(block)
        members += block
    assert index.lengths == [len(block) for block in blocks]
    assert len(index) == degree - len(vectors) == len(members)
    assert [index[t] for t in members] == sorted(index[t] for t in members) \
        == list(range(len(vectors), degree))
    plane = coordinate_subspace(q, m, [1, m])  # in no block: not isotropic
    assert index.get(plane) is None
    with pytest.raises(KeyError):
        index[plane]
    if kind is group_generators:
        isotropic = [s for s in members if is_isotropic(s, n)]
        assert len(isotropic) > len(spaces)
        assert all(r in at for s in isotropic for r in s.rows)


def test_action_points_refuses_the_rationals(monkeypatch):
    """Over Q the orbit of a vector is infinite: action_points raises
    ValueError before it moves any vector, where a search would run until
    the budget is spent."""
    monkeypatch.setenv("FLAGTYPE_BUDGET", "2000")
    monkeypatch.setattr(flags, "mat_vec",
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


def _clear_point_memos():
    """Forget every point table, vector block and order bound kept."""
    point_table.cache_clear()
    engine._kept_vector_block.cache_clear()
    engine._order_bound.cache_clear()


def test_order_bound_checks_each_generator_set_once(monkeypatch):
    """classify_element runs on each generator of a set once per process;
    a set that fails the check raises ValueError on every call."""
    n, q = 2, 3
    _clear_point_memos()
    calls = []

    def counted(g, n):
        calls.append(g)
        return classify_element(g, n)

    monkeypatch.setattr(engine, "classify_element", counted)
    gens = group_generators(q, n)
    assert order_bound(gens, n) == order_bound(gens, n) == group_order(q, n)
    assert len(calls) == len(gens)
    scale = Mat(q, [[2 if i == j == 0 else int(i == j) for j in range(4)]
                    for i in range(4)])
    for _ in range(2):
        with pytest.raises(ValueError, match="not orthogonal"):
            order_bound(gens + [scale], n)


def test_point_memos_keep_every_output():
    """Each output is the same from empty point memos (cold) and from
    memos that earlier calls filled (warm), the generator sets
    interleaved so that a call finds tables that other calls and other sets
    extended: census JSON (under G, and under SO, whose flag spaces run on
    G's generators and w_2), same_orbit's connecting elements, the
    stabilizer classes of witness families and the R-classes at n=2, q=3
    on small_generators (whose later thetas start orbits that earlier ones
    kept at another member, so action_points re-roots them), and
    enumerations of isotropic and of GL flags."""
    gl_comp = Composition([1, 1, 1])
    translates = [_translate("O6_L32p", 3, 1, group_generators),
                  _translate("O6_L32p", 3, 4, so_generators)]
    maxiso = [ch[0] for ch in enumerate_chains(3, 2, Composition([2]))]
    calls = {
        "census G": lambda: census_space(
            2, 3, [Composition([1]), Composition([1]), Composition([2])],
            group_generators(3, 2)).to_json(2),
        "census SO": lambda: census_space(
            2, 3, [Composition([2]), Composition([1])],
            so_generators(3, 2)).to_json(2),
        "same_orbit G": lambda: same_orbit(*translates[0], 3),
        "same_orbit SO": lambda: same_orbit(*translates[1], 3),
        "classes O4": lambda: family_classes("O4_L31_0", 5),
        "classes O6": lambda: family_classes("O6_L32p", 3),
        "R-classes": lambda: [stabilizer_orbits(
            small_generators(3, 2), 2, list(standard_pair(t, 3)), maxiso)
            for t in enumerate_thetas(2)],
        "chains": lambda: enumerate_chains(3, 3, Composition([1, 2])),
        "GL flags": lambda: flag_spaces(3, 3, [gl_comp], None,
                                        gl_generators(3, 3)[::2])[gl_comp],
    }
    cold = {}
    for name, call in calls.items():
        _clear_point_memos()
        cold[name] = call()
    assert cold["same_orbit G"][0] == cold["same_orbit SO"][0] == SAME
    order = list(calls)
    for name in order + order[::-1] + order[::2] + order[1::2]:
        assert calls[name]() == cold[name], name
        assert calls[name]() == cold[name], name


@pytest.mark.parametrize("budget", [3, 10, 30])
def test_warm_vector_block_keeps_the_budget(monkeypatch, budget):
    """A vector block kept from a call under the default budget raises
    under a lower one with the message of a cold call, moving no vector by
    matrix arithmetic, and stays kept."""
    gens = group_generators(3, 2)
    messages = []
    for warm in (False, True):
        _clear_point_memos()
        if warm:
            kept = action_points(gens, [])[0]
            monkeypatch.setattr(flags, "mat_vec",
                                lambda *a: pytest.fail("a vector was moved"))
        monkeypatch.setenv("FLAGTYPE_BUDGET", str(budget))
        with pytest.raises(Infeasible) as err:
            action_points(gens, [])
        monkeypatch.delenv("FLAGTYPE_BUDGET")
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("orbit budget exceeded: ")
    assert action_points(gens, [])[0] is kept


@pytest.mark.parametrize("make,q", [(group_generators, 3),
                                    (small_generators, 5)])
def test_warm_action_points_walks_nothing(monkeypatch, make, q):
    """Once action_points has walked the orbits of M_(1) and M_(2) at n=2,
    a call from their roots and a call from other members (the kept orbits
    re-rooted) walk no orbit, and give the vectors, block lengths, the
    point of every space and the images of a cold call."""
    n = 2
    gens = make(q, n)
    lines, planes = [[ch[0] for ch in enumerate_chains(q, n, Composition([d]))]
                     for d in (1, 2)]
    first = [lines[0], planes[0]]

    def outputs(spaces):
        vectors, index, images = action_points(gens, spaces)
        return (vectors, index.lengths,
                [index.get(s) for s in lines + planes], images)

    for spaces in (first, [planes[-1], lines[-1]]):
        _clear_point_memos()
        cold = outputs(spaces)
        _clear_point_memos()
        action_points(gens, first)
        table = point_table(tuple(gens))
        at_root = [not table.orbits[table.known_key(s)][2] for s in spaces]
        assert at_root == [spaces is first] * 2
        with monkeypatch.context() as m:
            m.setattr(flags, "key_orbit",
                      lambda *a: pytest.fail("an orbit was walked"))
            assert outputs(spaces) == cold
    _clear_point_memos()


@pytest.mark.parametrize("make", [group_generators, so_generators])
def test_kept_orbit_re_roots_exactly(monkeypatch, make):
    """From every member of M_(1) and of M_(2) at n=2, q=3, the kept orbit
    equals a walk from that member on the same table; each orbit is walked
    once (under SO_4, M_(2) is two orbits) and kept once."""
    n, q = 2, 3
    spaces = [ch[0] for d in (1, 2)
              for ch in enumerate_chains(q, n, Composition([d]))]
    _clear_point_memos()
    table = point_table(tuple(make(q, n)))
    walk, walks = flags.key_orbit, []
    monkeypatch.setattr(flags, "key_orbit",
                        lambda key, t: walks.append(key) or walk(key, t))
    for s in spaces:
        key = table.key(s)
        assert flags.kept_orbit(key, table) == walk(key, table)
    assert len(walks) == len({id(v[0]) for v in table.orbits.values()}) \
        == (2 if make is group_generators else 3)
    assert len(table.orbits) == len(spaces)
    _clear_point_memos()


def test_kept_orbit_keeps_the_budget(monkeypatch):
    """Under a lower FLAGTYPE_BUDGET a kept orbit raises, from its root and
    from another member, with the message of a cold walk, and stays kept; a
    walk that raises (past the budget, or on a singular generator) keeps
    nothing."""
    n, q = 2, 3
    gens = tuple(group_generators(q, n))
    planes = [ch[0] for ch in enumerate_chains(q, n, Composition([2]))]
    messages = []
    for warm in (False, True):
        _clear_point_memos()
        table = point_table(gens)
        keys = [table.key(s) for s in planes]
        if warm:
            flags.kept_orbit(keys[0], table)
            kept = table.orbits[keys[0]]
        monkeypatch.setenv("FLAGTYPE_BUDGET", "5")
        for key in (keys[0], keys[-1]):
            with pytest.raises(Infeasible) as err:
                flags.kept_orbit(key, table)
            messages.append((key, str(err.value)))
        monkeypatch.delenv("FLAGTYPE_BUDGET")
        if warm:
            assert table.orbits[keys[0]] is kept
            with monkeypatch.context() as m:
                m.setattr(flags, "key_orbit",
                          lambda *a: pytest.fail("an orbit was walked"))
                assert flags.kept_orbit(keys[0], table) == kept[:2]
        else:
            assert table.orbits == {}
    assert messages[:2] == messages[2:]
    assert messages[0][1].startswith("orbit budget exceeded: ")
    singular = Mat(q, [[int(i == j < 3) for j in range(4)]
                       for i in range(4)])
    table = point_table((identity(q, 4), singular))
    for _ in range(2):
        with pytest.raises(ValueError, match="singular generator"):
            flags.kept_orbit(table.key(coordinate_subspace(q, 4, [3, 4])),
                             table)
        assert table.orbits == {}
    _clear_point_memos()


@pytest.mark.parametrize("make,n,q", [(group_generators, 2, 3),
                                      (so_generators, 3, 3),
                                      (small_generators, 2, 5)])
def test_point_table_scales(make, n, q):
    """After a census and an action_points call, every kept table moves
    each point it has moved as its images and scales say:
    g_gi·points[p] = scales[gi][p]·points[images[gi][p]]."""
    _clear_point_memos()
    gens = make(q, n)
    census_space(n, q, [Composition([1]), Composition([n])], gens)
    action_points(gens, [standard_isotropic(q, n, 1)])
    tables = [flags.group_table(q, 2 * n, n, gens)[0],
              point_table(tuple(gens))]
    for table in tables:
        assert len({len(x) for x in table.images + table.scales}) == 1
        assert table.images[0]
        for g, img, scl in zip(table.gens, table.images, table.scales):
            for p, (i, c) in enumerate(zip(img, scl)):
                assert mat_vec(g, table.points[p]) == tuple(
                    c * x % q for x in table.points[i])
    _clear_point_memos()


@pytest.mark.parametrize("make,n,q", [(group_generators, 2, 3),
                                      (group_generators, 3, 3),
                                      (parabolic_generators, 2, 5)])
def test_vector_block_on_a_warm_table(make, n, q):
    """The vector block built on a table that flag_spaces has filled has
    the vectors and images of a build on an empty table."""
    _clear_point_memos()
    gens = make(q, n)
    flag_spaces(q, 2 * n, [Composition([1, 1]), Composition([n])], n, gens)
    table, _ = flags.group_table(q, 2 * n, n, gens)
    assert table.images[0]
    cold = engine._vector_block(flags.PointTable(table.gens), 10 ** 6)
    assert engine._vector_block(table, 10 ** 6) == cold
    _clear_point_memos()


def test_point_memos_are_bounded():
    """The point tables, vector blocks and order bounds are kept for the
    last POINT_TABLES generator sets used, whichever call made them: a
    pass over more sets than that keeps no more, and drops the set used
    longest ago."""
    _clear_point_memos()
    memos = [point_table, engine._kept_vector_block, engine._order_bound]
    sets = [(n, make(q, n)) for n, q in [(2, 3), (2, 5), (3, 3)]
            for make in (group_generators, so_generators, small_generators,
                         parabolic_generators)]
    assert len(sets) > flags.POINT_TABLES
    for n, gens in sets:
        q = gens[0].q
        order_bound(gens, n)
        action_points(gens, [standard_isotropic(q, n, 0)])
        enumerate_chains(q, n, Composition([1]))
        for memo in memos:
            info = memo.cache_info()
            assert info.maxsize == flags.POINT_TABLES
            assert info.currsize <= flags.POINT_TABLES
    for n, gens in (sets[-1], sets[0]):
        hits = engine._order_bound.cache_info().hits
        order_bound(gens, n)
        assert engine._order_bound.cache_info().hits == hits + (
            gens is sets[-1][1])
    _clear_point_memos()


@pytest.mark.parametrize("fail", ["singular", "mat_vec"])
def test_key_walk_exception_keeps_the_table_whole(monkeypatch, fail):
    """An exception while the table finds a point's images (here a
    singular generator sending a point to 0, which raises ValueError, or a
    failing mat_vec) leaves every images[gi] of one length, so a later walk
    over the kept table raises again and stores nothing half done."""
    q = 3
    singular = Mat(q, [[int(i == j < 3) for j in range(4)]
                       for i in range(4)])
    gens = [identity(q, 4), singular] if fail == "singular" \
        else gl_generators(q, 4)
    if fail == "mat_vec":
        calls = []

        def failing(g, v):
            calls.append(v)
            if len(calls) > len(gens) + 1:
                raise RuntimeError("mat_vec failed")
            return mat_vec(g, v)

        monkeypatch.setattr(flags, "mat_vec", failing)
    _clear_point_memos()
    table = point_table(tuple(gens))
    plane = coordinate_subspace(q, 4, [3, 4])
    error = ValueError if fail == "singular" else RuntimeError
    for _ in range(2):
        with pytest.raises(error, match="singular generator|mat_vec failed"):
            flags.key_orbit(table.key(plane), table)
        assert len({len(img) for img in table.images}) == 1
    _clear_point_memos()


def test_census_direct_refuses_a_singular_generator():
    """A singular generator raises ValueError naming it, from the kept table
    of O_2n's generators and it, which stays whole for a later call."""
    n, q = 2, 3
    singular = Mat(q, [[int(i == j < 3) for j in range(4)]
                       for i in range(4)])
    tuples = [(ch,) for ch in enumerate_chains(q, n, Composition([1]))]
    gens = group_generators(q, n) + [singular]
    table, _ = flags.group_table(q, 2 * n, n, gens)
    for _ in range(2):
        with pytest.raises(ValueError, match="singular generator %s"
                           % re.escape(repr(singular.rows))):
            census_direct(tuples, gens, n, q)
        assert len({len(img) for img in table.images}) == 1
    _clear_point_memos()


def test_vector_block_refuses_a_singular_generator():
    """diag(1, 1, 1, 0) sends e_4 to 0: ValueError naming it from
    action_points, same_orbit and stabilizer_orbits, on every call, as a
    failed vector block is not kept."""
    n, q = 2, 3
    singular = Mat(q, [[int(i == j < 3) for j in range(4)]
                       for i in range(4)])
    gens = [identity(q, 4), singular]
    lines = [coordinate_subspace(q, 4, [i]) for i in (1, 2)]
    message = "singular generator %s sends %s to 0" % (
        re.escape(repr(singular.rows)), re.escape(repr((0, 0, 0, 1))))
    _clear_point_memos()
    for call in (lambda: action_points(gens, lines[:1]),
                 lambda: same_orbit(((lines[0],),), ((lines[1],),), gens,
                                    n, q),
                 lambda: stabilizer_orbits(gens, n, lines[:1], lines)):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                call()
    assert engine._kept_vector_block.cache_info().currsize == 0
    _clear_point_memos()


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
        [(ch,) for ch in lines[1:]],      # a strict subset of M_(1)
        tuples[:1] + [(lines[0],)],       # tuples of two lengths
        [],                               # no flag space at all
    ]
    for case in bad:
        with pytest.raises(ValueError):
            census_direct(case, gens, n, q)
    # the q + 1 lines of U_0, which P keeps: a block, but not all of M_(1)
    u0 = standard_isotropic(q, n, 0)
    u0_lines = [ch for ch in lines if u0.contains_space(ch[0])]
    assert len(u0_lines) == q + 1
    for group in (gens, parabolic_generators(q, n)):
        with pytest.raises(ValueError):
            census_product([tops, u0_lines, u0_lines], group, n, q)
    # the empty chain, and a 3-space of F^4, lie in no flag space at n=2
    for chains in ([()], [(coordinate_subspace(q, 2 * n, [1, 2, 3]),)]):
        with pytest.raises(ValueError):
            census_product([chains], gens, n, q)


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
    """census_space against census_product on the enumerated lists, each
    reversed, for every CENSUS_PLAN shape at q=3: a list's order does not
    change the census."""
    q = 3
    for n, comps, _ in CENSUS_PLAN:
        cs = [Composition(c) for c in comps]
        gens = kind(q, n)
        got = census_space(n, q, cs, gens)
        want = census_product([enumerate_chains(q, n, c)[::-1] for c in cs],
                              gens, n, q)
        assert got.to_json(n) == want.to_json(n)


@pytest.mark.parametrize("comp", [(1,), (2,)])
def test_census_refuses_a_generator_outside_o2n(comp):
    """A GL generator outside O_2n moves an isotropic flag off M_c, so the
    enumeration outgrows flag_count: AssertionError from census_space, and
    from census_direct and census_product on the whole list."""
    n, q = 2, 3
    gl = [g for g in gl_generators(q, 2 * n)
          if classify_element(g, n) == NOT_ORTHOGONAL][0]
    gens = group_generators(q, n) + [gl]
    chains = enumerate_chains(q, n, Composition(comp))
    for call in (lambda: census_product([chains], gens, n, q),
                 lambda: census_direct([(ch,) for ch in chains], gens, n, q),
                 lambda: census_space(n, q, [Composition(comp)], gens)):
        with pytest.raises(AssertionError, match="not closed under the "
                                                 "action"):
            call()


def test_census_refuses_a_foreign_chain():
    """A list of |M_(1)| chains with one isotropic line swapped for the
    non-isotropic <e_1 + e_4> is no flag space: ValueError from
    census_product and census_direct, under O_2n's generators and under
    none (which would census the list as it is)."""
    n, q = 2, 3
    lines = enumerate_chains(q, n, Composition([1]))
    foreign = (canonicalize(q, 2 * n, [[1, 0, 0, 1]]),)
    assert not is_isotropic(foreign[0], n)
    chains = lines[:-1] + [foreign]
    for gens in group_generators(q, n), []:
        with pytest.raises(ValueError, match="not a whole flag space"):
            census_product([chains], gens, n, q)
        with pytest.raises(ValueError, match="not a whole flag space"):
            census_direct([(ch,) for ch in chains], gens, n, q)


def test_census_checks_field_and_ambient():
    """census_direct and census_product on q=3 chains in F^4 refuse
    generators over GF(5) or of size 6 with ValueError, before any point
    table is made or used."""
    n, q = 2, 3
    spaces = [enumerate_chains(q, n, Composition([1]))]
    tuples = [(ch,) for ch in spaces[0]]
    _clear_point_memos()
    for bad in identity(5, 4), identity(3, 6):
        for gens in [bad], group_generators(q, n) + [bad]:
            with pytest.raises(ValueError, match="field/ambient mismatch "
                                                 "in action"):
                census_direct(tuples, gens, n, q)
            with pytest.raises(ValueError, match="field/ambient mismatch "
                                                 "in action"):
                census_product(spaces, gens, n, q)
    info = point_table.cache_info()
    assert info.hits == info.misses == 0


@pytest.mark.parametrize("n,q", [(2, 3), (3, 3)])
def test_census_direct_shares_the_group_table(n, q):
    """After M_(n) is enumerated, census_direct under P and then G finds
    the enumeration's point table (O_2n's generators hold P's), and SO
    adds one table, O_2n's generators and w_2."""
    _clear_point_memos()
    tuples = max_flags(q, n)
    misses = point_table.cache_info().misses
    for kind, added in ((parabolic_generators, 0), (group_generators, 0),
                        (so_generators, 1), (so_generators, 0)):
        census_direct(tuples, kind(q, n), n, q)
        misses += added
        assert point_table.cache_info().misses == misses, kind
    _clear_point_memos()


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5)])
def test_p_cells_have_the_closed_form_sizes(n, q):
    """Cell d of M_(n) under P, d = ``bruhat_cell``, has
    q^(d(d-1)/2) [n choose d]_q spaces, by census_direct and by
    census_space alike."""
    gens = parabolic_generators(q, n)
    want = [(d, q ** (d * (d - 1) // 2) * gaussian(n, d, q))
            for d in range(n + 1)]
    for cen in (census_direct(max_flags(q, n), gens, n, q),
                census_space(n, q, [Composition([n])], gens)):
        assert sorted((bruhat_cell(rep[0][0], n), size) for rep, size
                      in zip(cen.representatives, cen.orbit_sizes)) == want


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
        want = census_full_product(*act_blocks(spaces, gens), n, q,
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


def _chain(draw, q, n):
    """A nested chain in F^2n of 1-3 dims in 0..2n, either spanned by
    prefixes of random rows or isotropic (prefixes of a basis of g.U_0, g a
    random word of transvections)."""
    entries = st.integers(0, q - 1) if q else st.integers(-2, 2)
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
    dims = sorted(draw(st.sets(st.integers(0, top), min_size=1, max_size=3)))
    return tuple(canonicalize(q, 2 * n, rows[:d]) for d in dims)


@st.composite
def chain_tuples(draw, fields=(3, 5, RATIONAL)):
    """(q, n, ft): 1-3 chains (``_chain``) in F^2n, 2 <= n <= 4."""
    q = draw(st.sampled_from(fields))
    n = draw(st.integers(2, 4))
    return q, n, tuple(_chain(draw, q, n)
                       for _ in range(draw(st.integers(1, 3))))


@st.composite
def tuple_lists(draw):
    """(n, fts): 1-6 flag tuples in F^2n, 2 <= n <= 3, over one field, of
    0-4 chains each, drawn from a pool of 1-4 chains (``_chain``) and of
    the one-space chains of their spaces, so that spaces recur across the
    tuples and within them."""
    q = draw(st.sampled_from((3, 5, RATIONAL)))
    n = draw(st.integers(2, 3))
    pool = [_chain(draw, q, n) for _ in range(draw(st.integers(1, 4)))]
    pool += [(s,) for ch in pool for s in ch]
    fts = st.lists(st.sampled_from(pool), max_size=4).map(tuple)
    return n, draw(st.lists(fts, min_size=1, max_size=6))


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


@settings(max_examples=100, deadline=None)
@given(tuple_lists())
def test_signatures_share_ranks(case):
    n, fts = case
    assert signatures(fts, n) == [signature_by_meets(ft, n) for ft in fts]


def test_signatures_never_share_ranks_across_fields():
    """Equal rows over GF(3) and GF(5) are different spaces: <(1,2,0,0)>
    lies in the plane P over GF(3) alone, and the line L is isotropic over
    GF(3) alone, so the join and Gram ranks differ between the fields."""
    n = 2
    rows = {"P": [(1, 0, 1, 0), (0, 1, 1, 0)], "T": [(1, 2, 0, 0)],
            "L": [(1, 1, 1, 2)]}
    fts = {q: tuple((canonicalize(q, 2 * n, r),) for r in rows.values())
           for q in (3, 5)}
    assert all(ch[0].rows == tuple(r) for q in (3, 5)
               for ch, r in zip(fts[q], rows.values()))
    assert signature_by_meets(fts[3], n) != signature_by_meets(fts[5], n)
    mixed = [fts[3], fts[5], fts[3], fts[5]]
    assert signatures(mixed, n) == [signature_by_meets(ft, n) for ft in mixed]


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
    # each tuple is checked alone: a list may mix fields, not a tuple
    assert signatures([((zero,),), ((canonicalize(5, 2 * n, []),),)], n) \
        == [signature_by_meets(((zero,),), n)] * 2
    with pytest.raises(ValueError):
        signatures([((full,),), ((zero,), (canonicalize(5, 2 * n, []),))], n)


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
    """A census past FLAGTYPE_BUDGET raises Infeasible: M_(1) at n=3, q=3
    has 130 lines."""
    n, q = 3, 3
    monkeypatch.setenv("FLAGTYPE_BUDGET", "5")
    # the engine re-exports the one exception of the flags module
    assert Infeasible is flags.Infeasible
    with pytest.raises(Infeasible):
        census_space(n, q, [Composition([1])], group_generators(q, n))


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
    signature."""
    n, q = 2, 3
    gens = kind(q, n)
    inputs = [[enumerate_chains(q, n, Composition(c)) for c in comps]
              for m, comps, _ in CENSUS_PLAN if m == n]
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


def test_stabilizer_orbits_refuses_a_non_generating_set_before_any_chain(
        monkeypatch):
    """small_generators(3, 3) without w_1 fixes U_0: the block of U_0 has
    one member, not |M_(3)|/2, so the call raises before building the
    Schreier-Sims chain that would run down to the order of P."""
    q, n = 3, 3
    gens = small_generators(q, n)[:-1]
    u0 = standard_isotropic(q, n, 0)
    assert all(act_on_subspace(g, u0) == u0 for g in gens)
    lines = [coordinate_subspace(q, 2 * n, [i]) for i in range(1, 2 * n + 1)]
    monkeypatch.setattr(engine, "StabChain",
                        lambda *a, **k: pytest.fail("a chain was built"))
    with pytest.raises(AssertionError,
                       match="do not generate .* has 1 images, expected 40"):
        stabilizer_orbits(gens, n, [u0], lines)


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
