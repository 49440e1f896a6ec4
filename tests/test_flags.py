import functools
import importlib.util
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from flagtype.linalg import (Mat, identity, inverse, det, canonicalize,
                             act_on_subspace, mat_mul, _rref_rows)
from flagtype.geometry import (standard_isotropic, coordinate_subspace,
                               group_generators, gl_generators,
                               so_generators, parabolic_generators,
                               random_group_element, random_isotropic,
                               w_element, bruhat_cell, small_generators)
from flagtype.flags import (Composition, validate, validate_tuple, act,
                            enumerate_chains,
                            Infeasible, tuple_to_json, flag_count,
                            subspace_orbit, PointTable, flag_spaces)

from oracles import gaussian, isotropic_subspaces


def test_composition_validation():
    c = Composition([2, 1])
    assert c.dims == (2, 3)
    c.check(3)
    with pytest.raises(ValueError):
        c.check(2)
    with pytest.raises(ValueError):
        Composition([0, 1])
    with pytest.raises(ValueError):
        Composition([])


def test_validate_examples():
    n, q = 3, 3
    e = lambda idx: coordinate_subspace(q, 2 * n, idx)
    good = (e([1]), e([1, 2]))
    assert validate(good, Composition([1, 1]), n) is None
    bad_iso = (e([1]), e([1, 6]))
    msg = validate(bad_iso, Composition([1, 1]), n)
    assert msg is not None and "isotropy" in msg
    msg = validate((e([1]),), Composition([2]), n)
    assert msg is not None and "dimension" in msg
    msg = validate((e([1]), e([2, 3])), Composition([1, 1]), n)
    assert msg is not None and "nesting" in msg
    msg = validate_tuple((good, (e([2]),)), [Composition([1, 1]),
                                             Composition([1])], n)
    assert msg is None


def _chains(q, ambient, comp, iso_n=None):
    """The flags of one composition in F_q^ambient (isotropic iff iso_n is
    set): ``flag_spaces`` without permutations."""
    return flag_spaces(q, ambient, [comp], iso_n)[comp][0]


def _subspaces(q, ambient, dim, iso_n):
    """All dim-dimensional isotropic subspaces, via the chain enumerator."""
    return [ch[0] for ch in _chains(q, ambient, Composition([dim]), iso_n)]


def test_enumeration_counts_against_oracle():
    # naive all-subspaces-filtered oracle at n = 2
    for q in (3, 5):
        for dim in (1, 2):
            mine = _subspaces(q, 4, dim, iso_n=2)
            oracle = isotropic_subspaces(q, 2, dim)
            assert sorted(s.rows for s in mine) == \
                sorted(s.rows for s in oracle)
    assert len(enumerate_chains(3, 2, Composition([2]))) == 8
    assert len(enumerate_chains(3, 2, Composition([1]))) == 16
    assert len(enumerate_chains(3, 3, Composition([3]))) == 80


def _isotropic_count(q, n, k):
    """Isotropic k-spaces of the split form on F_q^{2n}."""
    out = 1
    for i in range(k):
        out *= (q ** (n - i) - 1) * (q ** (n - i - 1) + 1)
    for i in range(1, k + 1):
        out //= q ** i - 1
    return out


def _flag_count(m, dims, q):
    """Flags of subspaces of dims d1 < ... < dk inside F_q^m."""
    out = 1
    for lo, hi in zip((0,) + dims, dims):
        out *= gaussian(m - lo, hi - lo, q)
    return out


def test_enumeration_against_oracle_n3():
    q, n = 3, 3
    for dim in (1, 2, 3):
        mine = _subspaces(q, 2 * n, dim, iso_n=n)
        oracle = isotropic_subspaces(q, n, dim)
        assert [s.rows for s in mine] == sorted(s.rows for s in oracle)


def test_enumeration_closed_form_counts():
    q, n = 5, 3
    # (1,2): a line inside a maximal isotropic, 31 lines in each of 312
    for parts, want in (((3,), 312), ((1,), 806), ((1, 2), 312 * 31)):
        comp = Composition(parts)
        top = comp.dims[-1]
        assert _isotropic_count(q, n, top) * \
            _flag_count(top, comp.dims[:-1], q) == want
        assert len(enumerate_chains(q, n, comp)) == want
        assert flag_count(q, n, comp) == want
    for parts in ((1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1), (3,)):
        comp = Composition(parts)
        assert flag_count(3, 3, comp) == len(enumerate_chains(3, 3, comp))
    for q, want in ((3, 2080), (5, 29016)):
        assert _flag_count(4, (1, 2, 3, 4), q) == want
        full = _chains(q, 4, Composition([1, 1, 1, 1]))
        assert len(full) == want


def test_enumeration_sorted_and_unique():
    cases = [enumerate_chains(3, 3, Composition(c))
             for c in ((1,), (2,), (1, 2), (1, 1, 1))]
    cases.append(_chains(3, 4, Composition([1, 2, 1])))
    for chains in cases:
        keys = [tuple(s.rows for s in ch) for ch in chains]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumeration_deterministic():
    a = enumerate_chains(3, 2, Composition([1, 1]))
    b = enumerate_chains(3, 2, Composition([1, 1]))
    assert a == b
    assert len(a) == len(set(a))
    for ch in a:
        assert validate(ch, Composition([1, 1]), 2) is None


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv("FLAGTYPE_BUDGET", "100")
    with pytest.raises(Infeasible, match="orbit budget exceeded: 102 > 100"):
        enumerate_chains(5, 3, Composition([3]))


def test_gl_flag_enumeration():
    assert len(_chains(3, 3, Composition([1, 1, 1]))) == 52
    assert len(_chains(5, 3, Composition([1, 1, 1]))) == 186


def test_act_examples_and_roundtrip():
    n, q = 2, 3
    u0 = standard_isotropic(q, n, 0)
    f = ((u0,),)
    assert act(identity(q, 2 * n), f) == f
    w1 = w_element(q, n, 1)
    img = act(w1, f)
    assert bruhat_cell(img[0][0], n) == 1
    rng = random.Random(0)
    gens = group_generators(q, n)
    chains = enumerate_chains(q, n, Composition([1, 1]))
    for _ in range(200):
        g = random_group_element(q, n, rng, gens=gens)
        ch = chains[rng.randrange(len(chains))]
        f = ((ch[0],), ch)
        assert act(inverse(g), act(g, f)) == f
        assert validate_tuple(act(g, f), [Composition([1]),
                                          Composition([1, 1])], n) is None


def test_tuple_json():
    n, q = 2, 3
    u0 = standard_isotropic(q, n, 0)
    j = tuple_to_json(((u0,),), n, q)
    assert j["n"] == n and j["q"] == q
    assert j["chains"][0][0]["basis"] == [[1, 0, 0, 0], [0, 1, 0, 0]]


def _random_space(q, n, dim, isotropic, rng):
    """A random dim-dimensional subspace of F^2n, isotropic if asked."""
    if isotropic:
        return random_isotropic(q, n, dim, rng)
    while True:
        s = canonicalize(q, 2 * n, [[rng.randrange(q) for _ in range(2 * n)]
                                    for _ in range(dim)])
        if s.dim == dim:
            return s


def _random_invertible(q, m, rng):
    while True:
        g = Mat(q, [[rng.randrange(q) for _ in range(m)] for _ in range(m)])
        if det(g) != 0:
            return g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([3, 5]), st.sampled_from([2, 3]),
       st.booleans())
def test_act_is_an_action(seed, q, n, orthogonal):
    """g·(h·x) = (gh)·x on flag tuples, for group elements and for any
    invertible matrices."""
    rng = random.Random(seed)
    if orthogonal:
        g, h = (random_group_element(q, n, rng) for _ in range(2))
    else:
        g, h = (_random_invertible(q, 2 * n, rng) for _ in range(2))

    def space():
        if orthogonal:
            return random_isotropic(q, n, rng.randrange(n + 1), rng)
        return _random_space(q, n, rng.randrange(2 * n + 1), False, rng)

    x = tuple(tuple(space() for _ in range(rng.randrange(1, 3)))
              for _ in range(rng.randrange(1, 4)))
    assert act(g, act(h, x)) == act(mat_mul(g, h), x)


@functools.lru_cache(maxsize=None)
def _generators(kind, q, m):
    return group_generators(q, m // 2) if kind == "O" else gl_generators(q, m)


@functools.lru_cache(maxsize=None)
def _plain_orbit(kind, q, m, dim):
    """The orbit of <e_1..e_dim> by a plain BFS through act_on_subspace,
    as ``subspace_orbit`` returns it: sorted by rows, with each generator
    as a permutation."""
    gens = _generators(kind, q, m)
    start = coordinate_subspace(q, m, range(1, dim + 1))
    seen, orbit = {start}, [start]
    for s in orbit:
        for g in gens:
            t = act_on_subspace(g, s)
            if t not in seen:
                seen.add(t)
                orbit.append(t)
    orbit.sort(key=lambda s: s.rows)
    pos = {s: i for i, s in enumerate(orbit)}
    return orbit, [tuple(pos[act_on_subspace(g, s)] for s in orbit)
                   for g in gens]


# O_2n on isotropic spaces for n in {2, 3}, GL_m on all spaces for m in {3, 4};
# isotropic planes at n=3 only at q=3: the plain BFS alone takes 2 s on the
# 4836 at q=5 and 10 s on the 22800 at q=7
ORBIT_CASES = ([("O", q, 2 * n, d) for n in (2, 3) for q in (3, 5, 7)
                for d in range(1, n + 1) if (n, d) != (3, 2) or q == 3]
               + [("GL", q, m, d) for m in (3, 4) for q in (3, 5)
                  for d in range(1, m)])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(ORBIT_CASES), st.integers(0, 10 ** 6))
def test_subspace_orbit_matches_plain_bfs(case, seed):
    kind, q, m, dim = case
    gens = _generators(kind, q, m)
    want = _plain_orbit(kind, q, m, dim)
    rng = random.Random(seed)
    # a random member as the start: the result does not depend on it
    start = want[0][rng.randrange(len(want[0]))]
    assert subspace_orbit(start, PointTable(gens)) == want
    # a point table filled beforehand by the orbit of the coordinate space
    # of complementary dimension, then, on a second call, by the first
    table = PointTable(gens)
    top = m // 2 if kind == "O" else m - 1
    subspace_orbit(coordinate_subspace(q, m, range(1, top + 2 - dim)), table)
    assert subspace_orbit(start, table) == want
    assert subspace_orbit(start, table) == want


def _check_flag_spaces(spaces, gens, count, rng):
    """Each space of flag_spaces has count(comp) flags, sorted by rows, and
    each permutation maps flag i to the position of g·flag_i (``act``,
    through act_on_subspace); on a space of more than 3000 flags, a seeded
    sample of 300 flags is checked."""
    for comp, (chains, perms) in spaces.items():
        assert len(chains) == count(comp)
        keys = [tuple(s.rows for s in ch) for ch in chains]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(perms) == len(gens)
        pos = {ch: i for i, ch in enumerate(chains)}
        sample = (range(len(chains)) if len(chains) <= 3000
                  else rng.sample(range(len(chains)), 300))
        for g, perm in zip(gens, perms):
            # len(chains) distinct values in 0..len(chains)-1: a permutation
            assert len(set(perm)) == len(chains)
            assert min(perm) == 0 and max(perm) == len(chains) - 1
            wrong = [i for i in sample
                     if perm[i] != pos[act(g, (chains[i],))[0]]]
            assert not wrong, wrong[:5]


@pytest.mark.parametrize("kind", [group_generators, so_generators,
                                  parabolic_generators, small_generators])
@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 3), (3, 5)])
def test_flag_spaces_permutations(kind, n, q):
    """The isotropic flag spaces of O_2n under generators of O_2n and its
    subgroups (``_check_flag_spaces``)."""
    gens = kind(q, n)
    comps = [Composition([1]), Composition([1, 1]), Composition([n])]
    spaces = flag_spaces(q, 2 * n, comps + comps[:1], n, gens)
    assert list(spaces) == comps
    _check_flag_spaces(spaces, gens, lambda c: flag_count(q, n, c),
                       random.Random(10 * n + q))


@pytest.mark.parametrize("m,q", [(3, 3), (3, 5), (4, 3), (4, 5)])
def test_gl_flag_spaces_permutations(m, q):
    """The plain flag spaces of F_q^m under GL_m's generators (iso_n None),
    one-part compositions included (``_check_flag_spaces``)."""
    gens = gl_generators(q, m)
    comps = [Composition(c) for c in [(1,), (2,), (1, 1), (1, 2)]]
    spaces = flag_spaces(q, m, comps + comps[1:2], None, gens)
    assert list(spaces) == comps
    _check_flag_spaces(spaces, gens, lambda c: _flag_count(m, c.dims, q),
                       random.Random(10 * m + q))


def test_subspace_orbit_rejects_rationals():
    s = coordinate_subspace(0, 4, [1])
    with pytest.raises(ValueError,
                       match="needs an odd prime q, not the rationals"):
        subspace_orbit(s, PointTable([identity(0, 4)]))


def _load_gfp():
    """The benchmark's independent GF(p) routines, imported from their file."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "gfp.py")
    spec = importlib.util.spec_from_file_location("gfp", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GFP = _load_gfp()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 7), st.data())
def test_gfp_rref_matches_independent_rref(p, ncols, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=ncols,
                                       max_size=ncols), max_size=6))
    got, pivots = _rref_rows([tuple(r) for r in rows], p, ncols)
    want = GFP.rref(rows, p)
    assert tuple(got) == want
    assert pivots == [r.index(1) for r in want]
