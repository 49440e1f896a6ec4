import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from flagtype.linalg import (Mat, identity, inverse, det, canonicalize,
                             act_on_subspace, mat_vec)
from flagtype.geometry import (standard_isotropic, coordinate_subspace,
                               group_generators, random_group_element,
                               random_isotropic, w_element, bruhat_cell)
from flagtype.flags import (Composition, validate, validate_tuple, act,
                            enumerate_chains, enumerate_chains_ambient,
                            Infeasible, tuple_to_json, flag_count, memo_act)
from flagtype.engine import action_points

from oracles import isotropic_subspaces


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


def _subspaces(q, ambient, dim, iso_n):
    """All dim-dimensional isotropic subspaces, via the chain enumerator."""
    return [ch[0] for ch in
            enumerate_chains_ambient(q, ambient, Composition([dim]), iso_n)]


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


def _gaussian(m, k, q):
    out = 1
    for i in range(k):
        out = out * (q ** (m - i) - 1) // (q ** (i + 1) - 1)
    return out


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
        out *= _gaussian(m - lo, hi - lo, q)
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
        full = enumerate_chains_ambient(q, 4, Composition([1, 1, 1, 1]))
        assert len(full) == want


def test_enumeration_sorted_and_unique():
    cases = [enumerate_chains(3, 3, Composition(c))
             for c in ((1,), (2,), (1, 2), (1, 1, 1))]
    cases.append(enumerate_chains_ambient(3, 4, Composition([1, 2, 1])))
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
    assert len(enumerate_chains_ambient(3, 3, Composition([1, 1, 1]))) == 52
    assert len(enumerate_chains_ambient(5, 3, Composition([1, 1, 1]))) == 186


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


@functools.lru_cache(maxsize=None)
def _seeded_memo(q, n):
    """The row memo that action_points fills for O_2n's generators: the
    image of every vector of its first block."""
    gens = group_generators(q, n)
    vectors, _, _ = action_points(gens, [])
    return {(g, v): mat_vec(g, v) for g in gens for v in vectors}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([3, 5]), st.sampled_from([2, 3]),
       st.integers(0, 6), st.booleans())
def test_memo_act_matches_act_on_subspace(seed, q, n, dim, isotropic):
    rng = random.Random(seed)
    dim = min(dim, 2 * n)
    isotropic = isotropic and dim <= n
    s = _random_space(q, n, dim, isotropic, rng)
    gens = group_generators(q, n)
    mats = gens + [random_group_element(q, n, rng),
                   _random_invertible(q, 2 * n, rng)]
    # a fresh memo; a second call is a hit and returns the same image
    fresh = {}
    for g in mats:
        assert memo_act(fresh, g, s) == act_on_subspace(g, s)
        assert memo_act(fresh, g, s) == act_on_subspace(g, s)
    # a memo already filled with the images of spaces sharing s's rows
    filled = {}
    for k in range(dim + 1):
        for rows in itertools.combinations(s.rows, k):
            sub = canonicalize(q, 2 * n, rows)
            other = _random_space(q, n, rng.randrange(2 * n + 1), False, rng)
            for g in mats:
                memo_act(filled, g, sub)
                memo_act(filled, g, other)
    assert all((g, r) in filled for g in mats for r in s.rows)
    for g in mats:
        assert memo_act(filled, g, s) == act_on_subspace(g, s)
    # the memo action_points seeds: for an isotropic s every row image under
    # O_2n's generators is already there
    seeded = dict(_seeded_memo(q, n))
    if isotropic:
        assert all((g, r) in seeded for g in gens for r in s.rows)
    for g in mats:
        assert memo_act(seeded, g, s) == act_on_subspace(g, s)


def test_memo_act_checks_field_and_ambient():
    s = coordinate_subspace(3, 4, [1])
    with pytest.raises(ValueError):
        memo_act({}, identity(5, 4), s)
    with pytest.raises(ValueError):
        memo_act({}, identity(3, 6), s)
