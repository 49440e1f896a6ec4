import random

import pytest

from flagtype.linalg import identity, inverse
from flagtype.geometry import (standard_isotropic, coordinate_subspace,
                               group_generators, random_group_element,
                               w_element, bruhat_cell)
from flagtype.flags import (Composition, validate, validate_tuple, act,
                            enumerate_chains, enumerate_chains_ambient,
                            enumerate_subspaces, BudgetExceeded,
                            tuple_to_json, flag_count)

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


def test_enumeration_counts_against_oracle():
    # naive all-subspaces-filtered oracle at n = 2
    for q in (3, 5):
        for dim in (1, 2):
            mine = enumerate_subspaces(q, 4, dim, iso_n=2)
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
        mine = enumerate_subspaces(q, 2 * n, dim, iso_n=n)
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


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_chains(5, 3, Composition([3]), budget=100)


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
