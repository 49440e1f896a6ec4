import random

import pytest

from flagtype.linalg import Mat, canonicalize, identity, act_on_subspace
from flagtype.geometry import (form, perp, classify_element, IN_SO,
                               IN_O_MINUS_SO, NOT_ORTHOGONAL, w_element, ell,
                               standard_isotropic, bruhat_cell,
                               group_generators, so_generators,
                               parabolic_generators, group_order, sp_order,
                               unipotent_radical_basis, random_isotropic,
                               random_group_element, coordinate_subspace,
                               is_isotropic)
from flagtype.engine import close_group

from oracles import isotropic_subspaces


def orbit_of(s, gens):
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act_on_subspace(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_perp_examples():
    n = 3
    e1 = coordinate_subspace(3, 6, [1])
    assert perp(e1, n) == coordinate_subspace(3, 6, [1, 2, 3, 4, 5])
    u0 = standard_isotropic(3, n, 0)
    assert perp(u0, n) == u0


def test_perp_double_and_reversing():
    rng = random.Random(0)
    for _ in range(500):
        q = rng.choice([3, 5])
        n = rng.choice([2, 3])
        s = canonicalize(q, 2 * n,
                         [[rng.randrange(q) for _ in range(2 * n)]
                          for _ in range(rng.randrange(0, 2 * n))])
        ss = perp(perp(s, n), n)
        assert ss == s
        assert s.dim + perp(s, n).dim == 2 * n
    for _ in range(100):
        q, n = 3, 2
        a = random_isotropic(q, n, 1, rng)
        b = random_isotropic(q, n, 2, rng)
        if b.contains_space(a):
            assert perp(a, n).contains_space(perp(b, n))


def test_classify_element():
    n, q = 2, 3
    assert classify_element(identity(q, 4), n) == IN_SO
    assert classify_element(w_element(q, n, 1), n) == IN_O_MINUS_SO
    bad = Mat(q, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert classify_element(bad, n) == NOT_ORTHOGONAL
    rng = random.Random(1)
    from flagtype.linalg import det
    for _ in range(20):
        while True:
            a = Mat(q, [[rng.randrange(q) for _ in range(n)]
                        for _ in range(n)])
            if det(a) != 0:
                break
        assert classify_element(ell(a, n), n) == IN_SO


def test_w_parity_up_to_n5():
    for n in range(1, 6):
        for d in range(n + 1):
            want = IN_SO if d % 2 == 0 else IN_O_MINUS_SO
            assert classify_element(w_element(3, n, d), n) == want


def test_ell_example_and_ud():
    a = Mat(5, [[2, 0], [0, 1]])
    e = ell(a, 2)
    assert [e.rows[i][i] for i in range(4)] == [2, 1, 1, 3]
    assert ell(identity(5, 3), 3) == identity(5, 6)
    for n in (2, 3):
        u0 = standard_isotropic(3, n, 0)
        for d in range(n + 1):
            ud = standard_isotropic(3, n, d)
            from flagtype.linalg import meet
            assert meet(ud, u0).dim == n - d
            assert act_on_subspace(w_element(3, n, d), u0) == ud


def test_bruhat_cell():
    n, q = 2, 3
    assert bruhat_cell(standard_isotropic(q, n, 0), n) == 0
    assert bruhat_cell(standard_isotropic(q, n, 1), n) == 1
    with pytest.raises(ValueError):
        bruhat_cell(coordinate_subspace(q, 4, [1]), n)
    cells = {}
    for s in isotropic_subspaces(q, n, n):
        cells.setdefault(bruhat_cell(s, n), 0)
        cells[bruhat_cell(s, n)] += 1
    assert sorted(cells) == [0, 1, 2]
    assert sum(cells.values()) == 8


def test_generator_validation_against_bruteforce():
    # G-orbit of U_0 is the full set of maximal isotropics (oracle-checked)
    for n, q in [(2, 3), (2, 5)]:
        gens = group_generators(q, n)
        orb = orbit_of(standard_isotropic(q, n, 0), gens)
        oracle = set(isotropic_subspaces(q, n, n))
        assert orb == oracle
    # and the n=3, q=3 count matches the frozen brute-force value 80
    orb = orbit_of(standard_isotropic(3, 3, 0), group_generators(3, 3))
    assert len(orb) == 80


def test_so_split_and_parabolic_cells():
    for n, q in [(2, 3), (2, 5)]:
        full = orbit_of(standard_isotropic(q, n, 0), group_generators(q, n))
        o0 = orbit_of(standard_isotropic(q, n, 0), so_generators(q, n))
        o1 = orbit_of(standard_isotropic(q, n, 1), so_generators(q, n))
        assert not (o0 & o1) and o0 | o1 == full
        cells = []
        rest = set(full)
        pgens = parabolic_generators(q, n)
        while rest:
            o = orbit_of(next(iter(rest)), pgens)
            cells.append(o)
            rest -= o
        assert len(cells) == n + 1


def test_generator_sets_are_built_once_and_returned_fresh():
    """Each set is built once per (q, n); a caller that changes the list it
    got changes neither the cached set nor the next caller's list."""
    for kind in (parabolic_generators, so_generators, group_generators):
        first = kind(3, 2)
        want = list(first)
        first.append(identity(3, 4))
        first[0] = w_element(3, 2, 0)
        again = kind(3, 2)
        assert again == want and again is not first
        assert all(a is b for a, b in zip(again, kind(3, 2)))
    assert group_generators(3, 2)[:-1] == parabolic_generators(3, 2)
    assert so_generators(3, 2)[-1] == w_element(3, 2, 2)


def test_unipotent_radical_dimension():
    for n in (2, 3, 4):
        assert len(unipotent_radical_basis(3, n)) == n * (n - 1) // 2


def test_group_order_formula_vs_materialization():
    gens = group_generators(3, 2)
    grp = close_group(gens, group_order(3, 2) + 8)
    assert len(grp) == 1152 == group_order(3, 2)
    assert group_order(3, 1) == 4  # O_2^+(F_3) = {diag, antidiag} x {t, 1/t}
    assert sp_order(3, 2) == 51840


def test_random_isotropic_is_isotropic():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        q = rng.choice([3, 5])
        d = rng.randrange(n + 1)
        s = random_isotropic(q, n, d, rng)
        assert s.dim == d and is_isotropic(s, n)


def test_two_maximal_extensions_of_corank_one():
    # an (n-1)-dimensional isotropic lies in exactly two maximal isotropics
    rng = random.Random(7)
    for n, q in [(2, 3), (3, 3)]:
        exts = {}
        corank_one = isotropic_subspaces(q, n, n - 1)
        for v in isotropic_subspaces(q, n, n):
            for w in corank_one:
                if v.contains_space(w):
                    exts.setdefault(w, 0)
                    exts[w] += 1
        assert set(exts.values()) == {2}


def test_random_group_element_in_group():
    rng = random.Random(6)
    for _ in range(20):
        n, q = rng.choice([(2, 3), (3, 5)])
        g = random_group_element(q, n, rng)
        assert classify_element(g, n) != NOT_ORTHOGONAL
