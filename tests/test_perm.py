"""The Schreier-Sims chain and the orbit helper, against sympy's
PermutationGroup and against brute force."""

import random

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from flagtype.engine import action_points, order_bound
from flagtype.geometry import (coordinate_subspace, group_generators,
                               group_order, parabolic_generators,
                               so_generators)
from flagtype.perm import StabChain, inv, mul, orbits

from oracles import act_blocks, orbit


def sympy_group(images):
    return PermutationGroup([Permutation(list(p)) for p in images])


def random_gens(rng, degree):
    gens = []
    for _ in range(rng.randrange(1, 4)):
        p = list(range(degree))
        if rng.random() < 0.5:
            i, j = rng.sample(range(degree), 2)
            p[i], p[j] = p[j], p[i]
        else:
            rng.shuffle(p)
        gens.append(tuple(p))
    return gens


def closure(gens, degree):
    ident = tuple(range(degree))
    group = {ident}
    frontier = [ident]
    while frontier:
        frontier = [mul(x, g) for x in frontier for g in gens]
        frontier = [y for y in set(frontier) if y not in group]
        group.update(frontier)
    return group


def test_mul_and_inv():
    p, r = (1, 2, 0, 3), (0, 3, 1, 2)
    assert mul(p, r) == (3, 1, 0, 2)
    assert mul(p, inv(p)) == (0, 1, 2, 3)
    assert mul((0,), (0,)) == (0,)


def test_orbits_against_brute_force():
    rng = random.Random(3)
    for _ in range(20):
        degree = rng.randrange(2, 12)
        gens = random_gens(rng, degree)
        group = closure(gens, degree)
        got = orbits(gens, range(degree))
        assert [o[0] for o in got] == sorted(o[0] for o in got)
        for orb in got:
            assert orb[0] == min(orb)
            assert set(orb) == {g[orb[0]] for g in group}
        assert sorted(x for o in got for x in o) == list(range(degree))


def test_orbits_without_generators_and_on_a_sub_range():
    assert orbits([], range(3)) == [[0], [1], [2]]
    assert orbits([], [5, 2]) == [[5], [2]]
    # (0 1)(3 4 5) on six points: the orbits of the invariant set {2..5}
    gens = [(1, 0, 2, 4, 5, 3)]
    assert orbits(gens, range(2, 6)) == [[2], [3, 4, 5]]
    assert orbits(gens, [5, 0]) == [[5, 3, 4], [0, 1]]


def check_schreier_vectors(chain, elements):
    """Every tree edge is labelled by a permutation that makes it, and the
    next label undoes that one; transversal(j, x) carries x to base[j] on
    the basic orbit and is None off it; every element sifts to 1."""
    for j, b in enumerate(chain.base):
        sv, labels = chain.sv[j], chain.labels[j]
        assert len(set(chain.orbit[j])) == len(chain.orbit[j]) == len(sv)
        assert len(labels) == 2 * len(chain.gens[j])
        for y, step in sv.items():
            if step is None:
                assert y == b
                continue
            k, x = step
            assert labels[k][x] == y
            assert mul(labels[k], labels[k ^ 1]) == chain.ident
        for x in range(chain.degree):
            t = chain.transversal(j, x)
            if x in sv:
                assert t[x] == b
            else:
                assert t is None
    for g in elements:
        assert chain.sift(g)[0] == chain.ident


def test_chain_on_random_groups():
    rng = random.Random(7)
    for _ in range(40):
        degree = rng.randrange(2, 9)
        gens = random_gens(rng, degree)
        group = closure(gens, degree)
        chain = StabChain(gens, degree)
        assert chain.order() == len(group) == sympy_group(gens).order()
        check_schreier_vectors(chain, group)
        assert StabChain(gens, degree, order=2 * len(group)).order() == \
            len(group)
        for g in rng.sample(sorted(group), min(10, len(group))):
            assert chain.sift(g)[0] == chain.ident
        b = rng.randrange(degree)
        based = StabChain(gens, degree, base=(b,), order=len(group))
        assert based.base[0] == b
        check_schreier_vectors(based, group)
        stab = {g for g in group if g[b] == b}
        sub = StabChain(based.stabilizer(), degree, order=len(stab))
        assert len(stab) * len(based.orbit[0]) == len(group)
        assert all(g[b] == b for g in based.stabilizer())
        assert sub.order() == len(stab)


def test_transversals_on_the_o6_vector_action():
    """The chain of O_6(3) on its 260 isotropic vectors (the first block of
    action_points), bounded and unbounded; elements are the generators
    and seeded random words in them."""
    q, n = 3, 3
    gens = group_generators(q, n)
    _, _, images = action_points(gens, [])
    rng = random.Random(5)
    words = []
    for _ in range(30):
        g = images[0]
        for _ in range(rng.randrange(1, 12)):
            g = mul(g, rng.choice(images))
        words.append(g)
    for order in (order_bound(gens, n), None):
        chain = StabChain(images, len(images[0]), order=order)
        assert chain.order() == group_order(q, n)
        check_schreier_vectors(chain, list(images) + words)


# (generators, base): rebuilding the Schreier tree of a level whose Schreier
# generators are already checked makes a chain stop below the group's order
# on the first three, by factors of 2, 3150 and 1081080; the fourth does the
# same to a chain whose trees use the generators alone, without inverses
REBUILD_TRAPS = [
    ([(0, 1, 2, 3, 5, 4, 6, 7, 8, 9), (4, 5, 6, 9, 0, 2, 8, 1, 7, 3),
      (0, 1, 7, 3, 4, 5, 6, 2, 8, 9), (0, 1, 2, 3, 4, 5, 6, 8, 7, 9)], (5, 0)),
    ([(8, 2, 9, 5, 7, 10, 0, 6, 1, 3, 4, 11),
      (0, 1, 2, 3, 4, 7, 6, 5, 8, 9, 10, 11)], (3, 9)),
    ([(0, 1, 15, 12, 11, 17, 13, 9, 2, 5, 3, 8, 16, 7, 6, 14, 4, 10),
      (0, 1, 2, 3, 4, 5, 16, 7, 8, 9, 10, 11, 12, 13, 14, 15, 6, 17)], ()),
    ([(2, 3, 6, 7, 1, 0, 13, 12, 9, 8, 10, 11, 17, 16, 15, 14, 4, 5),
      (0, 14, 2, 3, 4, 5, 6, 7, 8, 9, 1, 11, 12, 13, 10, 15, 16, 17)],
     (14, 13)),
]


@pytest.mark.parametrize("gens,base", REBUILD_TRAPS)
def test_chain_keeps_checked_trees(gens, base):
    chain = StabChain(gens, len(gens[0]), base=base)
    assert chain.order() == sympy_group(gens).order()


def test_chain_rejects_a_wrong_order():
    """`order` is an upper bound: a chain that exceeds it raises, and one
    that stays below it is completed to the exact order."""
    gens = [(1, 2, 0, 3), (1, 0, 2, 3)]
    assert StabChain(gens, 4).order() == 6
    with pytest.raises(AssertionError):
        StabChain(gens, 4, order=3)
    assert StabChain(gens, 4, order=12).order() == 6


GROUPS = {"P": parabolic_generators, "SO": so_generators,
          "G": group_generators}


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (3, 3), (3, 5)])
def test_chain_order_matches_sympy(n, q):
    """Orders of P, SO and G acting on M_(1) and M_(n)."""
    gens = group_generators(q, n)
    for d in (1, n):
        start = ((coordinate_subspace(q, 2 * n, range(1, d + 1)),),)
        members, _ = orbit(start, gens, q)
        chains = [m[0] for m in members]
        for name, kind in GROUPS.items():
            _, images = act_blocks([chains], kind(q, n))
            order = StabChain(images, len(chains)).order()
            assert order == sympy_group(images).order(), (name, d)
            if name == "G" and d == 1:
                # the kernel of the action on lines is {+-I}
                assert group_order(q, n) == 2 * order
