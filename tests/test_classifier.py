import itertools

import pytest

from flagtype.flags import Composition, flag_count
from flagtype.classifier import (classify, theorem17_match, gates_fired,
                                 sq_free_cover, FINITE, INFINITE,
                                 IFF_SQ, EMPIRICAL, Verdict)


def C(*parts):
    return Composition(parts)


def test_bruhat_and_k4():
    assert classify(5, [(3,)]).status == FINITE
    assert classify(5, [(3,), (1, 2)]).status == FINITE
    assert classify(2, [(1,), (1,), (1,), (1,)]).status == INFINITE
    assert classify(4, [(1,)] * 5).status == INFINITE
    assert classify(1, [(1,), (1,), (1,), (1,)]).status == FINITE


def test_spec_examples():
    v = classify(3, [(2,), (2,), (2,)], "finite")
    assert v.status == INFINITE
    v = classify(7, [(7,), (4,), (1, 1, 1, 4)], "unknown")
    assert v.status == FINITE
    assert any("III-4" in t for t in v.trace)
    v = classify(5, [(1,), (2, 3), (1, 1, 1, 1, 1)], "unknown")
    assert v.status == IFF_SQ
    assert any("I-2" in t for t in v.trace)
    assert any("gate" in t for t in v.trace)


def test_theorem17_match_examples():
    assert theorem17_match(6, C(6), C(4), C(1, 2, 3)) == "III-3"
    assert theorem17_match(6, C(6), C(4), C(2, 2, 2)) is None
    assert theorem17_match(5, C(1), C(4), C(1, 1)) == "I-1"
    assert theorem17_match(4, C(4), C(4), C(4)) == "II"
    assert theorem17_match(8, C(8), C(4), C(1, 1, 1, 5)) == "III-4"
    assert theorem17_match(8, C(8), C(5), C(2, 2)) == "III-2"
    assert theorem17_match(8, C(8), C(5), C(7,)) == "III-1"


def test_gates():
    assert gates_fired(5, [C(1), C(2, 3), C(1, 1, 1, 1, 1)]) == \
        ["gate-max-first-part"]
    assert "gate-two-two-step" in gates_fired(5, [C(5), C(1, 1),
                                                  C(1, 1, 1, 1, 1)])
    assert "gate-mid-subspace-four-steps" in gates_fired(
        7, [C(7), C(3), C(1, 1, 1, 1)])
    assert gates_fired(6, [C(6), C(4), C(1, 2, 3)]) == []


def test_square_class_sensitivity():
    triple = [(5,), (1, 1), (1, 1, 1, 1, 1)]
    assert classify(5, triple, "finite").status == FINITE
    assert classify(5, triple, "infinite").status == INFINITE
    assert classify(5, triple, "unknown").status == IFF_SQ


def test_sq_free_coverage():
    assert sq_free_cover(6, [C(6), C(4), C(1, 2, 3)]) is not None
    assert sq_free_cover(7, [C(7), C(3), C(1, 1, 1)]) is not None
    assert sq_free_cover(5, [C(5), C(1, 1), C(2, 3)]) is not None
    assert sq_free_cover(6, [C(6), C(6), C(2, 2, 2)]) is None
    # trailing unit step below a maximal space is free
    assert sq_free_cover(7, [C(7), C(4), C(2, 4, 1)]) is not None


def test_small_n_policy():
    assert classify(3, [(2,), (2,), (1, 2)]).status == INFINITE
    assert classify(3, [(1, 2), (1, 2), (1, 2)]).status == INFINITE
    assert classify(3, [(3,), (1,), (3,)]).status == FINITE
    assert classify(3, [(1,), (1, 1), (3,)]).status == FINITE
    assert classify(2, [(1, 1), (1, 1), (1, 1)]).status == EMPIRICAL
    assert classify(3, [(1,), (1, 1), (1, 2)]).status == EMPIRICAL


def test_permutation_invariance_grid():
    shapes = [[(4,), (2, 2), (1, 1, 1, 1)], [(1,), (4,), (2, 2)],
              [(4,), (4,), (1, 3)], [(2,), (1, 1), (2, 2)],
              [(4,), (1,), (1, 1, 1, 1)]]
    for n in (4, 5, 6, 8):
        for comps in shapes:
            try:
                base = classify(n, comps).status
            except ValueError:
                continue
            for perm in itertools.permutations(comps):
                assert classify(n, list(perm)).status == base


def test_coarsening_monotonicity():
    # if (g1+g2, g3) is infinite then (g1, g2, g3) is infinite
    import itertools as it
    n = 6
    others = [[(6,), (4,)], [(6,), (6,)], [(1,), (4,)]]
    for g1, g2, g3 in it.product([1, 2], repeat=3):
        if g1 + g2 + g3 > n:
            continue
        for rest in others:
            coarse = classify(n, rest + [(g1 + g2, g3)], "infinite").status
            fine = classify(n, rest + [(g1, g2, g3)], "infinite").status
            if coarse == INFINITE:
                assert fine == INFINITE, (rest, (g1, g2, g3), coarse, fine)


def test_verdict_requires_trace():
    with pytest.raises(ValueError):
        Verdict(FINITE, [])
    v = classify(7, [(7,), (4,), (1, 1, 1, 4)])
    assert v.to_json()["verdict"] == FINITE


def test_input_validation():
    with pytest.raises(ValueError):
        classify(3, [(4,), (1,), (1,)])
    with pytest.raises(ValueError):
        classify(3, [(2,), (2,), (2,)], "sometimes")
    with pytest.raises(ValueError):
        classify(3, [])


def _compositions(n):
    """Every composition with sum at most n."""
    return [(p,) + rest for p in range(1, n + 1)
            for rest in [()] + _compositions(n - p)]


def _flag_dim(n, parts):
    """dim M_c = n(n-1) - sum c_i(c_i-1)/2 - r(r-1), r = n - sum c_i."""
    r = n - sum(parts)
    return n * (n - 1) - sum(c * (c - 1) // 2 for c in parts) - r * (r - 1)


@pytest.mark.parametrize("n, above", [(2, 0), (3, 28), (4, 441), (5, 4479)])
def test_dimension_count(n, above):
    """A product of dimension above dim O_2n = n(2n-1) has infinitely many
    orbits over an infinite field: no Finite or square-class verdict may
    exceed it, and from n = 4 on every triple above it is Infinite."""
    comps = _compositions(n)
    # |M_c(F_Q)| is a polynomial in Q of degree dim M_c, with leading
    # coefficient 2 when the flag ends in a maximal isotropic space (the
    # two families) and 1 otherwise
    big_q = 10 ** 6
    for c in comps:
        lead = 2 if sum(c) == n else 1
        assert flag_count(big_q, n, Composition(c)) // \
            big_q ** _flag_dim(n, c) == lead, c
    statuses = []
    for tri in itertools.combinations_with_replacement(comps, 3):
        if sum(_flag_dim(n, c) for c in tri) > n * (2 * n - 1):
            status = classify(n, tri).status
            assert status not in (FINITE, IFF_SQ), (tri, status)
            statuses.append(status)
    assert len(statuses) == above
    if n >= 4:
        assert set(statuses) == {INFINITE}


def _forget_one_dim(parts):
    """The compositions of the flags that forget one dim of `parts`, the
    flag staying nonempty."""
    dims = list(itertools.accumulate(parts))
    out = set()
    for i in range(len(dims) if len(dims) > 1 else 0):
        kept = [0] + dims[:i] + dims[i + 1:]
        out.add(tuple(b - a for a, b in zip(kept, kept[1:])))
    return out


STRENGTH = {FINITE: 0, IFF_SQ: 1, INFINITE: 2}


@pytest.mark.parametrize("n, pairs", [(2, 8), (3, 63), (4, 3808),
                                      (5, 39600)])
def test_one_step_coarsening_never_strengthens_the_verdict(n, pairs):
    """Forgetting flag steps is a G-equivariant surjection M_T -> M_S, so
    if S is Infinite T is too, and if T is Finite S is too.  For every
    triple T at n and each coarsening S that forgets one dim of one
    component, the verdict of S is no stronger than that of T (Finite <
    IffSq < Infinite); pairs with an Empirical verdict are skipped, and
    `pairs` is how many were decided when the test was written (a verdict
    that turns Empirical would lower it)."""
    verdict = {tri: classify(n, tri).status for tri in
               itertools.combinations_with_replacement(_compositions(n), 3)}
    compared = 0
    for tri, status in verdict.items():
        for k, parts in enumerate(tri):
            for coarse in _forget_one_dim(parts):
                s = verdict[tuple(sorted(tri[:k] + (coarse,) + tri[k + 1:]))]
                if EMPIRICAL in (status, s):
                    continue
                compared += 1
                assert STRENGTH[s] <= STRENGTH[status], (tri, status, s)
    assert compared >= pairs > 0
