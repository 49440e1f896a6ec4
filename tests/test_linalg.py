import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagtype.linalg import (Mat, canonicalize, meet, join, kernel, rank,
                             identity, inverse, mat_mul, det, solve,
                             zero_space, full_space,
                             complement_basis, check_field, check_prime, sc,
                             act_on_subspace, _span, _rref_rows, rank_rows,
                             RATIONAL)
from flagtype.geometry import form, perp
from oracles import span_vectors, vectors_where, complement_basis_greedy


def rand_mat(rng, q, rows, cols):
    return Mat(q, [[rng.randrange(q) for _ in range(cols)]
                   for _ in range(rows)])


def test_field_validation():
    check_field(3)
    check_field(0)
    with pytest.raises(ValueError):
        check_field(2)
    with pytest.raises(ValueError):
        check_field(9)
    check_prime(3)
    with pytest.raises(ValueError, match="needs an odd prime q, not the "
                       "rationals"):
        check_prime(RATIONAL)
    for q in (2, 9):
        with pytest.raises(ValueError):
            check_prime(q)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.data())
def test_rational_elimination_of_int_rows_stays_exact(ncols, data):
    """Over Q, plain-int rows reduce to ints and Fractions, never floats,
    and to the same RREF as their Fraction copies; so does inverse."""
    row = st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
    rows = [tuple(r) for r in data.draw(st.lists(row, max_size=5))]
    got, pivots = _rref_rows(rows, RATIONAL, ncols)
    assert all(type(x) in (int, Fraction) for r in got for x in r)
    assert (got, pivots) == _rref_rows(
        [tuple(map(Fraction, r)) for r in rows], RATIONAL, ncols)
    r = rank_rows(rows, RATIONAL, ncols)
    assert type(r) is int and r == len(pivots)
    square = tuple(tuple(r) for r in data.draw(
        st.lists(row, min_size=ncols, max_size=ncols)))
    if rank_rows(square, RATIONAL, ncols) == ncols:
        inv = inverse(Mat.raw(RATIONAL, square))
        assert all(type(x) in (int, Fraction) for r in inv.rows for x in r)
        assert mat_mul(Mat(RATIONAL, square), inv) == identity(RATIONAL, ncols)


def test_canonicalize_examples():
    s = canonicalize(3, 3, [[1, 1, 0], [0, 0, 1]])
    assert s.rows == ((1, 1, 0), (0, 0, 1))
    s = canonicalize(3, 3, [[2, 2, 0]])
    assert s.rows == ((1, 1, 0),)


def test_canonicalize_idempotent_random():
    rng = random.Random(0)
    for _ in range(500):
        q = rng.choice([3, 5, 7])
        m = rand_mat(rng, q, rng.randrange(1, 5), rng.randrange(1, 6))
        s = canonicalize(q, m.ncols, m.rows)
        again = canonicalize(q, m.ncols, s.rows)
        assert again == s


def test_equal_span_iff_equal_basis():
    rng = random.Random(1)
    for _ in range(200):
        q = rng.choice([3, 5])
        dim, amb = rng.randrange(1, 4), 5
        s = None
        while s is None or s.dim != dim:
            s = canonicalize(q, amb, [[rng.randrange(q) for _ in range(amb)]
                                      for _ in range(dim)])
        # random invertible change of basis preserves the stored basis
        while True:
            c = rand_mat(rng, q, dim, dim)
            if det(c) != 0:
                break
        new_rows = mat_mul(c, Mat(q, s.rows)).rows
        assert canonicalize(q, amb, new_rows) == s


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([3, 5]))
def test_meet_join_dimension_identity(seed, q):
    rng = random.Random(seed)
    amb = rng.randrange(1, 7)
    a = canonicalize(q, amb, [[rng.randrange(q) for _ in range(amb)]
                              for _ in range(rng.randrange(0, amb + 1))])
    b = canonicalize(q, amb, [[rng.randrange(q) for _ in range(amb)]
                              for _ in range(rng.randrange(0, amb + 1))])
    assert a.dim + b.dim == meet(a, b).dim + join(a, b).dim
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)
    assert join(a, b).contains_space(a)
    assert a.contains_space(meet(a, b))


def test_meet_join_associative_on_triples():
    rng = random.Random(7)
    for _ in range(150):
        q = rng.choice([3, 5])
        amb = rng.randrange(2, 6)
        spaces = []
        for _ in range(3):
            spaces.append(canonicalize(
                q, amb, [[rng.randrange(q) for _ in range(amb)]
                         for _ in range(rng.randrange(0, amb))]))
        a, b, c = spaces
        assert meet(meet(a, b), c) == meet(a, meet(b, c))
        assert join(join(a, b), c) == join(a, join(b, c))


def test_meet_examples():
    e = lambda i: [1 if j == i else 0 for j in range(3)]
    a = canonicalize(3, 3, [e(0), e(1)])
    b = canonicalize(3, 3, [e(1), e(2)])
    assert meet(a, b) == canonicalize(3, 3, [e(1)])
    assert meet(a, a) == a
    assert join(canonicalize(3, 3, [e(0)]), canonicalize(3, 3, [e(1)])) == a
    assert join(a, zero_space(3, 3)) == a


def test_kernel_examples_and_rank_nullity():
    assert kernel(identity(3, 3)).dim == 0
    z = Mat(5, [[0] * 4, [0] * 4])
    assert kernel(z) == full_space(5, 4)
    with pytest.raises(ValueError):
        kernel(Mat(9, [[1, 2]]))
    rng = random.Random(2)
    for _ in range(500):
        q = rng.choice([3, 5])
        m = rand_mat(rng, q, rng.randrange(1, 5), rng.randrange(1, 6))
        assert kernel(m).dim == m.ncols - rank(m)


def test_solve_and_inverse():
    rng = random.Random(3)
    for _ in range(100):
        q = rng.choice([3, 5])
        k = rng.randrange(1, 5)
        while True:
            m = rand_mat(rng, q, k, k)
            if det(m) != 0:
                break
        assert mat_mul(m, inverse(m)) == identity(q, k)
        x = tuple(rng.randrange(q) for _ in range(k))
        b = [sum(m.rows[i][j] * x[j] for j in range(k)) % q for i in range(k)]
        got = solve(m, b)
        assert got == x
    # inconsistent system
    m = Mat(3, [[1, 0], [1, 0]])
    assert solve(m, [1, 2]) is None


def test_rational_field():
    m = Mat(0, [[1, 2], [3, 4]])
    assert det(m) == Fraction(-2)
    inv = inverse(m)
    assert mat_mul(m, inv) == identity(0, 2)
    s = canonicalize(0, 3, [[2, 4, 0], [1, 2, 1]])
    assert s.rows == ((1, 2, 0), (0, 0, 1))
    assert sc(5, Fraction(1, 2)) == 3  # 1/2 = 3 in GF(5)


def test_complement_basis():
    inner = canonicalize(3, 4, [[1, 0, 0, 0]])
    outer = canonicalize(3, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    rows = complement_basis(inner, outer)
    assert len(rows) == 2
    assert canonicalize(3, 4, list(inner.rows) + rows) == outer
    with pytest.raises(ValueError):
        complement_basis(canonicalize(3, 4, [[0, 0, 0, 1]]), outer)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 5, RATIONAL)), st.integers(1, 6), st.data())
def test_complement_basis_matches_greedy_loop(q, amb, data):
    """The rows one elimination keeps are those a greedy in_span walk of
    outer's rows keeps; an inner space outside outer still raises."""
    entry = st.integers(0, q - 1) if q else st.integers(-2, 2)

    def vectors(count, width):
        return data.draw(st.lists(st.lists(entry, min_size=width,
                                           max_size=width),
                                  min_size=count, max_size=count))

    outer = canonicalize(q, amb, vectors(data.draw(st.integers(0, amb)), amb))
    coeffs = vectors(data.draw(st.integers(0, outer.dim)), outer.dim)
    inner = canonicalize(q, amb, [
        [sum(c * r[i] for c, r in zip(cs, outer.rows)) for i in range(amb)]
        for cs in coeffs])
    rows = complement_basis(inner, outer)
    assert rows == complement_basis_greedy(inner, outer)
    assert canonicalize(q, amb, list(inner.rows) + rows) == outer
    outside = [e for e in identity(q, amb).rows if not outer.contains(e)]
    if outside:
        with pytest.raises(ValueError):
            complement_basis(join(inner, canonicalize(q, amb, outside[:1])),
                             outer)


def _rand_space(rng, q, amb):
    return canonicalize(q, amb, [[rng.randrange(q) for _ in range(amb)]
                                 for _ in range(rng.randrange(0, amb + 1))])


def _assert_canonical(s):
    assert canonicalize(s.q, s.ambient, s.rows) == s
    assert all(0 <= x < s.q for r in s.rows for x in r)


def test_meet_kernel_perp_against_vector_oracle():
    """meet, kernel and perp give exactly the vectors listed by brute force
    (q in {3, 5}, ambient <= 5), in canonical form."""
    rng = random.Random(12)
    for _ in range(60):
        q = rng.choice([3, 5])
        amb = rng.randrange(1, 6)
        a, b = _rand_space(rng, q, amb), _rand_space(rng, q, amb)
        m = meet(a, b)
        _assert_canonical(m)
        assert span_vectors(m) == span_vectors(a) & span_vectors(b)
        assert a.contains_space(m) and b.contains_space(m)
        mat = rand_mat(rng, q, rng.randrange(1, 4), amb)
        k = kernel(mat)
        _assert_canonical(k)
        assert span_vectors(k) == vectors_where(
            q, amb, lambda v: all(sum(x * y for x, y in zip(r, v)) % q == 0
                                  for r in mat.rows))
        n = rng.choice([1, 2])
        s = _rand_space(rng, q, 2 * n)
        p = perp(s, n)
        _assert_canonical(p)
        assert span_vectors(p) == vectors_where(
            q, 2 * n, lambda v: all(form(q, n, r, v) == 0 for r in s.rows))


def test_rational_meet_kernel_perp():
    F = Fraction
    a = canonicalize(0, 4, [[1, F(1, 2), 0, 3], [0, 0, 1, -1]])
    b = canonicalize(0, 4, [[2, 1, 1, 5], [0, 1, 0, 0]])
    m = meet(a, b)
    assert m.rows == ((1, F(1, 2), F(1, 2), F(5, 2)),)
    assert all(isinstance(x, Fraction) for x in m.rows[0])
    assert a.contains_space(m) and b.contains_space(m)
    assert meet(a, canonicalize(0, 4, [[0, 1, 0, 0], [0, 0, 0, 1]])).dim == 0
    assert meet(a, a) == a and meet(a, full_space(0, 4)) == a
    assert meet(a, zero_space(0, 4)) == zero_space(0, 4)
    k = kernel(Mat(0, [[1, 2, 3], [2, 4, 7]]))
    assert k.rows == ((1, F(-1, 2), 0),)
    p = perp(canonicalize(0, 4, [[1, 0, 0, F(1, 2)]]), 2)
    assert p == canonicalize(0, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 0, -1]])


@pytest.mark.parametrize("q", [3, 5])
def test_equal_subspaces_hash_equal(q):
    """Equal subspaces built by different routes hash equal, whether the
    cached hash was taken before or after the others were built, and find
    each other as dict keys."""
    rng = random.Random(q)
    a = canonicalize(q, 4, [[1, 2, 0, 3], [0, 1, 4, 1]])
    h = hash(a)
    r0, r1 = a.rows
    spanned = _span(q, 4, [tuple((x + y) % q for x, y in zip(r0, r1)),
                           tuple(2 * y % q for y in r1)])
    met = meet(join(a, canonicalize(q, 4, [[0, 0, 1, 0]])),
               join(a, canonicalize(q, 4, [[0, 0, 0, 1]])))
    while True:
        g = rand_mat(rng, q, 4, 4)
        if det(g) != 0:
            break
    acted = act_on_subspace(g, act_on_subspace(inverse(g), a))
    same = [a, spanned, met, acted]
    assert len({id(s) for s in same}) == len(same)
    other = canonicalize(q, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    for s in same:
        assert s == a and hash(s) == h
        assert {s: 1}.get(other) is None
        table = {s: "found"}
        assert all(table.get(t) == "found" for t in same)
    assert len(set(same)) == 1
