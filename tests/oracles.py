"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's enumeration strategy: subspaces are
produced straight from RREF pivot patterns, so counts can be compared
against the recursive isotropic-extension enumerator.  Meets, kernels and
perps are checked against sets of vectors listed one by one.
"""

import itertools

from flagtype.linalg import (Mat, RATIONAL, canonicalize, meet, join, kernel,
                             combination, identity, mat_mul, sc)
from flagtype.geometry import (bar, form, perp, ell, unipotent_radical_basis,
                               w_element)
from flagtype.invariants import ThetaInvariants, BInvariants, _plus_part_map
from flagtype.engine import (ActionCache, OrbitCensus, orbit_with_tree,
                             signature)
from flagtype.perm import orbits


def all_subspaces(q, ambient, dim):
    """Every dim-dimensional subspace of F_q^ambient, once each, via RREF
    pivot patterns."""
    out = []
    for pivots in itertools.combinations(range(ambient), dim):
        free_positions = []
        for r, p in enumerate(pivots):
            for c in range(p + 1, ambient):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in itertools.product(range(q), repeat=len(free_positions)):
            rows = [[0] * ambient for _ in range(dim)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            out.append(canonicalize(q, ambient, rows))
    return out


def isotropic_subspaces(q, n, dim):
    """Brute-force filter of all subspaces by isotropy of the split form."""
    out = []
    for s in all_subspaces(q, 2 * n, dim):
        rows = s.rows
        good = True
        for i, u in enumerate(rows):
            for v in rows[i:]:
                if form(q, n, u, v) != 0:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(s)
    return out


def span_vectors(s):
    """Every vector of a subspace over GF(q), from every coefficient tuple."""
    q = s.q
    return {tuple(sum(c * r[i] for c, r in zip(coeffs, s.rows)) % q
                  for i in range(s.ambient))
            for coeffs in itertools.product(range(q), repeat=s.dim)}


def vectors_where(q, ambient, pred):
    """Every vector of F_q^ambient that satisfies pred."""
    return {v for v in itertools.product(range(q), repeat=ambient) if pred(v)}


def rational_group_generators(n):
    """``geometry.group_generators`` over Q, where F^x has no generator:
    l(A) for the elementary E_ij(1) and the torus diag(2, 1, .., 1), the
    unipotent radical basis, then w_1.  They lie in O_2n(Q)."""
    q = RATIONAL
    gl = []
    for i in range(n):
        for j in range(n):
            if i != j:
                gl.append([[int(r == c or (r, c) == (i, j)) for c in range(n)]
                           for r in range(n)])
    gl.append([[(2 if r == 0 else 1) * int(r == c) for c in range(n)]
               for r in range(n)])
    return ([ell(Mat(q, a), n) for a in gl] + unipotent_radical_basis(q, n)
            + [w_element(q, n, 1)])


def transvection(q, n, r, c, mu):
    """S_{r,c}(mu) = I + mu E_{r,c} - mu E_{bar c, bar r}; in G iff r not in
    {c, bar c}."""
    if r == c or r == bar(c, n):
        raise ValueError("degenerate transvection indices")
    rows = [list(rw) for rw in identity(q, 2 * n).rows]
    mu = sc(q, mu)
    rows[r - 1][c - 1] += mu
    br, bc = bar(r, n), bar(c, n)
    rows[bc - 1][br - 1] -= mu
    return Mat(q, rows)


def orbit(start, gens, q):
    """Orbit of a FlagTuple by BFS, with a spanning tree of generator
    words."""
    cache = ActionCache(gens)
    return orbit_with_tree(start, gens, cache.tuple)


def path_element(member, tree, gens, q, dim):
    """Group element carrying the orbit root to `member` along the tree."""
    steps = []
    x = member
    while tree[x] is not None:
        parent, gi = tree[x]
        steps.append(gi)
        x = parent
    g = identity(q, dim)
    for gi in reversed(steps):
        g = mat_mul(gens[gi], g)
    return g


def signature_by_meets(ft, n):
    """``engine.signature`` the long way: the pool of the components and
    their perps, and one Zassenhaus meet per pair of the pool."""
    subs = [s for ch in ft for s in ch]
    pool = list(subs) + [perp(s, n) for s in subs]
    sig = [s.dim for s in pool]
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            sig.append(meet(pool[i], pool[j]).dim)
    return tuple(sig)


def b_invariants_by_meets(u_plus, u_minus, v, n):
    """``invariants.b_invariants`` the long way: every space is a perp or a
    Zassenhaus meet, and every b-value is the dimension of a built space.

    Returns theta, W0, W+, W-, X, X0, X1 and the fifteen b by name."""
    q = v.q
    w0 = meet(u_plus, u_minus)
    wp = meet(u_plus, perp(u_minus, n))
    wm = meet(u_minus, perp(u_plus, n))
    a0 = w0.dim
    t = ThetaInvariants(n, a0, wp.dim - a0, wm.dim - a0,
                        u_plus.dim - wp.dim)
    w = join(wp, wm)
    x = meet(join(u_plus, u_minus), v)
    left, right = join(u_plus, wm), join(wp, u_minus)
    left_v, right_v = meet(left, v), meet(right, v)
    x0 = join(left_v, right_v)
    if x.dim:
        pair_rows = [tuple(form(q, n, vp, xr) for xr in x.rows)
                     for vp in _plus_part_map(left, right, x)]
        ker = kernel(Mat.raw(q, tuple(zip(*pair_rows))))
        x1 = canonicalize(q, x.ambient, [combination(q, c, x.rows, x.ambient)
                                         for c in ker.rows])
    else:
        x1 = x
    b1 = meet(w0, v).dim
    b3 = meet(wp, v).dim - b1
    b4 = meet(wm, v).dim - b1
    b5 = meet(u_plus, v).dim - b1 - b3
    b6 = meet(u_minus, v).dim - b1 - b4
    dim_wv = meet(w, v).dim
    b7 = dim_wv - b1 - b3 - b4
    b8 = right_v.dim - dim_wv - b6
    b9 = left_v.dim - dim_wv - b5
    b12 = x1.dim - x0.dim
    b13 = t.a1 - (x.dim - dim_wv) - b12
    zv = meet(perp(join(u_plus, u_minus), n), v)
    b = BInvariants((b1, t.a0 - b1, b3, b4, b5, b6, b7, b8, b9,
                     t.a_plus - b3 - b7 - b8, t.a_minus - b4 - b7 - b9,
                     b12, b13, zv.dim - meet(zv, w).dim, x.dim - x1.dim))
    return {"theta": t, "w0": w0, "wp": wp, "wm": wm, "x": x, "x0": x0,
            "x1": x1, "b": b}


def census_full_product(levels, images, n, q, descriptor=""):
    """The engine's census without any stabilizer: one BFS over the codes
    of the whole product.

    A tuple is the mixed-radix integer of its components' positions,
    component 0 most significant; every generator moves all the codes, and
    each orbit is represented by its smallest code."""
    strides, total = [], 1
    for _, chains in reversed(levels):
        strides.insert(0, total)
        total *= len(chains)
    moves = []
    for img in images:
        acc = [0]
        for (offset, chains), stride in zip(levels, strides):
            w = [(img[offset + x] - offset) * stride
                 for x in range(len(chains))]
            acc = [a + b for a in acc for b in w]
        moves.append(acc)
    reps, sizes, sigs = [], [], []
    for members in orbits(moves, range(total)):
        code, rep = members[0], []
        for _, chains in reversed(levels):
            code, d = divmod(code, len(chains))
            rep.append(chains[d])
        rep = tuple(reversed(rep))
        reps.append(rep)
        sizes.append(len(members))
        sigs.append(signature(rep, n))
    return OrbitCensus(descriptor, q, len(reps), sizes, reps, sigs, total)
