"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's enumeration strategy: subspaces are
produced straight from RREF pivot patterns, so counts can be compared
against the recursive isotropic-extension enumerator.  Meets, kernels and
perps are checked against sets of vectors listed one by one.
"""

import itertools

from flagtype.linalg import (Mat, RATIONAL, canonicalize, meet, join, kernel,
                             combination, identity, mat_mul, sc, solve,
                             in_span, act_on_subspace, _rref_rows)
from flagtype.geometry import (bar, form, perp, ell, unipotent_radical_basis,
                               w_element)
from flagtype.invariants import ThetaInvariants, BInvariants
from flagtype.engine import OrbitCensus, signature
from flagtype.flags import act
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


def gaussian(m, k, q):
    """The Gaussian binomial [m choose k]_q: the k-spaces of F_q^m."""
    out = 1
    for i in range(k):
        out = out * (q ** (m - i) - 1) // (q ** (i + 1) - 1)
    return out


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
    """Orbit of a FlagTuple by breadth-first search, in discovery order,
    with a spanning tree {member: (parent, generator index) | None} of
    generator words (``path_element`` reads it).  It acts as ``flags.act``
    does, space by space through ``act_on_subspace``, but moves each space
    by each generator once; it has no budget."""
    images = {}  # (generator index, subspace) -> its image

    def image(gi, s):
        t = images.get((gi, s))
        if t is None:
            t = images[gi, s] = act_on_subspace(gens[gi], s)
        return t

    tree, members = {start: None}, [start]
    for x in members:
        for gi in range(len(gens)):
            y = tuple(tuple(image(gi, s) for s in ch) for ch in x)
            if y not in tree:
                tree[y] = (x, gi)
                members.append(y)
    return members, tree


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


def plus_parts_by_solves(left, right, x):
    """For each basis vector v of X, the part v+ in `left` of a solution of
    v = v+ + v-, v- in `right`: one ``solve`` per vector."""
    q = x.q
    m = Mat.raw(q, tuple(zip(*(left.rows + right.rows))))
    out = []
    for v in x.rows:
        coeffs = solve(m, v)
        if coeffs is None:
            raise AssertionError("X-vector not decomposable")
        out.append(combination(q, coeffs[:left.dim], left.rows, x.ambient))
    return out


def kernel_combinations(q, width, gram_rows, rows):
    """The span of the sums sum c_i rows[i] with c in the kernel of the
    matrix whose columns are gram_rows: a kernel, then the combinations."""
    ker = kernel(Mat.raw(q, tuple(zip(*gram_rows))))
    return canonicalize(q, width, [combination(q, c, rows, width)
                                   for c in ker.rows])


def complement_basis_greedy(inner, outer):
    """The rows of `outer` kept by a greedy walk: each row not in the span
    of inner and the rows kept so far, tested by ``in_span``."""
    rows, piv = list(inner.rows), list(inner.pivots)
    out = []
    for cand in outer.rows:
        if not in_span(rows, piv, cand, inner.q):
            out.append(cand)
            rows, piv = _rref_rows(rows + [cand], inner.q, inner.ambient)
    return out


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
                     for vp in plus_parts_by_solves(left, right, x)]
        x1 = kernel_combinations(q, x.ambient, pair_rows, x.rows)
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


def act_positions(chains, gens):
    """The action of gens on a list of distinct chains, the long way:
    images[gi][j] is the position of g_gi·chains[j] (``flags.act``, each
    space row-reduced by ``act_on_subspace``) in a dict of the chains, with
    no point table.  An image outside the list raises KeyError."""
    pos = {ch: j for j, ch in enumerate(chains)}
    return [tuple(pos[act(g, (ch,))[0]] for ch in chains) for g in gens]


def act_blocks(spaces, gens):
    """The blocks of a census of explicit chain lists, the long way:
    (levels, images), each distinct list one block (offset, chains) of
    consecutive points, its chains sorted by rows, levels[j] the block of
    spaces[j], and images[gi] the permutation of all points by generator gi
    from ``act_positions``, with no point table."""
    blocks, levels, offset = {}, [], 0
    for cs in spaces:
        chains = tuple(sorted(cs, key=lambda ch: [s.rows for s in ch]))
        if chains not in blocks:
            blocks[chains] = (offset, chains)
            offset += len(chains)
        levels.append(blocks[chains])
    images = [() for _ in gens]
    for offset, chains in blocks.values():
        moved = act_positions(chains, gens)
        images = [img + tuple(offset + j for j in mv)
                  for img, mv in zip(images, moved)]
    return levels, images


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
