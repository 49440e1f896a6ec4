"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's enumeration strategy: subspaces are
produced straight from RREF pivot patterns, so counts can be compared
against the recursive isotropic-extension enumerator.  Meets, kernels and
perps are checked against sets of vectors listed one by one.
"""

import itertools

from flagtype.linalg import canonicalize, meet
from flagtype.geometry import form, perp
from flagtype.engine import OrbitCensus, signature
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


def census_full_product(levels, images, n, q, descriptor=""):
    """``engine.census_codes`` without the stabilizer of the first
    component: one BFS over the codes of the whole product.

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
