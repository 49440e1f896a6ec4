"""Small GF(p) routines the benchmark uses to make inputs and check outputs.

They are written independently of ``flagtype.linalg`` so that a defect in the
program's linear algebra cannot also hide itself from the checker.  Vectors
and matrices are tuples of ints in 0..p-1; matrices act on column vectors, as
``flagtype.linalg.act_on_subspace`` does.  The form is the package's split
form, (u, v) = sum_i u_i v_{2n+1-i}.
"""


def rref(rows, p):
    """Fully reduced row echelon form with leading ones, zero rows dropped."""
    rows = [[x % p for x in r] for r in rows]
    out = []
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[c], p - 2, p)
        piv = [x * inv % p for x in piv]
        for other in rows + out:
            f = other[c]
            if f:
                other[:] = [(x - f * y) % p for x, y in zip(other, piv)]
        out.append(piv)
    return tuple(tuple(r) for r in out)


def rank(rows, p):
    return len(rref(rows, p))


def form(u, v, p):
    m = len(u)
    return sum(u[i] * v[m - 1 - i] for i in range(m)) % p


def apply(g, v, p):
    """g·v for a matrix given by its rows."""
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in g)


def matmul(a, b, p):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                       for col in cols) for row in a)


def image(g, rows, p):
    """Canonical basis of g·S for S spanned by rows."""
    return rref([apply(g, r, p) for r in rows], p)


def is_orthogonal(g, p):
    """(g e_i, g e_j) = (e_i, e_j) for every pair of basis vectors."""
    m = len(g)
    cols = [tuple(g[r][c] for r in range(m)) for c in range(m)]
    for i in range(m):
        for j in range(i, m):
            if form(cols[i], cols[j], p) != (1 if i + j == m - 1 else 0):
                return False
    return True


def is_isotropic(rows, p):
    return all(form(u, v, p) == 0 for u in rows for v in rows)


def nullspace(rows, p, width):
    """Basis of {x : r·x = 0 for every row r}."""
    red = rref(rows, p) if rows else ()
    pivots = [r.index(1) for r in red]
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        x = [0] * width
        x[free] = 1
        for r, c in zip(red, pivots):
            x[c] = -r[free] % p
        basis.append(tuple(x))
    return basis


def random_isotropic(rng, p, n, dim):
    """Basis of a random isotropic subspace of F_p^{2n} of the given dim.

    Each step draws uniform vectors of the perp of the basis so far until one
    is isotropic and independent of the basis.
    """
    basis = []
    while len(basis) < dim:
        room = nullspace([tuple(reversed(b)) for b in basis], p, 2 * n)
        v = [0] * (2 * n)
        for r in room:
            c = rng.randrange(p)
            v = [(x + c * y) % p for x, y in zip(v, r)]
        v = tuple(v)
        if form(v, v, p) == 0 and rank(basis + [v], p) == len(basis) + 1:
            basis.append(v)
    return rref(basis, p)
