"""The split symmetric bilinear form on F^{2n} and the groups built on it.

Conventions (fixed once for the whole package):
  * basis e_1 .. e_{2n}, pairing (e_i, e_j) = 1 iff j = 2n+1-i,
  * U_0 = <e_1 .. e_n> is the reference maximal isotropic,
  * bar(i) = 2n+1-i on 1-based indices.

Group elements are plain Mat matrices; `classify_element` gives the exact
O/SO membership verdict.  Generator sets are explicit and machine-validated
by the tests (orbit of U_0, Bruhat cell counts) rather than trusted.
"""

from functools import lru_cache
from operator import mul

from .linalg import (Mat, canonicalize, identity, mat_mul, inverse,
                     transpose, det, meet, kernel, sc,
                     primitive_root, act_on_subspace, zero_space, full_space,
                     check_prime, combination)


def bar(i, n):
    """bar(i) = 2n+1-i on 1-based indices."""
    return 2 * n + 1 - i


def form(q, n, u, v):
    """(u, v) = sum_i u_i v_{2n+1-i}."""
    s = sum(map(mul, u, v[::-1]))
    return s % q if q else s


def is_isotropic(s, n):
    q = s.q
    rows = s.rows
    for i, u in enumerate(rows):
        for v in rows[i:]:
            if form(q, n, u, v) != 0:
                return False
    return True


NOT_ORTHOGONAL = "NotOrthogonal"
IN_SO = "InSO"
IN_O_MINUS_SO = "InOMinusSO"


def classify_element(m, n):
    """Exact membership verdict for a 2n x 2n matrix.

    m is orthogonal iff m^T J m = J, whose (i, j) entry is the form of
    columns i and j: form(col_i, col_j) = J_ij for i <= j (both sides are
    symmetric).  That form is zero unless the support of col_i meets the
    reversed support of col_j, so only such pairs and J's antidiagonal are
    summed: over Q a Fraction product costs far more than a zero test, and
    the group elements met there are sparse.  det decides SO only for an
    orthogonal m."""
    if m.nrows != 2 * n or m.ncols != 2 * n:
        raise ValueError("expected a %dx%d matrix" % (2 * n, 2 * n))
    q, width = m.q, 2 * n
    cols = list(zip(*m.rows))
    supp = [{k for k, x in enumerate(c) if x} for c in cols]
    rsupp = [{width - 1 - k for k in s} for s in supp]
    for i, u in enumerate(cols):
        for j in range(i, width):
            want = 1 if i + j == width - 1 else 0
            if ((want or not supp[i].isdisjoint(rsupp[j]))
                    and form(q, n, u, cols[j]) != want):
                return NOT_ORTHOGONAL
    return IN_SO if det(m) == sc(q, 1) else IN_O_MINUS_SO


def w_element(q, n, d):
    """w_d: swaps e_i <-> e_{2n+1-i} for n-d+1 <= i <= n+d."""
    if not 0 <= d <= n:
        raise ValueError("d out of range")
    rows = [[sc(q, 0)] * (2 * n) for _ in range(2 * n)]
    for i in range(1, 2 * n + 1):
        tgt = bar(i, n) if n - d + 1 <= i <= n + d else i
        rows[tgt - 1][i - 1] = sc(q, 1)
    return Mat(q, rows)


def ell(a, n):
    """l(A) = diag(A, J_n A^-T J_n) for A in GL_n."""
    q = a.q
    if a.nrows != n or a.ncols != n:
        raise ValueError("ell expects an n x n block")
    ainv_t = transpose(inverse(a))
    z = sc(q, 0)
    rows = []
    for i in range(n):
        rows.append(tuple(a.rows[i]) + tuple(z for _ in range(n)))
    # J A^-T J reverses both indices
    for i in range(n):
        rows.append(tuple(z for _ in range(n)) +
                    tuple(ainv_t.rows[n - 1 - i][n - 1 - j] for j in range(n)))
    return Mat(q, rows)


def standard_isotropic(q, n, d):
    """U_d = <e_1..e_{n-d}, e_{n+1}..e_{n+d}> = w_d U_0."""
    if not 0 <= d <= n:
        raise ValueError("d out of range")
    idx = list(range(1, n - d + 1)) + list(range(n + 1, n + d + 1))
    return coordinate_subspace(q, 2 * n, idx)


def coordinate_subspace(q, ambient, indices):
    rows = []
    for i in indices:
        v = [0] * ambient
        v[i - 1] = 1
        rows.append(v)
    return canonicalize(q, ambient, rows)


def perp(s, n):
    """S^perp for the split form; dim = 2n - dim S."""
    if s.ambient != 2 * n:
        raise ValueError("ambient mismatch in perp")
    if s.dim == 0:
        return full_space(s.q, s.ambient)
    # (x, r) = 0 for basis rows r  <=>  (reversed r) . x = 0
    return kernel(Mat.raw(s.q, tuple(r[::-1] for r in s.rows)))


def bruhat_cell(v, n):
    """d = n - dim(V ∩ U_0) for a maximal isotropic V."""
    if v.dim != n or not is_isotropic(v, n):
        raise ValueError("bruhat_cell needs a maximal isotropic subspace")
    return n - meet(v, standard_isotropic(v.q, n, 0)).dim


def gl_generators(q, m):
    """Generators of GL_m(F_q): elementary E_ij(1) and one primitive torus.
    GF(p) only, as are those of P, SO_2n and O_2n built on them."""
    check_prime(q)
    gens = []
    for i in range(m):
        for j in range(m):
            if i != j:
                rows = [list(r) for r in identity(q, m).rows]
                rows[i][j] = sc(q, 1)
                gens.append(Mat(q, rows))
    g = primitive_root(q)
    rows = [list(r) for r in identity(q, m).rows]
    rows[0][0] = sc(q, g)
    gens.append(Mat(q, rows))
    return gens


def unipotent_radical_basis(q, n):
    """I + (0 X; 0 0) for X running over a basis of {X : J X antisymmetric}."""
    gens = []
    z = sc(q, 0)
    seen = set()
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            # entries come in pairs (r,s) ~ (n+1-s, n+1-r); r+s = n+1 is forced to 0
            if r + s == n + 1 or (n + 1 - s, n + 1 - r) in seen:
                continue
            seen.add((r, s))
            x = [[z] * n for _ in range(n)]
            x[r - 1][s - 1] = sc(q, 1)
            x[n - s][n - r] = sc(q, -1)
            rows = [list(rw) for rw in identity(q, 2 * n).rows]
            for i in range(n):
                for j in range(n):
                    rows[i][n + j] = x[i][j]
            gens.append(Mat(q, rows))
    return gens


@lru_cache(maxsize=None)
def _generators(q, n, extra):
    """P's generators (each checked to fix U_0 and to be orthogonal), then
    w_d for each d in `extra`; built once per (q, n, extra), as a tuple so
    that no caller can change the cached set."""
    gens = [ell(a, n) for a in gl_generators(q, n)]
    gens.extend(unipotent_radical_basis(q, n))
    u0 = standard_isotropic(q, n, 0)
    for g in gens:
        if act_on_subspace(g, u0) != u0:
            raise AssertionError("parabolic generator does not fix U_0")
        if classify_element(g, n) == NOT_ORTHOGONAL:
            raise AssertionError("parabolic generator is not orthogonal")
    return tuple(gens + [w_element(q, n, d) for d in extra])


def parabolic_generators(q, n):
    """Generators of P = Stab_G(U_0) = L N (all are checked to fix U_0)."""
    return list(_generators(q, n, ()))


def so_generators(q, n):
    """Generators of SO_2n = <P, w_2> (n >= 2)."""
    return list(_generators(q, n, (2,) if n >= 2 else ()))


def group_generators(q, n):
    """Generators of the full O_2n = <P, w_1>."""
    return list(_generators(q, n, (1,)))


@lru_cache(maxsize=None)
def _small_generators(q, n):
    """The set of ``small_generators``, built once per (q, n) as a tuple."""
    if n == 1:
        return _generators(q, 1, (1,))
    check_prime(q)
    one = sc(q, 1)
    # the n-cycle e_i -> e_{i+1}, e_n -> omega (-1)^(n-1) e_1: det omega
    cycle = [[sc(q, 0)] * n for _ in range(n)]
    for i in range(n - 1):
        cycle[i + 1][i] = one
    cycle[0][n - 1] = sc(q, (-1) ** (n - 1) * primitive_root(q))
    elementary = [list(r) for r in identity(q, n).rows]
    elementary[0][1] = one
    return (ell(Mat(q, cycle), n), ell(Mat(q, elementary), n),
            unipotent_radical_basis(q, n)[0], w_element(q, n, 1))


def small_generators(q, n):
    """Four generators of O_2n for n >= 2: l(C), with C the n-cycle of
    determinant omega (the primitive root), l(I + E_12), the first
    unipotent radical element and w_1 (Steinberg, *Canad. J. Math.* 14,
    1962, for why a few suffice).  At n = 1 it is ``group_generators``.
    Nothing here proves that they generate: a chain on the vector action
    reaching |O_2n(q)| does, in the tests and at every use in
    ``engine.stabilizer_orbits``."""
    return list(_small_generators(q, n))


def group_order(q, n):
    """|O_2n^+(F_q)| = 2 q^{n(n-1)} (q^n - 1) prod_{i<n} (q^{2i} - 1)."""
    o = 2 * q ** (n * (n - 1)) * (q ** n - 1)
    for i in range(1, n):
        o *= q ** (2 * i) - 1
    return o


def sp_order(q, m):
    """|Sp_2m(F_q)| = q^{m^2} prod (q^{2i} - 1)."""
    o = q ** (m * m)
    for i in range(1, m + 1):
        o *= q ** (2 * i) - 1
    return o


# ---------------------------------------------------------------------------
# the coordinate model of a pair's theta class


@lru_cache(maxsize=None)
def theta_positions(t):
    """The coordinate model of the theta class t, built once per class: the
    1-based indices of W_0, W_+, W_-, their sum W, U_+^f, U_-^f and Z ("w0",
    "wp", "wm", "w", "up", "um", "z"), and of the standard pair
    U+ = W_0 + W_+ + U_+^f ("plus") and U- = W_0 + W_- + U_-^f ("minus").
    W sits on 1..d, the U^f on d+1..d+a1 and d'+1..d'+a1, and Z with its
    bars spans the residual split space."""
    a0, ap, d, dp, a1 = t.a0, t.a_plus, t.d, t.d_prime, t.a1
    w0, wp, wm = range(1, a0 + 1), range(a0 + 1, a0 + ap + 1), \
        range(a0 + ap + 1, d + 1)
    up, um = range(d + 1, d + a1 + 1), range(dp + 1, dp + a1 + 1)
    return {"w0": w0, "wp": wp, "wm": wm, "w": range(1, d + 1), "up": up,
            "um": um, "z": range(d + a1 + 1, t.n + 1),
            "plus": (*w0, *wp, *up), "minus": (*w0, *wm, *um)}


# ---------------------------------------------------------------------------
# random sampling helpers (tests and verification suites)


def random_isotropic(q, n, dim, rng):
    """A uniform-ish random isotropic subspace of dimension dim."""
    if dim > n:
        raise ValueError("isotropic dimension exceeds n")
    cur = zero_space(q, 2 * n)
    guard = 0
    while cur.dim < dim:
        p = perp(cur, n)
        v = _random_isotropic_vector_in(p, cur, n, rng)
        if v is None:
            guard += 1
            if guard > 200:
                raise RuntimeError("failed to extend isotropic subspace")
            continue
        cur = canonicalize(q, 2 * n, list(cur.rows) + [v])
    return cur


def _random_isotropic_vector_in(space, avoid, n, rng):
    q = space.q
    for _ in range(400):
        coeffs = [rng.randrange(q) for _ in range(space.dim)]
        vt = combination(q, coeffs, space.rows, space.ambient)
        if form(q, n, vt, vt) == 0 and not avoid.contains(vt):
            return vt
    return None


def random_group_element(q, n, rng, gens=None):
    """A random word of 12 generators (of O_2n unless gens is given)."""
    if gens is None:
        gens = group_generators(q, n)
    g = identity(q, 2 * n)
    for _ in range(12):
        g = mat_mul(g, gens[rng.randrange(len(gens))])
    return g
