"""Standard position for isotropic pairs, canonical representatives V(b),
and the explicit stabilizer elements of the triple (U+, U-, V(b)).

The index bookkeeping lives in IndexLayout: fifteen index lists I_(j),
the maps eta_7/8/9/13, kappa, lambda, eta_15, and the decomposition of
I+ = indices of U+ into the labelled blocks

    1 2 3 7 8 10 5 9 12 13 15 12b 8b 6b

partially ordered by the arrow diagram (block "9" enters through the image
of eta_9, and 6b/8b/12b are the barred copies).  All constructions are
postcondition-checked: every produced matrix is verified to lie in the
group and to stabilize what it must stabilize.
"""

from fractions import Fraction
import itertools

from .linalg import (Mat, act_on_subspace, canonicalize, identity, inverse,
                     mat_mul, mat_vec, transpose, kernel, solve, sc, sc_inv,
                     complement_basis, combination, primitive_root)
from .geometry import (bar, form, classify_element,
                       NOT_ORTHOGONAL, standard_pair_spaces, is_isotropic)
from .invariants import ThetaInvariants, BInvariants, theta_and_w, \
    verify_relations, theta_of_b


PLUS_BLOCKS = ("1", "2", "3", "7", "8", "10", "5", "9", "12", "13", "15",
               "12b", "8b", "6b")

# covering arrows of the block diagram: (higher, lower) meaning lower < higher
_COVERS = (("2", "1"), ("3", "1"), ("7", "3"), ("7", "2"), ("8", "7"),
           ("10", "8"), ("5", "3"), ("9", "5"), ("9", "7"), ("12", "9"),
           ("12", "8"), ("13", "12"), ("13", "10"), ("15", "12"),
           ("12b", "13"), ("12b", "15"), ("8b", "12b"), ("6b", "8b"))

# pairs (lower, higher) with no plain g_{i,k}
EXCLUDED_PAIRS = {("8", "12"), ("8", "15"), ("12", "15"),
                  ("15", "12b"), ("15", "8b"), ("12b", "8b")}
COMPENSATED_PAIRS = {("8", "12"): "ii", ("12", "15"): "iii", ("8", "15"): "iv"}


def _order_closure():
    below = {b: {b} for b in PLUS_BLOCKS}
    changed = True
    while changed:
        changed = False
        for hi, lo in _COVERS:
            new = below[lo] - below[hi]
            if new:
                below[hi] |= new
                changed = True
    return below


_BELOW = _order_closure()


def block_precedes(j, jp):
    """j ≺ jp in the diagram order (strictly)."""
    return j != jp and j in _BELOW[jp]


class IndexLayout:
    """All section-5.3 index data for one b-tuple in F^{2n}."""

    def __init__(self, n, b):
        if not isinstance(b, BInvariants):
            b = BInvariants(b)
        t = theta_of_b(n, b)
        viol = verify_relations(b, t)
        if viol:
            raise ValueError("b violates relations: %r" % (viol,))
        self.n = n
        self.b = b
        self.theta = t
        a0, ap, am, a1 = t.a0, t.a_plus, t.a_minus, t.a1
        d, dp = t.d, t.d_prime
        self.I = {}
        starts = {
            1: 0, 2: b[1], 3: a0, 4: a0 + ap, 5: d, 6: dp,
            7: a0 + b[3], 8: a0 + b[3] + b[7], 9: a0 + ap + b[4] + b[7],
            10: a0 + ap - b[10], 11: d - b[11], 12: d + b[5] + b[9],
            13: d + b[5] + b[9] + b[12] + b[15], 14: d + a1,
            15: d + b[5] + b[9] + b[12],
        }
        for j in range(1, 16):
            self.I[j] = tuple(starts[j] + k for k in range(1, b[j] + 1))
        self.eta = {
            7: {self.I[7][k]: a0 + ap + b[4] + k + 1 for k in range(b[7])},
            8: {self.I[8][k]: dp + b[6] + k + 1 for k in range(b[8])},
            9: {self.I[9][k]: d + b[5] + k + 1 for k in range(b[9])},
            13: {self.I[13][k]: d + a1 + b[14] + b[12] + k + 1 for k in range(b[13])},
        }
        self.kappa = {self.I[12][k]: dp + b[6] + b[8] + k + 1 for k in range(b[12])}
        self.lam = {self.I[12][k]: d + a1 + b[14] + k + 1 for k in range(b[12])}
        self.eta15 = {self.I[15][k]: dp + b[6] + b[8] + b[12] + b[13] + k + 1
                      for k in range(b[15])}
        # plus-side decomposition of I+ = indices of U+_std
        self.plus = {}
        for j in ("1", "2", "3", "7", "8", "10", "5", "12", "13", "15"):
            self.plus[j] = self.I[int(j)]
        self.plus["9"] = tuple(sorted(self.eta[9].values()))
        self.plus["6b"] = tuple(sorted(bar(i, n) for i in self.I[6]))
        self.plus["8b"] = tuple(sorted(bar(i, n) for i in self.eta[8].values()))
        self.plus["12b"] = tuple(sorted(bar(i, n) for i in self.kappa.values()))
        self.block_of = {}
        for lbl, idxs in self.plus.items():
            for i in idxs:
                if i in self.block_of:
                    raise AssertionError("plus blocks overlap at %d" % i)
                self.block_of[i] = lbl
        i_plus = set(range(1, a0 + ap + 1)) | set(range(d + 1, d + a1 + 1))
        if set(self.block_of) != i_plus:
            raise AssertionError("plus blocks do not partition I+")
        self._check_tilde_partition()
        self._reps = {}

    def representative(self, q):
        """V(b) over GF(q) (q=0: Q), built once per layout and field."""
        v = self._reps.get(q)
        if v is None:
            v = self._reps[q] = representative(self.b, self.n, q)
        return v

    def _check_tilde_partition(self):
        used = []
        for j in (1, 2, 3, 4, 5, 6, 10, 11, 14):
            used += [*self.I[j], *(bar(i, self.n) for i in self.I[j])]
        for j in (7, 8, 9, 13):
            used += [*self.I[j], *self.eta[j].values()]
            used += [bar(i, self.n) for i in self.I[j]]
            used += [bar(i, self.n) for i in self.eta[j].values()]
        used += [*self.I[12], *self.kappa.values(), *self.lam.values()]
        used += [bar(i, self.n) for i in
                 (*self.I[12], *self.kappa.values(), *self.lam.values())]
        used += [*self.I[15], *(bar(i, self.n) for i in self.I[15])]
        if sorted(used) != list(range(1, 2 * self.n + 1)):
            raise AssertionError("tilde index sets do not partition 1..2n")

    def audit(self):
        """Human-readable dump of the index tables (for the CLI)."""
        out = {"n": self.n, "b": list(self.b.b), "theta": self.theta.tuple5(),
               "I": {j: list(self.I[j]) for j in range(1, 16)},
               "eta7": dict(self.eta[7]), "eta8": dict(self.eta[8]),
               "eta9": dict(self.eta[9]), "eta13": dict(self.eta[13]),
               "kappa": dict(self.kappa), "lambda": dict(self.lam),
               "eta15": dict(self.eta15),
               "plus_blocks": {k: list(v) for k, v in self.plus.items()}}
        return out


def standard_pair(t, q):
    """Coordinate model (U+_std, U-_std) of a theta class."""
    return standard_pair_spaces(q, t.n, t.a0, t.a_plus, t.a_minus, t.a1)


def representative(b, n, q):
    """The maximally isotropic V(b_1..b_15) of the standard pair's ambient."""
    lay = IndexLayout(n, b)
    bb = lay.b
    rows = []

    def e(i, coeff=1):
        v = [0] * (2 * n)
        v[i - 1] = coeff
        return v

    def add(*terms):
        v = [0] * (2 * n)
        for i, c in terms:
            v[i - 1] += c
        rows.append(v)

    for j in (1, 3, 4, 5, 6, 14):
        for i in lay.I[j]:
            add((i, 1))
    for j in (2, 10, 11):
        for i in lay.I[j]:
            add((bar(i, n), 1))
    for j in (7, 8, 9, 13):
        for i in lay.I[j]:
            add((i, 1), (lay.eta[j][i], 1))
            add((bar(i, n), 1), (bar(lay.eta[j][i], n), -1))
    for i in lay.I[12]:
        add((i, 1), (lay.kappa[i], 1))
        add((i, 1), (lay.lam[i], 1))
        add((bar(i, n), 1), (bar(lay.kappa[i], n), -1), (bar(lay.lam[i], n), -1))
    half = bb[15] // 2
    for i in lay.I[15][:half]:
        add((i, 1), (lay.eta15[i], 1))
        add((bar(i, n), 1), (bar(lay.eta15[i], n), -1))
    v = canonicalize(q, 2 * n, rows)
    if v.dim != n or not is_isotropic(v, n):
        raise AssertionError("representative is not maximally isotropic")
    return v


def enumerate_valid_b(t):
    """All 15-tuples satisfying the five relations for theta t, b15 even."""
    a0, ap, am, a1, a2 = t.tuple5()
    out = []
    for b1 in range(a0 + 1):
        b2 = a0 - b1
        for b7 in range(min(ap, am) + 1):
            for b3 in range(ap - b7 + 1):
                for b8 in range(ap - b7 - b3 + 1):
                    b10 = ap - b7 - b3 - b8
                    for b4 in range(am - b7 + 1):
                        for b9 in range(am - b7 - b4 + 1):
                            b11 = am - b7 - b4 - b9
                            rem = a1 - b8 - b9
                            if rem < 0:
                                continue
                            for b12 in range(min(rem // 2, a2) + 1):
                                for b15 in range(0, rem - 2 * b12 + 1, 2):
                                    for b13 in range(min(rem - 2 * b12 - b15,
                                                         a2 - b12) + 1):
                                        b14 = a2 - b12 - b13
                                        rest = rem - 2 * b12 - b15 - b13
                                        for b5 in range(rest + 1):
                                            b6 = rest - b5
                                            out.append(BInvariants(
                                                (b1, b2, b3, b4, b5, b6, b7,
                                                 b8, b9, b10, b11, b12, b13,
                                                 b14, b15)))
    return out


def enumerate_thetas(n):
    """All theta classes of pairs of isotropic subspaces in F^{2n}."""
    out = []
    for a0 in range(n + 1):
        for ap in range(n - a0 + 1):
            for am in range(n - a0 - ap + 1):
                for a1 in range(n - a0 - ap - am + 1):
                    out.append(ThetaInvariants(n, a0, ap, am, a1))
    return out


# ---------------------------------------------------------------------------
# normalize_pair: constructive Proposition-5.1 element


def _pairing_solve(q, n, placed, targets):
    """A vector v with (w, v) = targets[pos] for every placed (pos, w)."""
    rows = [tuple(reversed(w)) for _, w in placed]
    rhs = [targets.get(pos, 0) for pos, _ in placed]
    m = Mat(q, rows)
    v = solve(m, rhs)
    if v is None:
        raise AssertionError("pairing system unsolvable; normalize_pair bug")
    return v


def _isotropize(q, n, v, w):
    """v - ((v,v)/2) w: isotropic if (v,w)=1, (w,w)=0 (char != 2)."""
    s = form(q, n, v, v)
    if s == 0:
        return v
    half = sc(q, s) * sc_inv(q, sc(q, 2))
    if q:
        return tuple((x - half * y) % q for x, y in zip(v, w))
    return tuple(x - half * y for x, y in zip(v, w))


def _isotropic_in(q, n, basis_rows):
    """A nonzero isotropic vector in the span of basis_rows (split space)."""
    cand = list(basis_rows)
    for v in cand:
        if form(q, n, v, v) == 0:
            return v
    take = cand[:3] if len(cand) >= 3 else cand
    if q:
        coeff_sets = itertools.product(range(q), repeat=len(take))
        for coeffs in coeff_sets:
            if not any(coeffs):
                continue
            vt = combination(q, coeffs, take, len(take[0]))
            if form(q, n, vt, vt) == 0:
                return vt
        raise AssertionError("no isotropic vector found in split subspace")
    # rationals: try pairwise sqrt combinations
    for i in range(len(cand)):
        for j in range(i + 1, len(cand)):
            si = form(q, n, cand[i], cand[i])
            sj = form(q, n, cand[j], cand[j])
            cij = form(q, n, cand[i], cand[j])
            # solve si + 2 t cij + t^2 sj = 0 over Q
            if sj == 0:
                continue
            disc = cij * cij - si * sj
            r = _frac_sqrt(disc)
            if r is None:
                continue
            t = (-cij + r) / sj
            v = tuple(x + t * y for x, y in zip(cand[i], cand[j]))
            if any(v):
                return v
    raise ValueError("rational isotropic-vector search failed; "
                     "normalize_pair over Q supports a2 = 0 layouts only")


def _frac_sqrt(x):
    x = Fraction(x)
    if x < 0:
        return None
    num = _int_sqrt(x.numerator)
    den = _int_sqrt(x.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_sqrt(k):
    r = int(k ** 0.5)
    for c in (r - 1, r, r + 1):
        if c >= 0 and c * c == k:
            return c
    return None


def normalize_pair(u_plus, u_minus, n):
    """g in G with (g U+, g U-) the standard pair of theta(U+, U-)."""
    q = u_plus.q
    t, w0, wp_full, wm_full = theta_and_w(u_plus, u_minus, n)
    a0, ap, am, a1, a2 = t.tuple5()
    d = t.d
    w0_rows = list(w0.rows)
    wp_rows = complement_basis(w0, wp_full)
    wm_rows = complement_basis(w0, wm_full)
    upf_rows = complement_basis(wp_full, u_plus)
    umf_raw = complement_basis(wm_full, u_minus)
    if a1:
        pmat = Mat(q, [[form(q, n, ui, uj) for uj in umf_raw] for ui in upf_rows])
        c = mat_mul(inverse(pmat),
                    Mat(q, [[1 if i + j == a1 - 1 else 0 for j in range(a1)]
                            for i in range(a1)]))
        umf_rows = [combination(q, col, umf_raw, 2 * n) for col in zip(*c.rows)]
    else:
        umf_rows = []

    placed = []  # list of (position, vector), insertion order
    for off, vec in enumerate(w0_rows):
        placed.append((1 + off, vec))
    for off, vec in enumerate(wp_rows):
        placed.append((a0 + 1 + off, vec))
    for off, vec in enumerate(wm_rows):
        placed.append((a0 + ap + 1 + off, vec))
    for off, vec in enumerate(upf_rows):
        placed.append((d + 1 + off, vec))
    for off, vec in enumerate(umf_rows):
        placed.append((t.d_prime + 1 + off, vec))

    # partners for the W-positions
    for p in range(1, d + 1):
        w = dict(placed)[p]
        v = _pairing_solve(q, n, placed, {p: 1})
        v = _isotropize(q, n, v, w)
        placed.append((bar(p, n), v))

    # hyperbolic pairs spanning the residual split space
    for p in range(d + a1 + 1, n + 1):
        rows = [tuple(reversed(w)) for _, w in placed]
        if rows:
            k = kernel(Mat(q, rows))
        else:
            k = canonicalize(q, 2 * n, identity(q, 2 * n).rows)
        z = _isotropic_in(q, n, list(k.rows))
        placed.append((p, z))
        v = _pairing_solve(q, n, placed, {p: 1})
        v = _isotropize(q, n, v, z)
        placed.append((bar(p, n), v))

    cols = dict(placed)
    frame = Mat(q, tuple(zip(*[cols[p] for p in range(1, 2 * n + 1)])))
    g = inverse(frame)
    if classify_element(g, n) == NOT_ORTHOGONAL:
        raise AssertionError("normalize_pair produced a non-orthogonal element")
    su, sm = standard_pair(t, q)
    if act_on_subspace(g, u_plus) != su or act_on_subspace(g, u_minus) != sm:
        raise AssertionError("normalize_pair postcondition failed")
    return g


# ---------------------------------------------------------------------------
# stabilizer generators of the triple (U+, U-, V(b)) and eliminations


def _dual_entries(a):
    return transpose(inverse(a))


def h_block(lay, j, a, q):
    """h_(j)(A): block change of basis acting on all copies of I_(j)."""
    n = lay.n
    bj = lay.b[j]
    if a.nrows != bj or a.ncols != bj:
        raise ValueError("block matrix must be %dx%d" % (bj, bj))
    rows = [list(r) for r in identity(q, 2 * n).rows]
    copies = []
    if j in (1, 2, 3, 4, 5, 6, 10, 11, 14):
        copies = [lay.I[j]]
    elif j in (7, 8, 9, 13):
        copies = [lay.I[j], tuple(lay.eta[j][i] for i in lay.I[j])]
    elif j == 12:
        copies = [lay.I[12], tuple(lay.kappa[i] for i in lay.I[12]),
                  tuple(lay.lam[i] for i in lay.I[12])]
    else:
        raise ValueError("h_block handles j = 1..14")
    ad = _dual_entries(a)
    for idxs in copies:
        for ii, gi in enumerate(idxs):
            for kk, gk in enumerate(idxs):
                rows[gi - 1][gk - 1] = a.rows[ii][kk]
                rows[bar(gi, n) - 1][bar(gk, n) - 1] = ad.rows[ii][kk]
    return Mat(q, rows)


def sp_form_matrix(q, m):
    """<f_k, f_l> = -delta_{k,2m+1-l} for k <= m, +delta for k > m."""
    rows = []
    for k in range(1, 2 * m + 1):
        row = [0] * (2 * m)
        row[2 * m - k] = -1 if k <= m else 1
        rows.append(row)
    return Mat(q, rows)


def in_sp_prime(a, m):
    om = sp_form_matrix(a.q, m)
    return mat_mul(mat_mul(transpose(a), om), a) == om


def sp_prime_generators(q, m):
    """Symplectic transvections x -> x + <x,v> v on small-support v."""
    om = sp_form_matrix(q, m)
    vecs = []
    for i in range(2 * m):
        v = [0] * (2 * m)
        v[i] = 1
        vecs.append(tuple(v))
    for i in range(2 * m):
        for j in range(i + 1, 2 * m):
            for cj in (1, q - 1):
                v = [0] * (2 * m)
                v[i] = 1
                v[j] = cj
                vecs.append(tuple(v))
    gens = []
    for v in vecs:
        for c in (1, primitive_root(q)):
            rows = [list(r) for r in identity(q, 2 * m).rows]
            for col in range(2 * m):
                e = [0] * (2 * m)
                e[col] = 1
                pairing = sum(om.rows[col][t] * v[t] for t in range(2 * m)) % q
                for rr in range(2 * m):
                    rows[rr][col] = (rows[rr][col] + c * pairing * v[rr]) % q
            g = Mat(q, rows)
            if not in_sp_prime(g, m):
                raise AssertionError("transvection failed the Sp' check")
            gens.append(g)
    return gens


def h15(lay, a, q):
    """h_(15)(A): the symplectic block acting on I_(15) and its mirror."""
    n = lay.n
    b15 = lay.b[15]
    m = b15 // 2
    if a.nrows != b15 or not in_sp_prime(a, m):
        raise ValueError("A must lie in Sp'_%d" % b15)
    idx = lay.I[15]
    rows = [list(r) for r in identity(q, 2 * n).rows]
    for i in range(b15):
        for k in range(b15):
            rows[idx[i] - 1][idx[k] - 1] = a.rows[i][k]
    # xi(f_k) = s_k e_bar(idx[sigma(k)]), sigma(k) = b15+1-k, s_k = +1 iff k <= m
    def sgn(k1):
        return 1 if k1 <= m else -1
    for big_i in range(1, b15 + 1):
        for big_k in range(1, b15 + 1):
            si, sk = big_i, big_k
            oi, ok = b15 + 1 - si, b15 + 1 - sk
            val = sgn(oi) * sgn(ok) * a.rows[oi - 1][ok - 1]
            rows[bar(idx[si - 1], n) - 1][bar(idx[sk - 1], n) - 1] = sc(q, val)
    return Mat(q, rows)


def _tilde_indices(lay, label):
    """All 1..2n indices of the tilde set containing the given plus block."""
    n = lay.n
    j = {"6b": 6, "8b": 8, "12b": 12}.get(label)
    if j is None:
        j = int(label)
    idxs = set(lay.I[j]) | {bar(x, n) for x in lay.I[j]}
    if j in (7, 8, 9, 13):
        idxs |= set(lay.eta[j].values())
        idxs |= {bar(x, n) for x in lay.eta[j].values()}
    elif j == 12:
        idxs |= set(lay.kappa.values()) | set(lay.lam.values())
        idxs |= {bar(x, n) for x in lay.kappa.values()}
        idxs |= {bar(x, n) for x in lay.lam.values()}
    return idxs


def _v_block_vectors(lay, support, q):
    """The V(b)-basis vectors supported on the given 1..2n indices."""
    n = lay.n
    v = lay.representative(q)
    rows = [r for r in v.rows
            if all(x == 0 or (idx + 1) in support for idx, x in enumerate(r))]
    return canonicalize(q, 2 * n, rows)


def rv_transvection(lay, i, k, mu, q):
    """g_{i,k}(mu): stabilizer transvection for i, k in I+ with block(i) < block(k).

    g = 1 + N with N supported on T x T, T the union of the two blocks'
    tilde index sets.  The I+ columns of N are pinned: column k is mu e_i,
    the single compensated column of the exceptional pairs holds its coupled
    entry -mu (+mu is tried too on the mirror half of I_(15)), and the other
    I+ columns are zero.  The remaining columns of T are solved from the
    constraint map of `_solve_rv_transvection`, and the result is checked
    exactly.
    """
    n = lay.n
    mu = sc(q, mu)
    bi = lay.block_of.get(i)
    bk = lay.block_of.get(k)
    if bi is None or bk is None:
        raise ValueError("indices must lie in I+")
    if not block_precedes(bi, bk):
        raise ValueError("blocks %s and %s are not comparable (i below k needed)"
                         % (bi, bk))
    pair = (bi, bk)
    if pair in EXCLUDED_PAIRS and pair not in COMPENSATED_PAIRS:
        raise ValueError("pair %r admits no g_{i,k}" % (pair,))
    comp = None
    comp_signs = (1,)
    if pair in COMPENSATED_PAIRS:
        case = COMPENSATED_PAIRS[pair]
        if case == "ii":
            comp = (bar(lay.kappa[k], n), bar(lay.eta[8][i], n))
        elif case == "iii":
            comp = (bar(lay.eta15[k], n), bar(lay.kappa[i], n))
        else:
            comp = (bar(lay.eta15[k], n), bar(lay.eta[8][i], n))
        if case in ("iii", "iv") and k in lay.I[15][lay.b[15] // 2:]:
            # the mirror half of I_(15) carries the opposite sign in V_(15)
            comp_signs = (-1, 1)
    t_set = sorted(_tilde_indices(lay, bi) | _tilde_indices(lay, bk))
    for sign in comp_signs:
        pinned = {(i, k): mu}
        if comp is not None:
            pinned[comp] = -sign * mu
        g = _solve_rv_transvection(lay, q, t_set, pinned)
        if g is not None:
            return g
    raise AssertionError("no R_V transvection found for pair %r" % (pair,))


def _solve_rv_transvection(lay, q, t_set, pinned):
    """1 + N for the correction N on T x T (T = t_set) that equals `pinned`,
    a {(row, column): value} dict, on the I+ columns of T (zero off it) and
    satisfies the linear parts of the R_V conditions:

    - orthogonality: N[bar b][a] + N[bar a][b] = 0 for a, b in T;
    - U- stability: N[r][c] = 0 for a column c in I- and a row r outside it;
    - V(b) stability: N v reduced modulo the V(b)-basis vectors supported
      on T is zero, for each such vector v.

    The constraint map is linear in N, so the system's column for an
    unknown entry is the map at that unit entry, and its right-hand side is
    minus the map at `pinned`.  The unknowns are the columns of T outside
    I+ in order, each over the rows of T; `solve` returns the RREF
    particular solution in that order.  None if the system is inconsistent
    or 1 + N is not orthogonal.
    """
    n = lay.n
    t = lay.theta
    i_minus = set(range(1, t.a0 + 1)) | \
        set(range(t.a0 + t.a_plus + 1, t.d + 1)) | \
        set(range(t.d_prime + 1, t.d_prime + t.a1 + 1))
    free_cols = [c for c in t_set if c not in lay.block_of]
    unknowns = [(r, c) for c in free_cols for r in t_set]
    u_minus_cells = [(r, c) for c in free_cols if c in i_minus
                     for r in t_set if r not in i_minus]
    vloc = _v_block_vectors(lay, set(t_set), q)

    def constraints(entries):
        out = [entries.get((bar(b, n), a), 0) + entries.get((bar(a, n), b), 0)
               for a, b in itertools.combinations_with_replacement(t_set, 2)]
        out += [entries.get(rc, 0) for rc in u_minus_cells]
        for v in vloc.rows:
            w = [0] * (2 * n)
            for (r, c), x in entries.items():
                w[r - 1] += x * v[c - 1]
            for row, p in zip(vloc.rows, vloc.pivots):
                f = w[p]
                if f:
                    w = [y - f * z for y, z in zip(w, row)]
            out += [w[r - 1] for r in t_set]
        return out

    system = Mat(q, zip(*[constraints({u: 1}) for u in unknowns]))
    sol = solve(system, [sc(q, -x) for x in constraints(pinned)])
    if sol is None:
        return None
    correction = {**dict(zip(unknowns, sol)), **pinned}
    g = Mat(q, [[int(r == c) + correction.get((r, c), 0)
                 for c in range(1, 2 * n + 1)] for r in range(1, 2 * n + 1)])
    if classify_element(g, n) == NOT_ORTHOGONAL:
        return None
    return g


def _inverse_map(d):
    return {v: k for k, v in d.items()}


def eliminate(lay, k, support, q):
    """g in R_V with g(e_k + u) = e_k for u = sum support[i] e_i.

    Supported cases: k in I_(6b) (any u below it), k in I_(8b), k in
    I_(12b), or u supported on I_(1) for arbitrary k outside I_(1).  Side
    effects on I_(12)/I_(15) columns are unavoidable in the barred cases and
    permitted; the postcondition g(e_k + u) = e_k is verified.
    """
    n = lay.n
    bk = lay.block_of.get(k)
    if bk is None:
        raise ValueError("k must lie in I+")
    support = {i: sc(q, c) for i, c in support.items() if sc(q, c) != 0}
    blocks = {lay.block_of.get(i) for i in support}
    if None in blocks:
        raise ValueError("support must lie in I+")
    if bk == "6b":
        allowed = set(PLUS_BLOCKS) - {"6b"}
    elif bk == "8b":
        allowed = set(PLUS_BLOCKS) - {"8b", "6b"}
    elif bk == "12b":
        allowed = set(PLUS_BLOCKS) - {"12b", "8b", "6b"}
    else:
        allowed = {"1"}
    if not blocks <= allowed:
        raise ValueError("support blocks %r not admissible for k in %s"
                         % (sorted(blocks - allowed), bk))
    eta8_inv = _inverse_map(lay.eta[8])
    eta15_inv = _inverse_map(lay.eta15)
    kappa_inv = _inverse_map(lay.kappa)
    g = identity(q, 2 * n)
    vec = [sc(q, 0)] * (2 * n)
    vec[k - 1] = sc(q, 1)
    for i, c in support.items():
        vec[i - 1] = c
    guard = 0
    while True:
        guard += 1
        if guard > 4 * (len(support) + 4):
            raise AssertionError("elimination failed to terminate")
        resid = [(i + 1, x) for i, x in enumerate(vec) if x != 0 and i + 1 != k]
        if not resid:
            break
        # prefer side-effect-free factors first
        resid.sort(key=lambda t: (lay.block_of[t[0]] in ("15", "12b"), t[0]))
        i, c = resid[0]
        bi = lay.block_of[i]
        mu = sc(q, -c)
        if (bi, bk) in EXCLUDED_PAIRS and (bi, bk) not in COMPENSATED_PAIRS:
            # reach the column through a compensated element read backwards;
            # the mirror half of I_(15) flips the compensating sign, so try
            # both parameters and keep the one that cancels the component
            if (bi, bk) == ("12b", "8b"):
                args = (eta8_inv[bar(k, n)], kappa_inv[bar(i, n)])
            elif (bi, bk) == ("15", "8b"):
                args = (eta8_inv[bar(k, n)], eta15_inv[bar(i, n)])
            elif (bi, bk) == ("15", "12b"):
                args = (kappa_inv[bar(k, n)], eta15_inv[bar(i, n)])
            else:
                raise ValueError("pair (%s, %s) not handled" % (bi, bk))
            f = None
            for nu in (c, mu):
                cand = rv_transvection(lay, args[0], args[1], nu, q)
                if mat_vec(cand, vec)[i - 1] == 0:
                    f = cand
                    break
            if f is None:
                raise AssertionError("derived elimination factor failed")
        else:
            f = rv_transvection(lay, i, k, mu, q)
        g = mat_mul(f, g)
        vec = list(mat_vec(f, vec))
    target = [sc(q, 0)] * (2 * n)
    target[k - 1] = sc(q, 1)
    start = [sc(q, 0)] * (2 * n)
    start[k - 1] = sc(q, 1)
    for i, c in support.items():
        start[i - 1] = c
    if list(mat_vec(g, start)) != target:
        raise AssertionError("eliminate postcondition failed")
    return g


def rv_generator(lay, kind, q, **params):
    """Uniform front door: kind in {'h', 'h15', 'g'}; membership is checked."""
    if kind == "h":
        g = h_block(lay, params["j"], params["A"], q)
    elif kind == "h15":
        g = h15(lay, params["A"], q)
    elif kind == "g":
        g = rv_transvection(lay, params["i"], params["k"], params["mu"], q)
    else:
        raise ValueError("unknown generator kind %r" % (kind,))
    check_rv_membership(lay, g, q)
    return g


def check_rv_membership(lay, g, q):
    """g in G, g U+_std = U+_std, g U-_std = U-_std, g V(b) = V(b)."""
    n = lay.n
    t = lay.theta
    if classify_element(g, n) == NOT_ORTHOGONAL:
        raise AssertionError("element is not orthogonal")
    su, sm = standard_pair(t, q)
    v = lay.representative(q)
    if act_on_subspace(g, su) != su:
        raise AssertionError("element moves U+_std")
    if act_on_subspace(g, sm) != sm:
        raise AssertionError("element moves U-_std")
    if act_on_subspace(g, v) != v:
        raise AssertionError("element moves V(b)")
    return True
