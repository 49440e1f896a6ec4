"""Relative-position invariants of a pair (U+, U-) and a triple (U+, U-, V).

theta = (a0, a+, a-, a1, a2, d, d') describes a pair of isotropic
subspaces; b1..b15 describe a triple with V maximally isotropic.  All
fifteen values are computed from ranks of meets, joins and perps, plus the
filtration X0 ⊆ X1 ⊆ X = (U+ + U-) ∩ V whose middle term needs an explicit
splitting of each X-vector into a (U+ + W-)-part and a (W+ + U-)-part.
"""

from .linalg import Mat, canonicalize, meet, join, solve, kernel, combination
from .geometry import perp, is_isotropic, form


class ThetaInvariants:
    __slots__ = ("a0", "a_plus", "a_minus", "a1", "a2", "d", "d_prime", "n",
                 "alpha", "beta")

    def __init__(self, n, a0, a_plus, a_minus, a1):
        self.n = n
        self.a0 = a0
        self.a_plus = a_plus
        self.a_minus = a_minus
        self.a1 = a1
        self.d = a0 + a_plus + a_minus
        self.a2 = n - self.d - a1
        self.d_prime = 2 * n - self.d - a1
        self.alpha = a0 + a_plus + a1
        self.beta = a0 + a_minus + a1
        if min(a0, a_plus, a_minus, a1, self.a2) < 0:
            raise ValueError("inconsistent theta %r" % (self.tuple5(),))

    def tuple5(self):
        return (self.a0, self.a_plus, self.a_minus, self.a1, self.a2)

    def __eq__(self, other):
        return isinstance(other, ThetaInvariants) and \
            (self.n,) + self.tuple5() == (other.n,) + other.tuple5()

    def __hash__(self):
        return hash((self.n,) + self.tuple5())

    def __repr__(self):
        return "ThetaInvariants(n=%d, a0=%d, a+=%d, a-=%d, a1=%d, a2=%d)" % (
            (self.n,) + self.tuple5())


class BInvariants:
    __slots__ = ("b",)

    def __init__(self, values):
        values = tuple(int(v) for v in values)
        if len(values) != 15:
            raise ValueError("need 15 values")
        if any(v < 0 for v in values):
            raise ValueError("negative invariant in %r" % (values,))
        self.b = values

    def __getitem__(self, j):
        # 1-based, matching the subscripts b1..b15
        return self.b[j - 1]

    def __eq__(self, other):
        return isinstance(other, BInvariants) and self.b == other.b

    def __hash__(self):
        return hash(self.b)

    def __repr__(self):
        return "BInvariants%r" % (self.b,)

    def to_json(self):
        return list(self.b)


def theta_and_w(u_plus, u_minus, n):
    """theta of two isotropic subspaces of F^{2n}, with the spaces it is read
    from: W0 = U+ ∩ U-, W+ = U+ ∩ U-^perp and W- = U- ∩ U+^perp."""
    if not is_isotropic(u_plus, n) or not is_isotropic(u_minus, n):
        raise ValueError("U+ and U- must be isotropic")
    w0 = meet(u_plus, u_minus)
    wp = meet(u_plus, perp(u_minus, n))
    wm = meet(u_minus, perp(u_plus, n))
    a0 = w0.dim
    a_plus = wp.dim - a0
    a_minus = wm.dim - a0
    a1 = u_plus.dim - a0 - a_plus
    t = ThetaInvariants(n, a0, a_plus, a_minus, a1)
    if u_minus.dim - a0 - a_minus != a1:
        raise AssertionError("the two a1 formulas disagree")
    return t, w0, wp, wm


def theta(u_plus, u_minus, n):
    """The pair invariants of two isotropic subspaces of F^{2n}."""
    return theta_and_w(u_plus, u_minus, n)[0]


def _plus_part_map(left, right, x):
    """For each basis vector of X pick v+ in left = U+ + W- with v - v+ in
    right = W+ + U-."""
    q = x.q
    cols = list(left.rows) + list(right.rows)
    m = Mat(q, tuple(zip(*cols))) if cols else Mat(q, ())
    plus_parts = []
    for v in x.rows:
        coeffs = solve(m, v)
        if coeffs is None:
            raise AssertionError("X-vector not decomposable; invariant bug")
        plus_parts.append(combination(q, coeffs[:left.dim], left.rows,
                                      x.ambient))
    return plus_parts


def _x_filtration(u_plus, u_minus, v, n, wp, wm):
    """(X, X0, X1, W, (U+ + W-) ∩ V, (W+ + U-) ∩ V), W = W+ + W-."""
    q = v.q
    w = join(wp, wm)
    x = meet(join(u_plus, u_minus), v)
    left, right = join(u_plus, wm), join(wp, u_minus)   # U+ + W-, W+ + U-
    left_v, right_v = meet(left, v), meet(right, v)
    x0 = join(left_v, right_v)
    # (W, X) = 0 makes the v+ choice immaterial; assert it before using it
    for wrow in w.rows:
        for xrow in x.rows:
            if form(q, n, wrow, xrow) != 0:
                raise AssertionError("(W, X) != 0; X1 would be ill-defined")
    # X1 = {v in X : (v_+, X) = 0}: kernel of the pairing matrix in X-coordinates
    if x.dim:
        pair_rows = [tuple(form(q, n, vp, xr) for xr in x.rows)
                     for vp in _plus_part_map(left, right, x)]
        ker = kernel(Mat.raw(q, tuple(zip(*pair_rows))))
        x1 = canonicalize(q, x.ambient, [combination(q, c, x.rows, x.ambient)
                                         for c in ker.rows])
    else:
        x1 = x
    if not x1.contains_space(x0) or not x.contains_space(x1):
        raise AssertionError("filtration X0 ⊆ X1 ⊆ X violated")
    return x, x0, x1, w, left_v, right_v


def x_filtration(u_plus, u_minus, v, n):
    """(X, X0, X1) with X = (U+ + U-) ∩ V; checks X0 ⊆ X1 ⊆ X."""
    if v.dim != n or not is_isotropic(v, n):
        raise ValueError("V must be maximally isotropic")
    _, _, wp, wm = theta_and_w(u_plus, u_minus, n)
    return _x_filtration(u_plus, u_minus, v, n, wp, wm)[:3]


def b_invariants(u_plus, u_minus, v, n):
    """The fifteen invariants of (U+, U-, V), V maximally isotropic."""
    if v.dim != n or not is_isotropic(v, n):
        raise ValueError("V must be maximally isotropic")
    t, w0, wp, wm = theta_and_w(u_plus, u_minus, n)
    x, x0, x1, w, left_v, right_v = _x_filtration(u_plus, u_minus, v, n,
                                                   wp, wm)
    b1 = meet(w0, v).dim
    b2 = t.a0 - b1
    b3 = meet(wp, v).dim - b1
    b4 = meet(wm, v).dim - b1
    b5 = meet(u_plus, v).dim - b1 - b3
    b6 = meet(u_minus, v).dim - b1 - b4
    dim_wv = meet(w, v).dim
    b7 = dim_wv - b1 - b3 - b4
    b8 = right_v.dim - dim_wv - b6
    b9 = left_v.dim - dim_wv - b5
    b10 = t.a_plus - b3 - b7 - b8
    b11 = t.a_minus - b4 - b7 - b9
    b12 = x1.dim - x0.dim
    b15 = x.dim - x1.dim
    # pi: W-perp -> W-perp/W; dim pi(X) = dim X - dim(X ∩ W) and X ∩ W = W ∩ V
    dim_pi_x = x.dim - dim_wv
    b13 = t.a1 - dim_pi_x - b12
    b14 = t.a2 - b12 - b13
    bb = BInvariants((b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15))
    # independent recomputation of b14 = dim pi(Z ∩ V), Z = (U+ + U-)^perp
    z = perp(join(u_plus, u_minus), n)
    zv = meet(z, v)
    if b14 != zv.dim - meet(zv, w).dim:
        raise AssertionError("b14 disagrees with dim pi(Z ∩ V)")
    viol = verify_relations(bb, t)
    if viol:
        raise AssertionError("computed b violates relation equalities: %r" % (viol,))
    return bb, t


RELATION_NAMES = ("a0 = b1+b2",
                  "a+ = b3+b7+b8+b10",
                  "a- = b4+b7+b9+b11",
                  "a1 = b5+b6+b8+b9+2*b12+b13+b15",
                  "a2 = b12+b13+b14",
                  "b15 is even")


def verify_relations(b, t):
    """List of violated relation equalities (empty when all hold)."""
    out = []
    if t.a0 != b[1] + b[2]:
        out.append(RELATION_NAMES[0])
    if t.a_plus != b[3] + b[7] + b[8] + b[10]:
        out.append(RELATION_NAMES[1])
    if t.a_minus != b[4] + b[7] + b[9] + b[11]:
        out.append(RELATION_NAMES[2])
    if t.a1 != b[5] + b[6] + b[8] + b[9] + 2 * b[12] + b[13] + b[15]:
        out.append(RELATION_NAMES[3])
    if t.a2 != b[12] + b[13] + b[14]:
        out.append(RELATION_NAMES[4])
    if b[15] % 2:
        out.append(RELATION_NAMES[5])
    return out


def theta_of_b(n, b):
    """The theta forced by a b-tuple via the relation equalities."""
    a0 = b[1] + b[2]
    ap = b[3] + b[7] + b[8] + b[10]
    am = b[4] + b[7] + b[9] + b[11]
    a1 = b[5] + b[6] + b[8] + b[9] + 2 * b[12] + b[13] + b[15]
    return ThetaInvariants(n, a0, ap, am, a1)
