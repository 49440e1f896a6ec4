"""Relative-position invariants of a pair (U+, U-) and a triple (U+, U-, V).

theta = (a0, a+, a-, a1, a2, d, d') describes a pair of isotropic
subspaces; b1..b15 describe a triple with V maximally isotropic.  Each is
the dimension of a space read off the pair and V, and each space or rank
costs one elimination; a sum of spaces is its summands' rows, with none:

  * W0 = U+ ∩ U- is one Zassenhaus meet.  For A and B spanned by any rows,
    A ∩ B^perp is one Zassenhaus form too: in the RREF of the rows
    (form(a_i, b_1) .. form(a_i, b_m) | a_i), the right halves of the rows
    whose pivot lies past the Gram block are the RREF basis of A ∩ B^perp.
    W+ = U+ ∩ U-^perp and W- = U- ∩ U+^perp are such forms.
  * V is maximal isotropic, so V = V^perp and A ∩ V = A ∩ V^perp: the
    spaces X = (U+ + U-) ∩ V, (U+ + W-) ∩ V and (W+ + U-) ∩ V are such
    forms, and so is X1 = {v in X : (v_+, X) = 0}.  Only X0 is a join.
  * A dimension dim(A ∩ V) that no later step needs as a space is
    dim A - rank Gram(A, V).  For the chains W0 ⊆ W+ ⊆ U+, W0 ⊆ W- ⊆ U-
    and W+ ⊆ W+ + W-, the ranks are read from one elimination of the
    chain's Gram columns side by side: the rank of a column prefix is the
    number of pivots inside it.
  * X0 ⊆ X1 ⊆ X: the middle term needs an explicit splitting of each
    X-vector into a (U+ + W-)-part and a (W+ + U-)-part, all solved in one
    elimination.
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .linalg import (Subspace, meet, join, combination, rank_rows,
                     _rref_rows)
from .geometry import is_isotropic


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


def _gram_rows(q, a_rows, b_rows):
    """The Gram row (form(a_i, b_1) .. form(a_i, b_m)) of each row a_i,
    against the rows b_j: form(a, b) is the dot product of a with b
    reversed, so each b_j is reversed once."""
    rev = [br[::-1] for br in b_rows]
    if q:
        return [tuple([sum(map(mul, ar, br)) % q for br in rev])
                for ar in a_rows]
    return [tuple([sum(map(mul, ar, br)) for br in rev]) for ar in a_rows]


def _prefix_ranks(q, *blocks):
    """The rank of each prefix of the blocks of vectors, from one
    elimination with the vectors as columns side by side: a column's pivot
    marks it independent of the columns before it."""
    cols = [c for blk in blocks for c in blk]
    pivots = _rref_rows(list(zip(*cols)), q, len(cols))[1]
    return [bisect_left(pivots, end) for end in accumulate(map(len, blocks))]


def _zassenhaus_kernel(q, width, gram_rows, rows):
    """The span of the sums sum c_i rows[i] with sum c_i gram_rows[i] = 0,
    in RREF, from one elimination of the rows (gram_rows[i] | rows[i])."""
    m = len(gram_rows[0]) if gram_rows else 0
    red, pivots = _rref_rows([g + r for g, r in zip(gram_rows, rows)], q,
                             m + width)
    return Subspace(q, width, tuple(r[m:] for r, c in zip(red, pivots)
                                    if c >= m),
                    tuple(c - m for c in pivots if c >= m))


def _meet_perp(q, width, a_rows, b_rows):
    """A ∩ B^perp, A and B spanned by these rows: one Zassenhaus form."""
    return _zassenhaus_kernel(q, width, _gram_rows(q, a_rows, b_rows), a_rows)


@lru_cache(maxsize=8)
def theta_and_w(u_plus, u_minus, n):
    """theta of two isotropic subspaces of F^{2n}, with the spaces it is read
    from: W0 = U+ ∩ U-, W+ = U+ ∩ U-^perp and W- = U- ∩ U+^perp.

    Memoized for the last few pairs (a Subspace hashes by its RREF rows):
    ``b_invariants`` and then ``normalize_pair`` on one pair build the
    W-spaces once.  A refused pair raises on every call."""
    if not is_isotropic(u_plus, n) or not is_isotropic(u_minus, n):
        raise ValueError("U+ and U- must be isotropic")
    q, width = u_plus.q, 2 * n
    w0 = meet(u_plus, u_minus)
    wp = _meet_perp(q, width, u_plus.rows, u_minus.rows)
    wm = _meet_perp(q, width, u_minus.rows, u_plus.rows)
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
    right = W+ + U- (spanning rows): one elimination of [M | x_1 .. x_k], M
    with the rows of left and right as columns, pivots only in M's columns,
    each particular solution read off as ``linalg.solve`` does."""
    q, width = x.q, x.ambient
    cols = left + right
    m = len(cols)
    aug = [c + v for c, v in zip(zip(*cols), zip(*x.rows))]
    red, pivots = _rref_rows(aug, q, m)
    plus_parts = []
    for k, v in enumerate(x.rows):
        coeffs = [0] * m
        for r, c in zip(red, pivots):
            coeffs[c] = r[m + k]
        if combination(q, coeffs, cols, width) != v:
            raise AssertionError("X-vector not decomposable; invariant bug")
        plus_parts.append(combination(q, coeffs[:len(left)], left, width))
    return plus_parts


def _x_filtration(u_plus, u_minus, v, wp, wm):
    """(X, X0, X1, (U+ + W-) ∩ V, (W+ + U-) ∩ V), X = (U+ + U-) ∩ V."""
    q, width = v.q, v.ambient
    # V = V^perp, so each meet with V is a meet with V^perp
    x = _meet_perp(q, width, u_plus.rows + u_minus.rows, v.rows)
    # U+ + W- and W+ + U-, each as its summands' rows
    left, right = u_plus.rows + wm.rows, wp.rows + u_minus.rows
    left_v, right_v = (_meet_perp(q, width, rows, v.rows)
                       for rows in (left, right))
    x0 = join(left_v, right_v)
    # (W, X) = 0 makes the v+ choice immaterial; assert it before using it
    if any(any(g) for g in _gram_rows(q, wp.rows + wm.rows, x.rows)):
        raise AssertionError("(W, X) != 0; X1 would be ill-defined")
    # X1 = {v in X : (v_+, X) = 0}; v -> v_+ is linear in v
    if x.dim:
        pair_rows = _gram_rows(q, _plus_part_map(left, right, x), x.rows)
        x1 = _zassenhaus_kernel(q, width, pair_rows, x.rows)
    else:
        x1 = x
    if not x1.contains_space(x0) or not x.contains_space(x1):
        raise AssertionError("filtration X0 ⊆ X1 ⊆ X violated")
    return x, x0, x1, left_v, right_v


def x_filtration(u_plus, u_minus, v, n):
    """(X, X0, X1) with X = (U+ + U-) ∩ V; checks X0 ⊆ X1 ⊆ X."""
    if v.dim != n or not is_isotropic(v, n):
        raise ValueError("V must be maximally isotropic")
    _, _, wp, wm = theta_and_w(u_plus, u_minus, n)
    return _x_filtration(u_plus, u_minus, v, wp, wm)[:3]


def b_invariants(u_plus, u_minus, v, n):
    """The fifteen invariants of (U+, U-, V), V maximally isotropic."""
    if v.dim != n or not is_isotropic(v, n):
        raise ValueError("V must be maximally isotropic")
    t, w0, wp, wm = theta_and_w(u_plus, u_minus, n)
    x, x0, x1, left_v, right_v = _x_filtration(u_plus, u_minus, v, wp, wm)
    # dim(A ∩ V) = dim A - rank Gram(A, V), V = V^perp; W = W+ + W-, and
    # dim W = d as W+ ∩ W- = W0
    q = v.q
    g0, gp, gm, g_up, g_um = (_gram_rows(q, s.rows, v.rows)
                              for s in (w0, wp, wm, u_plus, u_minus))
    r0, rp, r_up = _prefix_ranks(q, g0, gp, g_up)
    rm, r_um = _prefix_ranks(q, g0, gm, g_um)[1:]
    r_w = _prefix_ranks(q, gp, gm)[1]
    b1 = w0.dim - r0
    b2 = t.a0 - b1
    b3 = wp.dim - rp - b1
    b4 = wm.dim - rm - b1
    b5 = u_plus.dim - r_up - b1 - b3
    b6 = u_minus.dim - r_um - b1 - b4
    dim_wv = t.d - r_w
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
    # independent recomputation of b14 = dim pi(Z ∩ V), Z = (U+ + U-)^perp:
    # Z ∩ V = V ∩ (U+ + U-)^perp, and dim(Z ∩ V ∩ W) from one join rank
    zv = _meet_perp(q, 2 * n, v.rows, u_plus.rows + u_minus.rows)
    dim_zvw = zv.dim + t.d - rank_rows(zv.rows + wp.rows + wm.rows, q, 2 * n)
    if b14 != zv.dim - dim_zvw:
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
