"""Exact linear algebra over GF(p) (p an odd prime) and over the rationals.

Scalars are plain python ints reduced mod p, or Fraction for the rational
field.  The field is identified everywhere by a single integer ``q``:
q = p > 2 selects GF(p), q = 0 selects exact rationals.  Characteristic 2
is rejected.

Subspaces are stored by their reduced row-echelon basis, which makes the
representation canonical: two subspaces are equal iff their stored bases
are identical.  `canonicalize`, `Mat` and the functions that take a raw
vector (`in_span`, `solve`) coerce entries into the field; `join`, `kernel`,
`meet` and `act_on_subspace` get field values and skip that.

`meet` is one Zassenhaus reduction: in the RREF of the rows (a|a) over (b|0),
the rows whose pivot lies in the right half have a zero left half, and their
right halves are the canonical basis of a ∩ b.  As a's basis is in RREF, the
(a|a) rows clear their pivot columns from each (b|0) row in one pass, and
only the b rows are left to reduce.
"""

from fractions import Fraction
from functools import lru_cache
from operator import mul


RATIONAL = 0


def check_field(q):
    if q == RATIONAL:
        return
    if q == 2:
        raise ValueError("characteristic 2 is not supported")
    if q < 2 or any(q % d == 0 for d in range(2, int(q ** 0.5) + 1)):
        raise ValueError("q must be an odd prime or 0 (rationals), got %r" % (q,))


def check_prime(q):
    """Refuse every q but an odd prime, where GF(q) itself is needed:
    finite spaces, orbits on them and primitive roots."""
    if q == RATIONAL:
        raise ValueError("this needs an odd prime q, not the rationals "
                         "(q = 0)")
    check_field(q)


def sc(q, x):
    """Coerce an int (or Fraction) into the field q."""
    if q:
        if type(x) is int:
            return x % q
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, q - 2, q) % q
        return x % q
    return Fraction(x)


def sc_inv(q, x):
    if q:
        x %= q
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % q)
        return pow(x, q - 2, q)
    if x == 0:
        raise ZeroDivisionError("inverse of 0")
    return 1 / Fraction(x)


def primitive_root(q):
    """Smallest generator of GF(q)^x (q prime)."""
    for g in range(2, q):
        seen, acc = set(), 1
        for _ in range(q - 1):
            acc = acc * g % q
            seen.add(acc)
        if len(seen) == q - 1:
            return g
    raise ValueError("no primitive root for %r" % (q,))


class Mat:
    """Immutable rectangular matrix over the field q, row-major tuples."""

    __slots__ = ("q", "rows", "_hash")

    def __init__(self, q, rows):
        rows = tuple(tuple(sc(q, x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.q = q
        self.rows = rows
        self._hash = None

    @classmethod
    def raw(cls, q, rows):
        """Fast path: entries are already canonical field values."""
        m = cls.__new__(cls)
        m.q = q
        m.rows = rows
        m._hash = None
        return m

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return isinstance(other, Mat) and self.q == other.q and self.rows == other.rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.q, self.rows))
        return h

    def __repr__(self):
        return "Mat(q=%r, %r)" % (self.q, [list(r) for r in self.rows])


def identity(q, m):
    one, zero = sc(q, 1), sc(q, 0)
    return Mat.raw(q, tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m)))


def mat_mul(a, b):
    if a.q != b.q or a.ncols != b.nrows:
        raise ValueError("shape/field mismatch in mat_mul")
    q = a.q
    if q:
        bt = tuple(zip(*b.rows)) if b.rows else ()
        out = tuple(tuple(sum(map(int.__mul__, ra, cb)) % q for cb in bt)
                    for ra in a.rows)
    else:
        out = tuple(_rational_row_times(ra, b.rows, b.ncols) for ra in a.rows)
    return Mat.raw(q, out)


def mat_vec(a, v):
    q = a.q
    if q:
        return tuple([sum(map(mul, ra, v)) % q for ra in a.rows])
    support = [(j, y) for j, y in enumerate(v) if y]
    return tuple([sum([ra[j] * y for j, y in support if ra[j]], Fraction(0))
                  for ra in a.rows])


def _rational_row_times(ra, b_rows, width):
    """The row vector ra times the matrix with rows b_rows, over Q.

    Zero entries are skipped: a Fraction product costs far more than a zero
    test, and the matrices met over Q (group elements, near-identity
    stabilizer elements) are sparse.
    """
    out = [Fraction(0)] * width
    for x, rb in zip(ra, b_rows):
        if x:
            for k, y in enumerate(rb):
                if y:
                    out[k] += x * y
    return tuple(out)


def combination(q, coeffs, rows, ambient):
    """sum_j coeffs[j] * rows[j], a vector of F^ambient."""
    zero = sc(q, 0)
    out = ([sum(map(mul, coeffs, col), zero) for col in zip(*rows)] if rows
           else [zero] * ambient)
    return tuple(x % q for x in out) if q else tuple(out)


def transpose(a):
    return Mat.raw(a.q, tuple(zip(*a.rows)) if a.rows else ())


@lru_cache(maxsize=None)
def inverse_table(q):
    """The inverses in GF(q) by value: entry x is 1/x, entry 0 is 0."""
    return (0,) + tuple(pow(x, q - 2, q) for x in range(1, q))


def _rref_rows(rows, q, ncols):
    """Row-reduce a list of row tuples; returns (rref rows, pivot columns).

    The entries must be field values already: ints mod q over GF(q), ints
    or Fractions over Q (a pivot is inverted by ``sc_inv``, so plain-int
    rows stay exact).  The first row with a nonzero entry in a column is
    its pivot row.
    """
    rows = [list(r) for r in rows]
    invs = inverse_table(q) if q else None
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        if prow[c] != 1:
            if q:
                inv = invs[prow[c]]
                prow = [x * inv % q for x in prow]
            else:
                inv = sc_inv(q, prow[c])
                prow = [x * inv for x in prow]
        rows[r] = prow
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if q:
                    rows[i] = [(x - f * y) % q for x, y in zip(row, prow)]
                else:
                    rows[i] = [x - f * y for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return [tuple(rw) for rw in rows[:r]], pivots


def rank(m):
    return rank_rows(m.rows, m.q, m.ncols)


def rank_rows(rows, q, ncols):
    """Rank of the matrix with these rows, whose entries are field values."""
    return len(_rref_rows(rows, q, ncols)[1])


def det(m):
    if m.nrows != m.ncols:
        raise ValueError("det of non-square matrix")
    q = m.q
    rows = [list(r) for r in m.rows]
    n = len(rows)
    d = sc(q, 1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            return sc(q, 0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = sc(q, -d)
        d = sc(q, d * rows[c][c])
        pivot = _scaled(q, rows[c])     # rows[c] is 0 before column c
        rows[c + 1:] = [_reduce(q, r, (pivot,)) for r in rows[c + 1:]]
    return d


def inverse(m):
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    q, n = m.q, m.nrows
    aug = [list(r) + [sc(q, 1) if i == j else sc(q, 0) for j in range(n)]
           for i, r in enumerate(m.rows)]
    rows, pivots = _rref_rows(aug, q, 2 * n)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Mat(q, tuple(tuple(r[n:]) for r in rows))


def solve(m, b):
    """One solution x of m·x = b, or None if inconsistent."""
    q = m.q
    aug = [list(r) + [sc(q, bv)] for r, bv in zip(m.rows, b)]
    rows, pivots = _rref_rows(aug, q, m.ncols)
    x = [sc(q, 0)] * m.ncols
    for r, c in zip(rows, pivots):
        x[c] = r[-1]
    if mat_vec(m, x) != tuple(sc(q, v) for v in b):
        return None
    return tuple(x)


class Subspace:
    """A linear subspace of F^ambient stored by its canonical RREF basis."""

    __slots__ = ("q", "ambient", "rows", "pivots", "_hash")

    def __init__(self, q, ambient, rows, pivots):
        # use canonicalize() to build from arbitrary spanning rows
        self.q = q
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._hash = None

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, v):
        return in_span(self.rows, self.pivots, v, self.q)

    def contains_space(self, other):
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.q == other.q
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.q, self.ambient, self.rows))
        return h

    def __repr__(self):
        return "Subspace(q=%r, ambient=%d, %r)" % (self.q, self.ambient,
                                                   [list(r) for r in self.rows])

    def to_json(self):
        qv = self.q if self.q else "rational"
        basis = [[field_json(self.q, x) for x in r] for r in self.rows]
        return {"ambient": self.ambient, "q": qv, "basis": basis}


def field_json(q, x):
    """A field value for JSON: itself over GF(q), over Q an int or "a/b"."""
    if q:
        return x
    x = Fraction(x)
    return int(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def in_span(rows, pivots, v, q):
    """Membership of v in the row space of an RREF basis."""
    return not any(_reduce(q, [sc(q, x) for x in v], zip(rows, pivots)))


def _reduce(q, v, echelon):
    """v less its multiples of the (row, pivot) pairs of `echelon` in order,
    each row 1 at its pivot and 0 at the pivots before it: 0 at each pivot."""
    for r, c in echelon:
        f = v[c]
        if f:
            v = ([(x - f * y) % q for x, y in zip(v, r)] if q
                 else [x - f * y for x, y in zip(v, r)])
    return v


def _scaled(q, v):
    """(v scaled to 1 at its first nonzero entry, that column); None if 0."""
    c = next((c for c, x in enumerate(v) if x), None)
    if c is None:
        return None
    if v[c] != 1:
        inv = sc_inv(q, v[c])
        v = [x * inv % q for x in v] if q else [x * inv for x in v]
    return v, c


def canonicalize(q, ambient, vectors):
    """Subspace spanned by the given row vectors (canonical RREF basis)."""
    check_field(q)
    vecs = [tuple(sc(q, x) for x in v) for v in vectors]
    for v in vecs:
        if len(v) != ambient:
            raise ValueError("row length %d != ambient %d" % (len(v), ambient))
    rows, pivots = _rref_rows(vecs, q, ambient)
    return Subspace(q, ambient, tuple(rows), tuple(pivots))


def zero_space(q, ambient):
    return canonicalize(q, ambient, [])


def full_space(q, ambient):
    check_field(q)
    return Subspace(q, ambient, identity(q, ambient).rows, tuple(range(ambient)))


def _span(q, ambient, rows):
    """Subspace spanned by rows whose entries are field values already."""
    rows, pivots = _rref_rows(rows, q, ambient)
    return Subspace(q, ambient, tuple(rows), tuple(pivots))


def join(a, b):
    """a + b."""
    _check_pair(a, b)
    return _span(a.q, a.ambient, a.rows + b.rows)


def kernel(m):
    """{x : m·x = 0} as a canonical Subspace of F^ncols."""
    q, n = m.q, m.ncols
    check_field(q)
    return null_space(q, n, *_rref_rows(m.rows, q, n))


def null_space(q, n, rows, pivots):
    """{x in F^n : r·x = 0 for every row r} from rows in reduced echelon
    form with their pivots; entries past column n are not read, and a row
    whose pivot lies past it constrains nothing."""
    pivoted = [(r, c) for r, c in zip(rows, pivots) if c < n]
    piv = {c for _, c in pivoted}
    basis = []
    for free in range(n):
        if free in piv:
            continue
        v = [sc(q, 0)] * n
        v[free] = sc(q, 1)
        for r, c in pivoted:
            v[c] = -r[free] % q if q else -r[free]
        basis.append(v)
    return _span(q, n, basis)


def meet(a, b):
    """a ∩ b by one Zassenhaus reduction (see the module docstring)."""
    _check_pair(a, b)
    q, n = a.q, a.ambient
    stacked = []
    for r in b.rows:
        left = _reduce(q, r, zip(a.rows, a.pivots))
        right = [x - y for x, y in zip(left, r)]
        stacked.append(list(left) + ([x % q for x in right] if q else right))
    rows, pivots = _rref_rows(stacked, q, 2 * n)
    return Subspace(q, n, tuple(r[n:] for r, c in zip(rows, pivots) if c >= n),
                    tuple(c - n for c in pivots if c >= n))


def _check_pair(a, b):
    if a.q != b.q or a.ambient != b.ambient:
        raise ValueError("subspace field/ambient mismatch")


def act_on_subspace(g, s):
    """Image g·s of a subspace under an invertible matrix (rows transform)."""
    return image_from_rows(g, s, [mat_vec(g, r) for r in s.rows])


def image_from_rows(g, s, rows):
    """g·s from `rows`, the images g·r of the rows r of s in order, for a
    caller that has them already (``flags.subspace_orbit``, from its point
    table)."""
    if g.q != s.q or g.ncols != s.ambient:
        raise ValueError("field/ambient mismatch in action")
    return _span(s.q, s.ambient, rows)


def complement_basis(inner, outer):
    """Rows extending a basis of `inner` to one of `outer` (inner ⊆ outer):
    the rows of `outer` outside the span of `inner` and the rows before
    them, each outer row reduced against inner's RREF rows and the scaled
    residuals of the rows taken."""
    _check_pair(inner, outer)
    q, kept, out = inner.q, list(zip(inner.rows, inner.pivots)), []
    for row in outer.rows:
        echelon_row = _scaled(q, _reduce(q, row, kept))
        if echelon_row:
            kept.append(echelon_row)
            out.append(row)
    if len(out) != outer.dim - inner.dim:
        raise ValueError("inner is not contained in outer")
    return out
