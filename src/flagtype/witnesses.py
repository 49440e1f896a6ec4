"""The explicit infinite-type witness pencils and their finite-field checks.

Each family is a parametrized tuple of isotropic flags built from explicit
vectors in a small split space F^{2h}, embedded into F^{2n} by
phi(f_i) = e_{i+n-h} (the degree-5 family uses its own phi with a 1/2
coefficient) and padded by initial coordinate spaces U_[l] so every chain
member reaches the dimension its composition demands.

Finite-field checks: `family_classes` partitions {m_lambda} into exact
orbit classes: the orbits of the stabilizer in O_2n of the
lambda-independent components (``engine.stabilizer_orbits``) class the
moving component.  `equivariance_check` verifies the diagonal certificate
g m_lambda = m_{lambda/c^2} of a square-class family; a candidate that
fails is reported, and no orbit search replaces it.
"""

from fractions import Fraction

from .linalg import Mat, canonicalize, sc, sc_inv
from .geometry import (group_generators, small_generators, ell,
                       is_orthogonal)
from .flags import Composition, Infeasible, validate_tuple, act
from .engine import INFEASIBLE, same_orbit, stabilizer_orbits


def _sp(*idxs):
    return [(i, 1) for i in idxs]


L = "lam"          # marker for the pencil parameter
ML = "neg_lam"     # -lambda
OML = "one_minus_lam"


def _coeff(tag, lam, q):
    if tag == L:
        return sc(q, lam)
    if tag == ML:
        return sc(q, -lam)
    if tag == OML:
        return sc(q, 1 - lam)
    return sc(q, tag)


class WitnessFamily:
    def __init__(self, fid, h, n_min, comps, chains, domain, relation,
                 separable, phi=None, lambda_ne_one_when_padded=False,
                 equivariance=None):
        self.id = fid
        self.h = h                  # source space is F^{2h}
        self.n_min = n_min
        self.comps = [Composition(c) for c in comps]
        self.chains = chains        # list of chains; chain = list of spaces;
                                    # space = list of vectors = [(idx,coeff)..]
        self.domain = domain        # "F" or "Fx"
        self.relation = relation    # "equality" | "lam~1-lam" | "square-class"
        self.separable = separable  # families whose separation is computed
        self.phi = phi
        self.lambda_ne_one_when_padded = lambda_ne_one_when_padded
        self.equivariance = equivariance  # diag pattern builder or None

    def lambda_domain(self, q, n):
        vals = list(range(q)) if self.domain == "F" else list(range(1, q))
        if self.lambda_ne_one_when_padded and n > self.n_min:
            vals = [v for v in vals if v % q != 1]
        return vals

    def separable_at(self, n):
        """Whether separation runs at n: for separable families, and not
        once padding embeds them in a larger space (n > n_min)."""
        return self.separable and n <= self.n_min


def _phi_generic(h):
    def phi(q, n, vec):
        out = [sc(q, 0)] * (2 * n)
        for i, c in enumerate(vec):
            if c:
                out[i + n - h] = c
        return out
    return phi


def _phi_o5(q, n, vec):
    """f1..f5 -> e_{n-2}, e_{n-1}, e_n + (1/2) e_{n+1}, e_{n+2}, e_{n+3}."""
    out = [sc(q, 0)] * (2 * n)
    half = sc_inv(q, sc(q, 2))
    targets = {1: [(n - 2, sc(q, 1))], 2: [(n - 1, sc(q, 1))],
               3: [(n, sc(q, 1)), (n + 1, half)],
               4: [(n + 2, sc(q, 1))], 5: [(n + 3, sc(q, 1))]}
    for i, c in enumerate(vec, start=1):
        if c:
            for pos, w in targets[i]:
                out[pos - 1] += c * w
    return out


def _o4_chains(level):
    u1 = [_sp(1), _sp(2)]
    u2 = [_sp(3), _sp(4)]
    u3 = [_sp(1, 3), [(2, 1), (4, -1)]]
    u4 = [[(1, 1), (3, L)], [(2, 1), (4, ML)]]
    u1p, u2p = [_sp(1)], [_sp(3)]
    u3p = [[(2, 1), (4, -1)]]
    u4p = [[(2, 1), (4, ML)]]
    full = [u1, u2, u3, u4]
    prim = [u1p, u2p, u3p, u4p]
    chains = []
    for j in range(4):
        chains.append([full[j] if j < level else prim[j]])
    return chains


def _registry():
    fams = {}
    for i in range(5):
        comps = [(2,) if j < i else (1,) for j in range(4)]
        fams["O4_L31_%d" % i] = WitnessFamily(
            "O4_L31_%d" % i, 2, 2, comps, _o4_chains(i), "F", "equality",
            separable=True, lambda_ne_one_when_padded=True)
    fams["O6_L32p"] = WitnessFamily(
        "O6_L32p", 3, 3, [(2,), (2,), (2,)],
        [[[_sp(1), _sp(2)]],
         [[_sp(5), _sp(6)]],
         [[_sp(1, 3, 5), [(2, L), (4, -1), (6, OML)]]]],
        "F", "lam~1-lam", separable=True)
    fams["O6_L31p_i"] = WitnessFamily(
        "O6_L31p_i", 3, 3, [(2,), (2,), (1, 2)],
        [[[_sp(1), _sp(2)]],
         [[_sp(5), _sp(6)]],
         [[[(1, L), (3, -1), (5, OML)]],
          [[(1, 1), (5, -1)], [(1, 1), (3, -1)], _sp(2, 4, 6)]]],
        "F", "equality", separable=True)
    fams["O6_L31p_ii"] = WitnessFamily(
        "O6_L31p_ii", 3, 3, [(2,), (1, 2), (1, 2)],
        [[[_sp(1, 5), [(2, 1), (6, -1)]]],
         [[_sp(1, 3)], [_sp(1), _sp(2), _sp(3)]],
         [[[(4, 1), (6, L)]], [_sp(4), _sp(5), _sp(6)]]],
        "F", "equality", separable=True)
    fams["O6_L31p_iii"] = WitnessFamily(
        "O6_L31p_iii", 3, 3, [(1, 2), (1, 2), (1, 2)],
        [[[_sp(1, 3)], [_sp(1), _sp(2), _sp(3)]],
         [[_sp(1, 5)], [_sp(1), _sp(4), _sp(5)]],
         [[[(3, 1), (5, L)]], [_sp(3), _sp(5), _sp(6)]]],
        "F", "equality", separable=True)
    fams["O5emb_L33p"] = WitnessFamily(
        "O5emb_L33p", 3, 3, [(1,), (1, 1), (1, 1)],
        [[[[(1, 1), (3, 1), (5, Fraction(-1, 2))]]],
         [[_sp(1, 2)], [_sp(1), _sp(2)]],
         [[[(4, 1), (5, L)]], [_sp(4), _sp(5)]]],
        "Fx", "equality", separable=True, phi="o5")
    # degree-8 families (construction + validation only)
    v8 = [[(1, 1), (7, 1)], [(2, 1), (8, -1)], [(3, 1), (5, 1)],
          [(4, 1), (6, -1)]]
    up = [_sp(1), _sp(2), _sp(3), _sp(4)]
    upp = [_sp(1, 3), _sp(2), _sp(4)]
    um = [_sp(5), _sp(6), _sp(7), _sp(8)]
    ump = [_sp(5), _sp(6), _sp(7)]
    u1lam = [_sp(1, 3), [(2, 1), (4, L)]]
    o8 = {
        "i": (u1lam, up, [_sp(5), _sp(6)], um, [(4,), (2, 2), (2, 2)]),
        "ii": (u1lam, up, [_sp(5), _sp(6)], ump, [(4,), (2, 2), (2, 1)]),
        "iii": (u1lam, upp, [_sp(5), _sp(6)], ump, [(4,), (2, 1), (2, 1)]),
        "iv": (u1lam, up, [_sp(5)], ump, [(4,), (2, 2), (1, 2)]),
        "v": (u1lam, upp, [_sp(5)], ump, [(4,), (2, 1), (1, 2)]),
        "vi": ([[(2, 1), (4, L)]], upp, [_sp(5)], ump, [(4,), (1, 2), (1, 2)]),
    }
    for key, (c1, c2, c3, c4, comps) in o8.items():
        fams["O8_L32_%s" % key] = WitnessFamily(
            "O8_L32_%s" % key, 4, 4, comps,
            [[v8], [c1, c2], [c3, c4]], "Fx", "equality", separable=False)
    # degree-12 families (construction only)
    v12 = [[(1, 1), (11, 1)], [(2, 1), (12, -1)], [(3, 1), (9, 1)],
           [(4, 1), (10, -1)], _sp(5), _sp(6)]
    wm12 = [_sp(9), _sp(10), _sp(11), _sp(12)]
    up12 = [_sp(1), _sp(2), _sp(3), _sp(4), _sp(5), _sp(6)]
    upp12 = [_sp(1), _sp(2), _sp(3), _sp(5), _sp(4, 6)]
    lam135 = [(1, L), (3, 1), (5, 1)]
    v246 = _sp(2, 4, 6)
    mid_a = [_sp(1), _sp(2), _sp(3, 5), _sp(4, 6)]
    mid_b = [_sp(1), _sp(3, 5), v246]
    o12 = {
        "i": ([[lam135, v246], mid_a, up12], [(6,), (4,), (2, 2, 2)]),
        "ii": ([[lam135, v246], mid_a, upp12], [(6,), (4,), (2, 2, 1)]),
        "iii": ([[lam135, v246], mid_b, upp12], [(6,), (4,), (2, 1, 2)]),
        "iv": ([[lam135], mid_b, upp12], [(6,), (4,), (1, 2, 2)]),
    }
    for key, (chain3, comps) in o12.items():
        fams["O12_L310_%s" % key] = WitnessFamily(
            "O12_L310_%s" % key, 6, 6, comps,
            [[v12], [wm12], chain3], "Fx", "equality", separable=False)
    fams["O12_L311"] = WitnessFamily(
        "O12_L311", 6, 6, [(6,), (4,), (1, 2, 1, 2)],
        [[v12], [wm12], [[lam135], mid_b, mid_a, up12]],
        "Fx", "equality", separable=False)
    # square-class families
    fams["O6_L322_sq"] = WitnessFamily(
        "O6_L322_sq", 3, 3, [(3,), (1, 1), (1, 1)],
        [[[_sp(2, 4), [(3, 1), (5, -1)], _sp(6)]],
         [[_sp(4)], [_sp(4), _sp(5)]],
         [[_sp(1, 3)], [_sp(1, 3), [(2, L), (3, 1)]]]],
        "Fx", "square-class", separable=True,
        equivariance=lambda c, q: [c, sc_inv(q, c), c])
    fams["O10_L323_sq"] = WitnessFamily(
        "O10_L323_sq", 5, 5, [(5,), (3,), (1, 1, 1, 1)],
        [[[_sp(3), _sp(4, 6), [(5, 1), (7, -1)], _sp(9), _sp(10)]],
         [[_sp(6), _sp(7), _sp(8)]],
         [[_sp(1, 2, 3, 5)],
          [_sp(1, 2, 3, 5), [(4, L), (1, 1), (5, 1)]],
          [_sp(4), _sp(1, 5), _sp(2, 3)],
          [_sp(4), _sp(1), _sp(5), _sp(2, 3)]]],
        "Fx", "square-class", separable=False,
        equivariance=lambda c, q: [c, c, c, sc_inv(q, c), c])
    return fams


FAMILIES = _registry()


def build(family_id, n, lam, q):
    """The witness tuple m_lambda of the family, embedded and padded in F^{2n}."""
    fam = FAMILIES[family_id]
    if n < fam.n_min:
        raise ValueError("family %s needs n >= %d" % (family_id, fam.n_min))
    if lam not in fam.lambda_domain(q, n) and q:
        raise ValueError("lambda %r outside the domain of %s" % (lam, family_id))
    phi = _phi_o5 if fam.phi == "o5" else _phi_generic(fam.h)
    chains = []
    for comp, chain_spec in zip(fam.comps, fam.chains):
        dims = comp.dims
        spaces = []
        for dim, space_spec in zip(dims, chain_spec):
            rows = []
            for vec_spec in space_spec:
                raw = [0] * (2 * fam.h)
                for idx, cf in vec_spec:
                    raw[idx - 1] = _coeff(cf, lam, q)
                rows.append(phi(q, n, raw))
            pad = dim - len(rows)
            if pad < 0:
                raise AssertionError("family %s chain exceeds composition"
                                     % family_id)
            if pad > n - fam.h:
                raise ValueError("n too small to pad family %s" % family_id)
            for i in range(1, pad + 1):
                e = [0] * (2 * n)
                e[i - 1] = 1
                rows.append(e)
            spaces.append(canonicalize(q, 2 * n, rows))
        chains.append(tuple(spaces))
    ft = tuple(chains)
    bad = validate_tuple(ft, fam.comps, n)
    if bad is not None:
        raise AssertionError("family %s built an invalid tuple: %s"
                             % (family_id, bad))
    return ft


# ---------------------------------------------------------------------------
# equivariance certificates (square-class families)


def equivariance_check(family_id, lam, c, q, n=None):
    """Verified certificate g m_lambda = m_{lambda/c^2}, or a failure report
    ({"ok": False, ...} with the reason, lam and target).

    The candidate is a diagonal l(...) pattern determined by the family,
    embedded as identity on the padding block.
    """
    fam = FAMILIES[family_id]
    if fam.relation != "square-class":
        raise ValueError("equivariance certificates are for square-class "
                         "families")
    if n is None:
        n = fam.n_min
    c = sc(q, c)
    if c == 0:
        raise ValueError("c must be invertible")
    target = (lam * sc_inv(q, c) * sc_inv(q, c)) % q
    m_lam = build(family_id, n, lam, q)
    m_tgt = build(family_id, n, target, q)
    diag = fam.equivariance(c, q)
    entries = [sc(q, 1)] * (n - len(diag)) + [sc(q, x) for x in diag]
    a = Mat(q, [[entries[i] if i == j else 0 for j in range(n)]
                for i in range(n)])
    g = ell(a, n)
    if not is_orthogonal(g, n) or act(g, m_lam) != m_tgt:
        return {"ok": False, "reason": "the diagonal candidate fails",
                "lam": lam, "target": target}
    return {"ok": True, "g": g, "lam": lam, "target": target}


# ---------------------------------------------------------------------------
# separation


def separation_check(family_id, lam, mu, q, n=None):
    """Exact verdict for m_lambda ~ m_mu: (verdict, connecting g or None).

    The verdict is INFEASIBLE, by design, where the family is not separable
    at n; a run past the budget raises Infeasible.
    """
    fam = FAMILIES[family_id]
    if n is None:
        n = fam.n_min
    if not fam.separable_at(n):
        return INFEASIBLE, None
    x = build(family_id, n, lam, q)
    y = build(family_id, n, mu, q)
    return same_orbit(x, y, group_generators(q, n), n, q)


def family_classes(family_id, q, n=None, lambdas=None):
    """Exact orbit classes among {m_lambda}.

    The one moving component of each m_lambda is classed by the orbits of
    the stabilizer in O_2n of the lambda-independent components, largest
    first (``engine.stabilizer_orbits``, on ``geometry.small_generators``).
    Returns (classes, None), where classes is a list of lists of lambda
    values; the second item is always None.
    """
    fam = FAMILIES[family_id]
    if n is None:
        n = fam.n_min
    if not fam.separable_at(n):
        raise Infeasible("separation disabled for %s at n=%d" % (family_id, n))
    if lambdas is None:
        lambdas = fam.lambda_domain(q, n)
    flat = {lam: [s for ch in build(family_id, n, lam, q) for s in ch]
            for lam in lambdas}
    ref = flat[lambdas[0]]
    shared = [i for i in range(len(ref))
              if len({flat[lam][i] for lam in lambdas}) == 1]
    moving = [i for i in range(len(ref)) if i not in shared]
    if not moving:
        return [list(lambdas)], None
    if len(moving) != 1:
        raise Infeasible("family %s has %d moving components; expected 1"
                         % (family_id, len(moving)))
    fixed = [ref[i] for i in sorted(shared, key=lambda i: (-ref[i].dim, i))]
    points = [flat[lam][moving[0]] for lam in lambdas]
    return [[lambdas[i] for i in orb] for orb in stabilizer_orbits(
        small_generators(q, n), n, fixed, points)], None
