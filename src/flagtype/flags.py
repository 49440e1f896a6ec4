"""Compositions, isotropic flag chains, flag tuples, enumeration, action.

A FlagChain is a tuple of nested Subspaces; a FlagTuple is a tuple of
chains over one ambient space.  Everything is hashable, which is what the
orbit engine keys on.

Enumeration works over GF(q) as an orbit: by Witt's theorem O_2n is
transitive on the isotropic flags of one type, and GL_m on the flags of one
type in F_q^m (``isotropic=False``, which is what the GL-flag spot checks of
the appendix formula use), so M_comp is the orbit of the standard flag of
initial coordinate spaces.  The one budget of the package
(FLAGTYPE_BUDGET, ``orbit_budget``) counts orbit members: here flags, and
the spaces of each dimension on the way.
"""

import os

from .linalg import act_on_subspace, check_field
from .geometry import (is_isotropic, coordinate_subspace, group_generators,
                       gl_generators)


DEFAULT_ORBIT_BUDGET = 10 ** 8


class BudgetExceeded(Exception):
    def __init__(self, projected, budget):
        self.projected = projected
        self.budget = budget
        super().__init__("orbit budget exceeded: %r > %r" % (projected, budget))


def orbit_budget():
    """The most members one orbit may have: FLAGTYPE_BUDGET, for flag
    enumerations and orbit searches alike."""
    return int(os.environ.get("FLAGTYPE_BUDGET", DEFAULT_ORBIT_BUDGET))


class Composition:
    """A nonempty tuple of positive parts with sum <= n."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError("composition parts must be positive, got %r" % (parts,))
        self.parts = parts

    @property
    def dims(self):
        out, s = [], 0
        for p in self.parts:
            s += p
            out.append(s)
        return tuple(out)

    def total(self):
        return sum(self.parts)

    def check(self, n):
        if self.total() > n:
            raise ValueError("composition %r exceeds n=%d" % (self.parts, n))

    def __eq__(self, other):
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Composition%r" % (self.parts,)


def flag_count(q, n, comp):
    """|M_comp| in closed form: the step to dims[j] picks an isotropic
    parts[j]-space in the split rank-(n - dims[j-1]) space U^perp/U."""
    out, rank = 1, n
    for k in comp.parts:
        for i in range(k):
            out = (out * (q ** (rank - i) - 1) * (q ** (rank - i - 1) + 1)
                   // (q ** (i + 1) - 1))
        rank -= k
    return out


def validate(ch, comp, n):
    """None if the chain is a valid member of M_comp, else the first violation."""
    dims = comp.dims
    if len(ch) != len(dims):
        return "length: chain has %d spaces, composition needs %d" % (len(ch), len(dims))
    for i, s in enumerate(ch):
        if s.ambient != 2 * n:
            return "ambient: space %d lives in F^%d, expected F^%d" % (i, s.ambient, 2 * n)
        if s.dim != dims[i]:
            return "dimension: space %d has dim %d, expected %d" % (i, s.dim, dims[i])
    for i in range(len(ch) - 1):
        if not ch[i + 1].contains_space(ch[i]):
            return "nesting: space %d is not contained in space %d" % (i, i + 1)
    if not is_isotropic(ch[-1], n):
        return "isotropy: top space is not isotropic"
    return None


def validate_tuple(ft, comps, n):
    for i, (ch, comp) in enumerate(zip(ft, comps)):
        v = validate(ch, comp, n)
        if v is not None:
            return "chain %d: %s" % (i, v)
    if len(ft) != len(comps):
        return "tuple length mismatch"
    return None


def act(g, ft):
    """Componentwise image of a FlagTuple (tuple of chains) under g."""
    return tuple(tuple(act_on_subspace(g, s) for s in ch) for ch in ft)


def memo_act(memo, g, s):
    """g·s through memo, a dict keyed by (matrix, subspace)."""
    t = memo.get((g, s))
    if t is None:
        t = memo[(g, s)] = act_on_subspace(g, s)
    return t


def subspace_orbit(start, gens, memo, budget):
    """Orbit of a subspace, sorted by rows, with each generator as a
    permutation of it."""
    seen = {start}
    orbit = [start]
    for s in orbit:
        for g in gens:
            t = memo_act(memo, g, s)
            if t not in seen:
                seen.add(t)
                orbit.append(t)
        if len(orbit) > budget:
            raise BudgetExceeded(len(orbit), budget)
    orbit.sort(key=lambda s: s.rows)
    pos = {s: i for i, s in enumerate(orbit)}
    return orbit, [tuple(pos[memo[(g, s)]] for s in orbit) for g in gens]


def enumerate_chains(q, n, comp, isotropic=True, budget=None, memo=None):
    """All flags of M_comp over GF(q), each exactly once, sorted by rows.

    With isotropic=False this enumerates plain GL-flags of F_q^{2n}; the
    appendix spot checks call it with the ambient reinterpreted as F_q^m via
    ``ambient`` below.
    """
    return enumerate_chains_ambient(q, 2 * n, comp, n if isotropic else None,
                                    budget, memo)


def enumerate_chains_ambient(q, ambient, comp, iso_n=None, budget=None,
                             memo=None):
    """Flag enumeration in F_q^ambient; isotropy enforced iff iso_n is set.

    The flags are the orbit of the standard flag U_[d1] < ... < U_[dk] under
    O_2n (Witt) or GL_ambient.  Each space U_[d] is first replaced by its
    orbit, indexed in rows order, so the flag orbit runs on integer tuples
    whose order is the rows order of the chains.  ``memo`` maps
    (generator, subspace) to the image; a caller that acts on the flags with
    the same generators can pass its own dict and reuse the images.
    """
    check_field(q)
    if not q:
        raise ValueError("flag enumeration needs a finite field")
    if budget is None:
        budget = orbit_budget()
    if memo is None:
        memo = {}
    if iso_n is not None:
        comp.check(iso_n)
        gens = group_generators(q, iso_n)
    else:
        if comp.total() > ambient:
            raise ValueError("composition exceeds ambient dimension")
        gens = gl_generators(q, ambient)
    standard = [coordinate_subspace(q, ambient, range(1, d + 1))
                for d in comp.dims]
    levels = [subspace_orbit(s, gens, memo, budget) for s in standard]
    spaces = [orbit for orbit, _ in levels]
    moves = list(zip(*[perms for _, perms in levels]))
    start = tuple(orbit.index(s) for orbit, s in zip(spaces, standard))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for ch in frontier:
            for perms in moves:
                img = tuple(p[x] for p, x in zip(perms, ch))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        if len(seen) > budget:
            raise BudgetExceeded(len(seen), budget)
        frontier = nxt
    return [tuple(sp[x] for sp, x in zip(spaces, ch)) for ch in sorted(seen)]


def enumerate_subspaces(q, ambient, dim, iso_n=None, budget=None):
    """All dim-dimensional (isotropic) subspaces, via the chain enumerator."""
    return [ch[0] for ch in
            enumerate_chains_ambient(q, ambient, Composition([dim]), iso_n, budget)]


def tuple_to_json(ft, n, q):
    return {"n": n, "q": q if q else "rational",
            "chains": [[s.to_json() for s in ch] for ch in ft]}
