"""Compositions, isotropic flag chains, flag tuples, enumeration, action.

A FlagChain is a tuple of nested Subspaces; a FlagTuple is a tuple of
chains over one ambient space.  Everything is hashable, which is what the
orbit engine keys on.

Enumeration works over GF(q) as an orbit: by Witt's theorem O_2n is
transitive on the isotropic flags of one type, and GL_m on the flags of one
type in F_q^m (``enumerate_chains_ambient`` without ``iso_n``, which is what
the GL-flag spot checks of the appendix formula use), so M_comp is the orbit
of the standard flag of initial coordinate spaces.  Each space of the
standard flag is first replaced by its orbit (``subspace_orbit``), whose
members are keyed by their projective points, so a generator moves each
point once and each member costs one RREF.  The one budget of the
package (FLAGTYPE_BUDGET, ``orbit_budget``, read once per public call)
counts orbit members: here flags, and the spaces of each dimension on the
way.  Every overrun raises ``Infeasible``, on which the CLI exits 3.
"""

import os
from itertools import product

from .linalg import (act_on_subspace, check_field, combination,
                     image_from_rows, inverse_table, mat_vec)
from .geometry import (is_isotropic, coordinate_subspace, group_generators,
                       gl_generators)


DEFAULT_ORBIT_BUDGET = 10 ** 8


class Infeasible(Exception):
    """A computation past the budget (or a cap), or not run by design."""

    @classmethod
    def over_budget(cls, size, allowed):
        return cls("orbit budget exceeded: %r > %r" % (size, allowed))


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
    """g·s through memo, equal to ``act_on_subspace(g, s)``.

    memo is a dict of images under matrices: (g, subspace) -> g·s and
    (g, vector tuple) -> g·v (a Subspace never equals a tuple, so both kinds
    share one dict).  On a miss, the image of each row of s comes from the
    memo or one ``mat_vec``, and only the RREF of the image rows is left to
    do (``linalg.image_from_rows``); an image stored by another caller
    (``subspace_orbit``, ``engine.action_points``) is used like one
    computed here.
    """
    t = memo.get((g, s))
    if t is None:
        rows = []
        for r in s.rows:
            w = memo.get((g, r))
            if w is None:
                w = memo[(g, r)] = mat_vec(g, r)
            rows.append(w)
        t = memo[(g, s)] = image_from_rows(g, s, rows)
    return t


def _projective_points(s):
    """The nonzero vectors of s with leading entry 1, over GF(q): for the
    RREF basis r_1..r_k, the combinations r_j + sum_(i>j) c_i r_i."""
    rows, q = s.rows, s.q
    return [combination(q, (1,) + coeffs, rows[j:], s.ambient)
            for j in range(len(rows))
            for coeffs in product(range(q), repeat=len(rows) - j - 1)]


def subspace_orbit(start, gens, memo):
    """Orbit of a subspace over GF(q), sorted by rows, with each generator
    as a permutation of it.

    A member is keyed by the frozenset of the ids of its projective points
    (``_projective_points``).  Each point's image under each generator is
    found once, from the (g, vector) entries of the action memo of
    ``memo_act`` or by one ``mat_vec``, and scaled to leading entry 1; a
    generator then maps a member's key to its image's key by lookups, and
    only a member met for the first time is put in RREF.  Every image
    g·s of a member goes into the memo as ``memo_act`` would store it.  The
    search records the discovery index of each image, and the permutations
    are those indices mapped through the ranks of the sort.
    """
    q = start.q
    if not q:
        raise ValueError("subspace orbits need a finite field")
    budget = orbit_budget()
    invs = inverse_table(q)
    points = _projective_points(start)
    at = {p: i for i, p in enumerate(points)}
    images = [[] for _ in gens]
    key = frozenset(range(len(points)))
    members = {key: 0}  # key -> index in discovery order
    orbit, keys = [start], [key]
    moves = [[] for _ in gens]  # moves[gi][a]: the index of g_gi·orbit[a]
    done = 0  # the points whose images are known
    for s, key in zip(orbit, keys):
        top = max(key, default=-1) + 1
        for v in points[done:top]:
            for g, img in zip(gens, images):
                w = memo.get((g, v))
                if w is None:
                    w = memo[(g, v)] = mat_vec(g, v)
                lead = next(filter(None, w))
                if lead != 1:
                    lead = invs[lead]
                    w = tuple([x * lead % q for x in w])
                p = at.get(w)
                if p is None:
                    p = at[w] = len(points)
                    points.append(w)
                img.append(p)
        done = max(done, top)
        for g, img, mv in zip(gens, images, moves):
            image = frozenset(map(img.__getitem__, key))
            a = members.get(image)
            if a is None:
                a = members[image] = len(orbit)
                orbit.append(image_from_rows(
                    g, s, [points[img[at[r]]] for r in s.rows]))
                keys.append(image)
            memo[(g, s)] = orbit[a]
            mv.append(a)
        if len(orbit) > budget:
            raise Infeasible.over_budget(len(orbit), budget)
    order = sorted(range(len(orbit)), key=lambda a: orbit[a].rows)
    rank = [0] * len(order)
    for r, a in enumerate(order):
        rank[a] = r
    return ([orbit[a] for a in order],
            [tuple([rank[mv[a]] for a in order]) for mv in moves])


def enumerate_chains(q, n, comp, memo=None):
    """All flags of M_comp over GF(q), each exactly once, sorted by rows."""
    return enumerate_chains_ambient(q, 2 * n, comp, n, memo)


def enumerate_chains_ambient(q, ambient, comp, iso_n=None, memo=None):
    """Flag enumeration in F_q^ambient; isotropy enforced iff iso_n is set.

    The flags are the orbit of the standard flag U_[d1] < ... < U_[dk] under
    O_2n (Witt) or GL_ambient.  Each space U_[d] is first replaced by its
    orbit, indexed in rows order, so the flag orbit runs on integer tuples
    whose order is the rows order of the chains.  ``memo`` is the action
    memo of ``memo_act`` (images of subspaces and of their rows); a caller
    that acts on the flags with the same generators can pass its own dict
    and reuse the images.
    """
    check_field(q)
    if not q:
        raise ValueError("flag enumeration needs a finite field")
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
    levels = [subspace_orbit(s, gens, memo) for s in standard]
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
            raise Infeasible.over_budget(len(seen), budget)
        frontier = nxt
    return [tuple(sp[x] for sp, x in zip(spaces, ch)) for ch in sorted(seen)]


def tuple_to_json(ft, n, q):
    return {"n": n, "q": q if q else "rational",
            "chains": [[s.to_json() for s in ch] for ch in ft]}
