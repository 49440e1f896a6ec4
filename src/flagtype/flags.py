"""Compositions, isotropic flag chains, flag tuples, enumeration, action.

A FlagChain is a tuple of nested Subspaces; a FlagTuple is a tuple of
chains over one ambient space.  Everything is hashable, which is what the
orbit engine keys on.

Enumeration works over GF(q) as an orbit: by Witt's theorem O_2n is
transitive on the isotropic flags of one type, and GL_m on the flags of one
type in F_q^m (without ``iso_n``, as the GL-flag spot checks of the appendix
formula use it), so M_comp is the orbit of the standard flag of initial
coordinate spaces.  ``flag_spaces``
replaces each space of the standard flags by its orbit (``subspace_orbit``)
over one table of projective points (``PointTable``), so a generator moves
each point once and each member costs one RREF, and returns the flags with
the requested generators as permutations of them.  The one budget of the
package (FLAGTYPE_BUDGET, ``orbit_budget``, read once per public call)
counts orbit members: here flags, and the spaces of each dimension on the
way.  Every overrun raises ``Infeasible``, on which the CLI exits 3.
"""

import os
from itertools import product
from operator import getitem

from .linalg import (act_on_subspace, check_prime, combination,
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

    memo maps (g, subspace) -> g·s and (g, vector tuple) -> g·v (a Subspace
    never equals a tuple), so on a miss each row image costs at most one
    ``mat_vec`` and only the RREF of the image rows is left to do.
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


class PointTable:
    """Projective points over GF(q) (leading entry 1), numbered as they are
    met, with images[gi][p] the number of g_gi·points[p] scaled to leading
    entry 1.  Subspace orbits over one table move each point once; `known`
    maps a point to its images for a caller that has them already."""

    def __init__(self, gens, known=None):
        self.gens, self.known = gens, known or {}
        self.invs = inverse_table(gens[0].q)
        self.points, self.at = [], {}
        self.images = [[] for _ in gens]

    def number(self, v):
        p = self.at.get(v)
        if p is None:
            p = self.at[v] = len(self.points)
            self.points.append(v)
        return p

    def extend(self, top):
        """Find the images of the points numbered below top."""
        q, invs = self.gens[0].q, self.invs
        for v in self.points[len(self.images[0]):top]:
            ws = self.known.get(v) or [mat_vec(g, v) for g in self.gens]
            for w, img in zip(ws, self.images):
                c = invs[next(filter(None, w))]
                img.append(self.number(
                    w if c == 1 else tuple([x * c % q for x in w])))


def _sort_orbit(size, moves, key):
    """The members of an orbit in the order of key, and each of moves (the
    discovery index of each member's image) as a permutation of that order."""
    order = sorted(range(size), key=key)
    rank = [0] * size
    for r, a in enumerate(order):
        rank[a] = r
    return order, [tuple([rank[mv[a]] for a in order]) for mv in moves]


def subspace_orbit(start, table):
    """Orbit of a subspace over GF(q) under the generators of a
    ``PointTable``, sorted by rows, with each generator as a permutation.

    A member is keyed by the frozenset of the numbers of its projective
    points, a generator maps a key to its image's key by lookups, and only
    a member met for the first time is put in RREF.
    """
    check_prime(start.q)
    budget = orbit_budget()
    points, at = table.points, table.at
    key = frozenset(map(table.number, _projective_points(start)))
    members = {key: 0}  # key -> index in discovery order
    orbit, keys = [start], [key]
    moves = [[] for _ in table.gens]  # moves[gi][a]: the index of g_gi·orbit[a]
    for s, key in zip(orbit, keys):
        table.extend(max(key, default=-1) + 1)
        for g, img, mv in zip(table.gens, table.images, moves):
            image = frozenset(map(img.__getitem__, key))
            a = members.get(image)
            if a is None:
                a = members[image] = len(orbit)
                orbit.append(image_from_rows(
                    g, s, [points[img[at[r]]] for r in s.rows]))
                keys.append(image)
            mv.append(a)
        if len(orbit) > budget:
            raise Infeasible.over_budget(len(orbit), budget)
    order, perms = _sort_orbit(len(orbit), moves, lambda a: orbit[a].rows)
    return [orbit[a] for a in order], perms


def flag_spaces(q, ambient, comps, iso_n=None, gens=()):
    """{comp: (chains, perms)} for each distinct composition of comps: its
    flags in F_q^ambient sorted by rows, and perms[i] mapping j to the
    position of gens[i]·chains[j].

    The flags are the orbit of the standard flag U_[d1] < ... < U_[dk]
    under O_2n (Witt; isotropic iff iso_n is set) or GL_ambient and gens,
    so a generator outside that group makes more flags than ``flag_count``.
    It runs on the positions of the spaces in their orbits (all over one
    ``PointTable``), whose tuple order is the rows order of the chains.
    """
    check_prime(q)
    budget = orbit_budget()
    for comp in comps:
        comp.check(ambient if iso_n is None else iso_n)
    number = {g: i for i, g in enumerate(
        group_generators(q, iso_n) if iso_n is not None
        else gl_generators(q, ambient))}
    for g in gens:
        number.setdefault(g, len(number))
    table, levels, out = PointTable(list(number)), {}, {}
    for d in sorted({d for comp in comps for d in comp.dims}):
        std = coordinate_subspace(q, ambient, range(1, d + 1))
        spaces, perms = subspace_orbit(std, table)
        levels[d] = spaces, perms, spaces.index(std)
    for comp in dict.fromkeys(comps):
        spaces, perms, start = zip(*[levels[d] for d in comp.dims])
        moves = list(zip(*perms))
        found, order, tracks = {start: 0}, [start], [[] for _ in moves]
        for ch in order:
            for mv, track in zip(moves, tracks):
                img = tuple(map(getitem, mv, ch))
                a = found.get(img)
                if a is None:
                    a = found[img] = len(order)
                    order.append(img)
                track.append(a)
            if len(order) > budget:
                raise Infeasible.over_budget(len(order), budget)
        srt, perms = _sort_orbit(len(order), [tracks[number[g]] for g in gens],
                                 order.__getitem__)
        out[comp] = [tuple(map(getitem, spaces, order[a])) for a in srt], perms
    return out


def enumerate_chains(q, n, comp):
    """All flags of M_comp over GF(q), each exactly once, sorted by rows:
    ``flag_spaces`` of one composition, without permutations."""
    return flag_spaces(q, 2 * n, [comp], n)[comp][0]


def tuple_to_json(ft, n, q):
    return {"n": n, "q": q if q else "rational",
            "chains": [[s.to_json() for s in ch] for ch in ft]}
