"""Compositions, isotropic flag chains, flag tuples, enumeration, action.

A FlagChain is a tuple of nested Subspaces; a FlagTuple is a tuple of
chains over one ambient space.  Everything is hashable, which is what the
orbit engine keys on.

Enumeration works over GF(q) as an orbit: by Witt's theorem O_2n is
transitive on the isotropic flags of one type, and GL_m on the flags of one
type in F_q^m (without ``iso_n``, as the GL-flag spot checks of the appendix
formula use it), so M_comp is the orbit of the standard flag of initial
coordinate spaces.  ``flag_spaces`` replaces each space of the standard
flags by its orbit (``subspace_orbit``) over one table of projective points
(``PointTable``), and returns the flags with the requested generators as
permutations of them; only a composition of two or more parts walks a flag
orbit.  The orbit is walked on the sets of point numbers of its members
(``key_orbit``), so a generator moves each point once, and each member then
costs one RREF.  The table keeps the scalar of each image too, so
``engine.action_points`` moves vectors by lookups in it.  It depends on the
generator set alone, so it is built once per set and kept for the process
(``point_table``, for the last POINT_TABLES sets): points met by earlier
calls are moved again by no generator.  ``group_table`` picks the set: the
group's generators, then any others asked for, so the action of a subgroup
runs on the group's table, and every census, of an explicit chain list too
(``engine.census_product``), runs on these permutations.  ``act`` is the
plain action, one RREF per space.  The subspace orbits of
``engine.action_points`` are kept on the table too (``kept_orbit``), each
walked once and re-rooted on its integers for a call that starts at another
member; those of ``subspace_orbit`` and the flag orbits of ``flag_spaces``
are walked on every call.  The one budget of the package (FLAGTYPE_BUDGET,
``orbit_budget``) counts orbit members: here flags, and the spaces of each
dimension on the way.  It is read at the start of each walk, by
``key_orbit``, ``kept_orbit`` and ``flag_spaces`` here and by
``engine.action_points`` and ``engine._census``.  Every overrun raises
``Infeasible``, on which the CLI exits 3.
"""

import os
from functools import lru_cache
from operator import getitem

from .linalg import (act_on_subspace, check_prime, image_from_rows,
                     inverse_table, mat_vec)
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


def _projective_points(s):
    """The nonzero vectors of s with leading entry 1, over GF(q): for the
    RREF basis r_1..r_k, the combinations r_j + sum_(i>j) c_i r_i, by j and
    then by (c_(j+1), ..., c_k) in lexicographic order.  The tails
    sum_(i>j) c_i r_i are built from those of j + 1, one row at a time."""
    rows, q = s.rows, s.q
    tails, blocks = [(0,) * s.ambient], []
    for j in range(len(rows) - 1, -1, -1):
        r = rows[j]
        blocks.append([tuple([(a + b) % q for a, b in zip(r, v)])
                       for v in tails])
        if j:
            tails = [tuple([(c * a + b) % q for a, b in zip(r, v)])
                     for c in range(q) for v in tails]
    return [v for block in reversed(blocks) for v in block]


class PointTable:
    """Projective points over GF(q) (leading entry 1), numbered as they are
    met, with images[gi][p] the number of g_gi·points[p] scaled to leading
    entry 1 and scales[gi][p] the scalar c with
    g_gi·points[p] = c·points[images[gi][p]].  Subspace orbits and the
    vector block of ``engine.action_points`` over one table move each point
    once; orbits maps the key of each member of an orbit kept by
    ``kept_orbit`` to (keys, moves, its index)."""

    def __init__(self, gens):
        self.gens = gens
        self.invs = inverse_table(gens[0].q)
        self.points, self.at = [], {}
        self.images = [[] for _ in gens]
        self.scales = [[] for _ in gens]
        self.orbits = {}

    def number(self, v):
        p = self.at.get(v)
        if p is None:
            p = self.at[v] = len(self.points)
            self.points.append(v)
        return p

    def key(self, s):
        """The frozenset of the numbers of the projective points of s,
        numbering those not met yet: the key of s in ``key_orbit``."""
        return frozenset(map(self.number, _projective_points(s)))

    def known_key(self, s):
        """``key`` without numbering: a point not met yet shows as None, so
        the set equals no key of a member of an orbit over the table."""
        return frozenset(map(self.at.get, _projective_points(s)))

    def extend(self, top):
        """Find the images and scales of the points numbered below top.  All
        images of a point are found before any is stored, so an exception
        (ValueError for a singular generator, which sends a point to 0)
        leaves every images[gi] and scales[gi] of one length, as a table
        kept by ``point_table`` must be."""
        q, invs = self.gens[0].q, self.invs
        for v in self.points[len(self.images[0]):top]:
            ps, cs = [], []
            for g in self.gens:
                w = mat_vec(g, v)
                c = next(filter(None, w), 0)
                if not c:
                    raise ValueError("singular generator %r sends %r to 0"
                                     % (g.rows, v))
                ps.append(self.number(
                    w if c == 1 else tuple([x * invs[c] % q for x in w])))
                cs.append(c)
            for img, scl, p, c in zip(self.images, self.scales, ps, cs):
                img.append(p)
                scl.append(c)


# A pass of a perfbench workload cycles through at most eight generator
# sets (bruhat: for each of its four (n, q), O_2n's generators, which the
# enumeration and the P and G censuses share through ``group_table``, and
# those with w_2 for SO; census and witness: three), so eight keep the
# tables of a whole pass.
POINT_TABLES = 8


@lru_cache(maxsize=POINT_TABLES)
def point_table(gens):
    """The ``PointTable`` of the generator tuple gens, shared by every call
    on it: kept for the last POINT_TABLES sets used (a ``Mat`` compares by
    q and rows)."""
    return PointTable(gens)


def group_table(q, ambient, iso_n, gens):
    """(table, at): the kept ``PointTable`` for gens acting on flags of
    F_q^ambient, and at[i] the position of gens[i] among its generators.
    These are O_2n's (iso_n = n) or GL_ambient's (iso_n None), then those
    of gens outside them, so a subgroup of the group shares the group's
    table, and a set with one generator more (SO: w_2) adds one table."""
    number = {g: i for i, g in enumerate(
        group_generators(q, iso_n) if iso_n is not None
        else gl_generators(q, ambient))}
    for g in gens:
        number.setdefault(g, len(number))
    return point_table(tuple(number)), [number[g] for g in gens]


def key_orbit(key, table):
    """The orbit of a subspace, given by its ``PointTable.key``, under the
    generators of the table: (keys, moves), the members' keys in discovery
    order and moves[gi][a] the index of g_gi·keys[a].

    A generator maps a key to its image's key by lookups in the table, so
    the walk does no row reduction.  Each member is discovered from one
    with a smaller index.  Raises Infeasible past ``orbit_budget``.
    """
    budget = orbit_budget()
    members = {key: 0}  # key -> index in discovery order
    keys = [key]
    moves = [[] for _ in table.gens]
    for key in keys:
        table.extend(max(key, default=-1) + 1)
        for img, mv in zip(table.images, moves):
            image = frozenset(map(img.__getitem__, key))
            a = members.get(image)
            if a is None:
                a = members[image] = len(keys)
                keys.append(image)
            mv.append(a)
        if len(keys) > budget:
            raise Infeasible.over_budget(len(keys), budget)
    return keys, moves


def kept_orbit(key, table):
    """``key_orbit`` of key, kept on the table: each orbit is walked once
    per table and kept once, every member's key mapped to (keys, moves, its
    index).  A call from the orbit's root returns the kept lists (not to be
    changed); a call from another member re-roots them by a breadth-first
    walk of the integer moves from it, which meets the members in the order
    ``key_orbit`` would, so the result is the same.  The budget is read on
    every call: a kept orbit past it is walked again, which raises as a cold
    walk does, and a walk that raises keeps nothing."""
    kept = table.orbits.get(key)
    if kept is None or len(kept[0]) > orbit_budget():
        keys, moves = key_orbit(key, table)
        table.orbits.update((k, (keys, moves, a)) for a, k in enumerate(keys))
        return keys, moves
    keys, moves, root = kept
    if not root:
        return keys, moves
    rank = [None] * len(keys)
    rank[root], order = 0, [root]
    for a in order:
        for mv in moves:
            b = mv[a]
            if rank[b] is None:
                rank[b] = len(order)
                order.append(b)
    return ([keys[a] for a in order],
            [[rank[mv[a]] for a in order] for mv in moves])


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

    The orbit is walked on point-set keys (``key_orbit``); then each member
    is put in RREF once, as the image of the member it was discovered from.
    """
    check_prime(start.q)
    points, at = table.points, table.at
    keys, moves = key_orbit(table.key(start), table)
    orbit = [start] + [None] * (len(keys) - 1)
    for a, s in enumerate(orbit):
        for g, img, mv in zip(table.gens, table.images, moves):
            b = mv[a]
            if orbit[b] is None:
                orbit[b] = image_from_rows(
                    g, s, [points[img[at[r]]] for r in s.rows])
    order, perms = _sort_orbit(len(orbit), moves, lambda a: orbit[a].rows)
    return [orbit[a] for a in order], perms


def flag_spaces(q, ambient, comps, iso_n=None, gens=()):
    """{comp: (chains, perms)} for each distinct composition of comps: its
    flags in F_q^ambient sorted by rows, and perms[i] mapping j to the
    position of gens[i]·chains[j].

    The flags are the orbit of the standard flag U_[d1] < ... < U_[dk]
    under O_2n (Witt; isotropic iff iso_n is set) or GL_ambient and gens,
    so a generator outside that group makes more flags than ``flag_count``.
    A composition of one part is its subspace orbit; only one of two or
    more parts walks the flag orbit, on the positions of the spaces in
    their orbits, whose tuple order is the rows order of the chains.  The
    orbits are walked on every call, over the ``PointTable`` kept for the
    generator set (the group's generators, then those of gens outside it:
    ``group_table``), so the points met by earlier calls on the set are
    moved again by no generator.
    """
    check_prime(q)
    budget = orbit_budget()
    for comp in comps:
        comp.check(ambient if iso_n is None else iso_n)
    (table, at), levels, out = group_table(q, ambient, iso_n, gens), {}, {}
    for d in sorted({d for comp in comps for d in comp.dims}):
        std = coordinate_subspace(q, ambient, range(1, d + 1))
        spaces, perms = subspace_orbit(std, table)
        levels[d] = spaces, perms, spaces.index(std)
    for comp in dict.fromkeys(comps):
        spaces, perms, start = zip(*[levels[d] for d in comp.dims])
        if len(spaces) == 1:  # the flags are the subspace orbit
            out[comp] = [(s,) for s in spaces[0]], [perms[0][i] for i in at]
            continue
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
        srt, perms = _sort_orbit(len(order), [tracks[i] for i in at],
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
