"""Exact orbit computation over GF(q): BFS orbits, same-orbit decisions
with connecting elements, and orbit censuses.

Everything here is exact; large jobs either finish or raise Infeasible
(``flags.Infeasible``, re-exported here) past the budget, which each walk
reads from ``flags.orbit_budget`` at its start (here ``action_points`` and
``_census``).
Orbit and stabilizer work runs on integers: the spaces involved are indexed
once, every generator becomes a permutation of the points, and stabilizers
come from a Schreier-Sims chain (``perm.StabChain``) whose base begins at
the points to be fixed.  The chain keeps a Schreier vector per level and
builds a transversal element only when one is asked for, so its memory
grows with the basic orbits, not with their product by the number of
points.

Censuses run on whole flag spaces M_c as blocks of points, with the
generator permutations that the enumeration found (``flags.flag_spaces``).
Explicit chain lists (``census_product``, ``census_direct``) are checked
against that enumeration, each list all of one M_c and each chain once, and
the census then runs on the enumeration's blocks, as ``census_space`` does.
One recursion (``_census``) serves every census, on the enumeration's
numbering of the points at every depth.  Each depth takes the orbits of the
current group on its block and, for each orbit's representative, the
stabilizer from a Schreier-Sims chain based at it; then it goes one depth
deeper or hands the blocks left to a code tail.  There a tuple of them is
the mixed-radix integer of their positions, in tuple_key order; each
generator is a permutation of those codes built from one weight list per
block, and only the smallest code of each orbit of codes is decoded.  A
small product is coded from depth 1 on, a larger one searched down to its
last depth.  As every block is whole, the chains telescope their orders down
every depth from a bound on the top one: no group order is assumed.  One
``signatures`` call ranks each distinct pair of spaces among all the
representatives once.

Same-orbit decisions and stabilizer orbits index vectors and subspaces
(``action_points``): the vectors make the action faithful, so the chain's
order is bounded by |O_2n(q)|, or |SO_2n(q)| for generators of determinant
1, and a permutation converts back to the connecting matrix.  The subspace
blocks follow in discovery order, their members keyed by the sets of their
projective points, never row-reduced or sorted; ``index`` is a lookup that
finds a space's point through that key.  As the vector block keeps its
numbering and comes first, every chain level opens at a vector point, and
the breadth-first Schreier trees do not depend on how the subspace points
are numbered.  The vector block reads its images off the point table
(``flags.point_table``), which keeps the scalar of each image; block,
table and ``order_bound`` are built once per generator set and kept.  Each
subspace orbit is walked once per set and kept on the table
(``flags.kept_orbit``), re-rooted on its integers for a call that starts
at another member; the chains are built on every call.  ``stabilizer_orbits``
gives the orbits of the stabilizer of some subspaces on others, for the
witness classes and the R-classes alike; its chain must reach that bound,
which certifies the generating set it is given.
"""

from bisect import bisect_left
from functools import cache, lru_cache
from math import prod

from .linalg import (Mat, identity, inverse, mat_mul, act_on_subspace,
                     rank_rows, check_prime)
from .geometry import (form, group_order, coordinate_subspace, is_isotropic,
                       classify_element, NOT_ORTHOGONAL, IN_SO)
from . import flags as _flags
from .flags import Infeasible
from .perm import StabChain, inv, mul, orbits


MATERIALIZE_CAP = 500_000
GENLIST_CAP = 20_000
# products of at most this many tuples get the direct census
DIRECT_LIMIT = 200_000


INFEASIBLE = "Infeasible"  # a separation not run by design (witnesses)
SAME = "Yes"
DIFFERENT = "No"


class ActionCache:
    """Memoized action of a fixed generator list on subspaces."""

    def __init__(self, gens):
        self.gens = list(gens)
        self.cache = {}

    def sub(self, gi, s):
        key = (gi, s)
        out = self.cache.get(key)
        if out is None:
            out = act_on_subspace(self.gens[gi], s)
            self.cache[key] = out
        return out


def tuple_key(ft):
    return tuple(tuple(s.rows for s in ch) for ch in ft)


def chain_key(ch):
    return tuple(s.rows for s in ch)


def orbit_with_tree(start, gens, act_fn, budget=None, stop_at=None):
    """BFS orbit with a spanning tree {member: (parent, gen_index) | None}."""
    if budget is None:
        budget = _flags.orbit_budget()
    tree = {start: None}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for gi in range(len(gens)):
                y = act_fn(gi, x)
                if y not in tree:
                    tree[y] = (x, gi)
                    order.append(y)
                    nxt.append(y)
                    if len(tree) > budget:
                        raise Infeasible("orbit budget exceeded")
                    if stop_at is not None and y == stop_at:
                        return order, tree
        frontier = nxt
    return order, tree


def subspace_orbit_with_transversal(start, gens, q, dim, budget=None):
    """Orbit of one Subspace plus a transversal matrix per member."""
    if budget is None:
        budget = _flags.orbit_budget()
    cache = ActionCache(gens)
    trans = {start: identity(q, dim)}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            gx = trans[x]
            for gi in range(len(gens)):
                y = cache.sub(gi, x)
                if y not in trans:
                    trans[y] = mat_mul(gens[gi], gx)
                    order.append(y)
                    nxt.append(y)
                    if len(trans) > budget:
                        raise Infeasible("orbit budget exceeded")
        frontier = nxt
    return order, trans


def close_group(gens, cap):
    """Materialize <gens> by BFS; raises Infeasible beyond cap.  The
    package calls it nowhere: the tests use it as an oracle, and the
    perfbench tracer wraps it."""
    q = gens[0].q
    dim = gens[0].nrows
    ident = identity(q, dim)
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g)
                if y not in group:
                    group.add(y)
                    nxt.append(y)
                    if len(group) > cap:
                        raise Infeasible("group materialization cap exceeded")
        frontier = nxt
    return group


def grow_group(elements, gens, h, cap):
    """Extend the closed set `elements` = <gens> to <gens + [h]> in place."""
    gens = list(gens) + [h]
    frontier = []
    for m in list(elements):
        y = mat_mul(m, h)
        if y not in elements:
            elements.add(y)
            frontier.append(y)
            if len(elements) > cap:
                raise Infeasible("group materialization cap exceeded")
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > cap:
                        raise Infeasible("group materialization cap exceeded")
        frontier = nxt
    return elements


class StabLevel:
    """Exact stabilizer description along a descent chain.

    gens always generate the group exactly; elements is the materialized
    set when available; order is the exact group order when known.
    """

    def __init__(self, gens, order=None, elements=None):
        self.gens = list(gens)
        self.order = order
        self.elements = elements


def schreier_descend(level, point, q, dim, budget=None,
                     materialize_cap=MATERIALIZE_CAP):
    """Exact stabilizer of `point` inside `level`, plus orbit and transversal.

    The returned level's generators are Schreier generators (complete by
    Schreier's lemma).  When the exact order is known and fits the cap the
    subgroup is materialized and generator acceptance stops early; otherwise
    a deduplicated generator list is kept.
    """
    order_list, trans = subspace_orbit_with_transversal(point, level.gens, q,
                                                        dim, budget)
    if len(order_list) == 1:
        # every generator fixes the point: the stabilizer is the whole level
        return level, order_list, trans
    sub_order = None
    if level.order is not None:
        if level.order % len(order_list):
            raise AssertionError("orbit size does not divide the group order")
        sub_order = level.order // len(order_list)
    cache = ActionCache(level.gens)
    ident = identity(q, dim)
    accepted = []
    elements = {ident}
    materialized = sub_order is not None and sub_order <= materialize_cap
    seen_raw = {ident}
    inv_cache = {}
    done = False
    for x in order_list:
        if done:
            break
        gx = trans[x]
        for gi in range(len(level.gens)):
            y = cache.sub(gi, x)
            gy_inv = inv_cache.get(y)
            if gy_inv is None:
                gy_inv = inverse(trans[y])
                inv_cache[y] = gy_inv
            h = mat_mul(gy_inv, mat_mul(level.gens[gi], gx))
            if materialized:
                if h in elements:
                    continue
                accepted.append(h)
                grow_group(elements, accepted, h, materialize_cap)
                if len(elements) == sub_order:
                    done = True
                    break
            else:
                if h in seen_raw:
                    continue
                seen_raw.add(h)
                accepted.append(h)
                if len(accepted) > GENLIST_CAP:
                    raise Infeasible("stabilizer generator list too large")
    if materialized and len(elements) != sub_order:
        raise AssertionError("Schreier closure does not reach the exact order")
    new = StabLevel(accepted if accepted else [ident],
                    order=sub_order,
                    elements=elements if materialized else None)
    return new, order_list, trans


def signature(ft, n):
    """``signatures`` of the one flag tuple ft."""
    return signatures([ft], n)[0]


def signatures(fts, n):
    """Each flag tuple's G-invariant vector of dimensions, from ranks.

    The pool of a tuple is its components S_1..S_m in order, then their
    perps.  The entries are dim S_i, then dim S_i^perp = 2n - d_i, then
    dim(P ∩ P') for each pair P before P' in the pool.  As the split form is
    nondegenerate, each meet's dim is a rank:
    dim(S_i ∩ S_j) = d_i + d_j - rank[S_i; S_j],
    dim(S_i^perp ∩ S_j^perp) = 2n - rank[S_i; S_j], and
    dim(S_i ∩ S_j^perp) = d_i - rank Gram(S_i, S_j), with Gram(S_i, S_j)
    the d_i x d_j matrix of the form on their bases (i = j included); the
    Gram matrices of (i, j) and (j, i) are transposes, so of one rank.  A
    call ranks each distinct pair of spaces once, (S, S) included; a tuple
    not all in F^2n over one field raises ValueError.
    """
    w, ranks, out = 2 * n, {}, []
    for ft in fts:
        subs = [s for ch in ft for s in ch]
        if any(s.ambient != w for s in subs):
            raise ValueError("ambient mismatch in signature")
        if len({s.q for s in subs}) > 1:
            raise ValueError("subspace field/ambient mismatch")
        for i, s in enumerate(subs):
            for t in subs[i:]:
                if (s, t) not in ranks:
                    q = s.q
                    ranks[s, t] = ranks[t, s] = (
                        s.dim if s == t else rank_rows(s.rows + t.rows, q, w),
                        rank_rows([[form(q, n, u, v) for v in t.rows]
                                   for u in s.rows], q, t.dim))
        m, dims = len(subs), [s.dim for s in subs]
        r = [[ranks[s, t] for t in subs] for s in subs]
        sig = dims + [w - d for d in dims]
        for i in range(m):
            sig += [dims[i] + dims[j] - r[i][j][0] for j in range(i + 1, m)]
            sig += [dims[i] - r[i][j][1] for j in range(m)]
        for i in range(m):
            sig += [w - r[i][j][0] for j in range(i + 1, m)]
        out.append(tuple(sig))
    return out


class SpacePoints:
    """The subspace points of ``action_points``: a space's point is found
    through its projective-point key in the shared ``flags.PointTable``
    (the spaces given to ``action_points`` by a dict, as their keys are
    known), and ``lengths`` holds the length of each subspace block in
    order."""

    def __init__(self, table):
        self.table, self.point, self.given, self.lengths = table, {}, {}, []

    def get(self, s):
        """The point of s, or None when s lies in no block."""
        p = self.given.get(s)
        return self.point.get(self.table.known_key(s)) if p is None else p

    def __getitem__(self, s):
        p = self.get(s)
        if p is None:
            raise KeyError(s)
        return p

    def __len__(self):
        return len(self.point)


def action_points(gens, spaces):
    """Integer points for the action of the matrix group <gens>.

    Points come in blocks.  The first holds the vectors reached from the
    standard basis e_1..e_m, breadth-first, with e_i at point i-1; the
    action on it is faithful, so a permutation of the points determines its
    matrix (see ``point_matrix``).  Then comes the orbit of each of `spaces`
    not already in a block, in discovery order, its members keyed by their
    sets of projective points (``flags.key_orbit``): no block is
    row-reduced or sorted.  Returns (vectors, index, images): vectors is the
    first block (shared by every call on gens: not to be changed), index
    the ``SpacePoints`` lookup of the later blocks (``index[s]`` is the
    point of s, ``index.get(s)`` None for a space in no block), and
    images[gi] is generator gi as a permutation of all points.

    Over GF(q) only (q = 0 raises ValueError: the orbits are infinite),
    every block moves through the ``flags.PointTable`` of gens, which moves
    each projective point by one ``mat_vec`` and keeps its image and scale:
    c·u goes to c times the scale times the image of u, and a subspace
    orbit maps point sets by lookups.  Under O_2n's generators the subspace
    orbits move no point the first block has not moved, as isotropic
    vectors lie in the orbit of e_1 (Witt).  The first block, the table and
    each subspace orbit are built once per generator set and kept
    (``_kept_vector_block``, ``flags.point_table``, ``flags.kept_orbit``):
    an orbit met again from another member is re-rooted on its integers, so
    its block keeps the discovery order from the space that starts it.  The
    budget is read at the start of every call: a kept block or orbit past
    it raises as when it is built.
    """
    check_prime(gens[0].q)
    budget = _flags.orbit_budget()
    gens = tuple(gens)
    table = _flags.point_table(gens)
    vectors, moved = _kept_vector_block(gens)
    if len(vectors) > budget:
        # kept from a call under a larger budget: the build raises as a
        # cold call does, and finds every image it needs in the table
        _vector_block(table, budget)
    index = SpacePoints(table)
    images = [[] for _ in gens]
    for s in spaces:
        key = table.key(s)
        if key not in index.point:
            keys, moves = _flags.kept_orbit(key, table)
            offset = len(vectors) + len(index)
            index.point.update(zip(keys, range(offset, offset + len(keys))))
            index.lengths.append(len(keys))
            for img, mv in zip(images, moves):
                img.extend([offset + x for x in mv])
        index.given[s] = index.point[key]
    return vectors, index, [v + tuple(img) for v, img in zip(moved, images)]


def _vector_block(table, budget):
    """The first block of ``action_points`` for the generators of a
    ``flags.PointTable``: (vectors, images), images[gi] the positions of
    g_gi·vectors as a tuple.  A vector v = lead·u, u of leading entry 1, is
    moved by lookups in the table: g_gi·v = lead·c·points[images[gi][u]],
    c = scales[gi][u].  Raises Infeasible once the block passes the budget,
    and the table's ValueError for a singular generator."""
    m, q = table.gens[0].nrows, table.gens[0].q
    vectors = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    at = {v: i for i, v in enumerate(vectors)}
    images = [[] for _ in table.gens]
    for v in vectors:
        lead = next(filter(None, v))
        u = table.number(v if lead == 1 else
                         tuple([table.invs[lead] * x % q for x in v]))
        table.extend(u + 1)
        for img, ims, scl in zip(images, table.images, table.scales):
            w, c = table.points[ims[u]], lead * scl[u] % q
            if c != 1:
                w = tuple([c * x % q for x in w])
            p = at.get(w)
            if p is None:
                p = at[w] = len(vectors)
                vectors.append(w)
            img.append(p)
        if len(vectors) > budget:
            raise Infeasible.over_budget(len(vectors), budget)
    return vectors, [tuple(img) for img in images]


@lru_cache(maxsize=_flags.POINT_TABLES)
def _kept_vector_block(gens):
    """``_vector_block`` of the generator tuple gens, on its
    ``flags.point_table``, under the budget of its first call, kept for as
    many sets as ``flags.point_table`` keeps tables; a build that raises is
    not kept."""
    return _vector_block(_flags.point_table(gens), _flags.orbit_budget())


def point_matrix(perm, vectors, q):
    """The matrix acting on the points of ``action_points`` as `perm` does:
    its column i is the image of e_(i+1)."""
    m = len(vectors[0])
    return Mat.raw(q, tuple(tuple(vectors[perm[c]][r] for c in range(m))
                            for r in range(m)))


def order_bound(gens, n):
    """An upper bound on the order of <gens> once each generator is checked
    to be orthogonal (ValueError otherwise): |SO_2n(q)| = |O_2n(q)|/2 if
    every generator has determinant 1, else |O_2n(q)|.  The bound is kept
    for as many (generator set, n) as ``flags.point_table`` keeps tables;
    a set that fails the check is checked again, and raises, on every
    call."""
    return _order_bound(tuple(gens), n)


@lru_cache(maxsize=_flags.POINT_TABLES)
def _order_bound(gens, n):
    verdicts = {classify_element(g, n) for g in gens}
    if NOT_ORTHOGONAL in verdicts:
        raise ValueError("generator is not orthogonal")
    return group_order(gens[0].q, n) // (2 if verdicts == {IN_SO} else 1)


def stabilizer_orbits(gens, n, fixed, spaces):
    """The orbits on `spaces` of the stabilizer in <gens> of every subspace
    in `fixed`, as lists of positions in `spaces`, each ascending, in the
    order of their first positions.

    `gens` must generate O_2n, or SO_2n if all have determinant 1, and
    may be any such set: ``geometry.small_generators`` keeps every orbit
    and Schreier tree to four images per point.  The spaces are points of
    ``action_points``.  The stabilizer is the level after the points of
    `fixed` in one chain based at them, bounded by ``order_bound``.  That
    chain, on a faithful action, must reach the bound, which certifies the
    set; AssertionError otherwise.  The error comes before any chain when
    fixed[0] is an isotropic d-space, d > 0, whose block is not all of
    M_(d) (half of it for d = n under SO_2n), as under O_2n and SO_2n it
    must be."""
    _, index, images = action_points(gens, fixed + spaces)
    bound = order_bound(gens, n)
    d = fixed[0].dim if fixed else 0
    if d and is_isotropic(fixed[0], n):
        want = _flags.flag_count(gens[0].q, n, _flags.Composition([d]))
        if d == n and bound < group_order(gens[0].q, n):
            want //= 2
        if index.lengths[0] != want:
            raise AssertionError("the generators do not generate O_2n or "
                                 "SO_2n: a fixed %d-space has %d images, "
                                 "expected %d" % (d, index.lengths[0], want))
    base = list(dict.fromkeys(index[s] for s in fixed))
    chain = StabChain(images, len(images[0]), base=base, order=bound)
    if chain.order() != bound:
        raise AssertionError("the generators do not generate O_2n or SO_2n: "
                             "chain order %d, expected %d"
                             % (chain.order(), bound))
    stab = chain.gens[len(base)] if len(base) < len(chain.gens) else []
    orbit_of = {}
    for k, orb in enumerate(orbits(stab, [index[s] for s in spaces])):
        orbit_of.update(dict.fromkeys(orb, k))
    classes = {}
    for i, s in enumerate(spaces):
        classes.setdefault(orbit_of[index[s]], []).append(i)
    return list(classes.values())


def same_orbit(x, y, gens, n, q):
    """Exact same-orbit decision; returns (verdict, connecting element|None)
    with verdict SAME or DIFFERENT, and raises Infeasible past the budget.

    One stabilizer chain of <gens> has a base beginning with the points of
    x's subspaces, largest first.  y's points are sifted through those
    levels: each must lie in its basic orbit, and the product of the
    transversal elements met (``StabChain.transversal``, built by walking
    the level's Schreier tree) carries y to x.
    """
    if tuple(len(ch) for ch in x) != tuple(len(ch) for ch in y):
        return DIFFERENT, None
    if tuple_key(x) == tuple_key(y):
        return SAME, identity(q, 2 * n)
    if signature(x, n) != signature(y, n):
        return DIFFERENT, None
    fx = [s for ch in x for s in ch]
    fy = [s for ch in y for s in ch]
    vectors, index, images = action_points(gens, fx)
    # base point (a space of x) -> the point of the matching space of y
    target = {}
    for i in sorted(range(len(fx)), key=lambda i: (-fx[i].dim, i)):
        py = index.get(fy[i])
        if py is None or target.setdefault(index[fx[i]], py) != py:
            return DIFFERENT, None
    chain = StabChain(images, len(images[0]), base=list(target),
                      order=order_bound(gens, n))
    back = chain.ident
    for j, py in enumerate(target.values()):
        t = chain.transversal(j, back[py])
        if t is None:
            return DIFFERENT, None
        back = mul(back, t)
    g = point_matrix(inv(back), vectors, q)
    if _flags.act(g, x) != y:
        raise AssertionError("same_orbit produced a wrong connecting element")
    return SAME, g


# ---------------------------------------------------------------------------
# censuses


class OrbitCensus:
    def __init__(self, descriptor, q, orbit_count, orbit_sizes, representatives,
                 signatures, total):
        self.descriptor = descriptor
        self.q = q
        self.orbit_count = orbit_count
        self.orbit_sizes = orbit_sizes
        self.representatives = representatives
        self.signatures = signatures
        self.total = total

    def to_json(self, n):
        return {
            "descriptor": self.descriptor,
            "q": self.q,
            "orbit_count": self.orbit_count,
            "orbit_sizes": sorted(self.orbit_sizes),
            "total": self.total,
            "signatures": [list(s) for s in self.signatures],
            "representatives": [_flags.tuple_to_json(r, n, self.q)
                                for r in self.representatives],
        }


def census_direct(tuples, gens, n, q):
    """Orbit census of an explicit FlagTuple list under the generators:
    ``census_product`` on its columns.  The list must be the full product
    of whole flag spaces, each tuple once (ValueError otherwise); the
    census is that of the product, whatever the order of the list.
    """
    columns = [set(c) for c in zip(*tuples, strict=True)]
    if not len(tuples) == len(set(tuples)) == prod(map(len, columns)):
        raise ValueError("census tuples are not a full product of distinct "
                         "chains")
    return census_product(columns, gens, n, q)


def census_product(component_spaces, gens, n, q):
    """Census of a product of whole flag spaces, given as chain lists, under
    <gens>: ``census_space`` of their compositions.  Every space and
    generator must be over F_q^2n (ValueError before any point table is
    made or used), and each list must equal, as a set and in length, the
    M_c that ``flags.flag_spaces`` enumerates (ValueError otherwise), so a
    list's order does not matter."""
    shapes = {(q, 2 * n, 2 * n)}
    shapes.update((s.q, s.ambient, s.ambient)
                  for cs in component_spaces for ch in cs for s in ch)
    shapes.update((g.q, g.nrows, g.ncols) for g in gens)
    if len(shapes) != 1:
        raise ValueError("field/ambient mismatch in action")
    comps = [_flags.Composition(_parts(cs)) for cs in component_spaces]
    levels, images = _flag_blocks(n, q, comps, gens)
    for (_, chains), cs in zip(levels, component_spaces):
        if len(cs) != len(chains) or set(cs) != set(chains):
            raise ValueError("census space is not a whole flag space of "
                             "distinct chains")
    return _census(levels, images, gens, n, q)


def _parts(chains):
    """The parts of the composition of the flags of a chain list (any
    iterable); none for an empty list, which ``Composition`` refuses."""
    dims = [0] + [s.dim for s in next(iter(chains), ())]
    return tuple(b - a for a, b in zip(dims, dims[1:]))


def _census(levels, images, gens, n, q):
    """Orbit census of the product of the blocks `levels` (offset, chains),
    numbered from 0 in the order of their offsets, under `images`, the
    permutations of their points by `gens`.  Every block is all of one
    flag space M_c.  The descriptor names n and each block's composition,
    as in "n=2 (1,)|(2,)".

    Depth d takes the orbits of the current group on block d, represented
    by their smallest points, except at depth 0 of the descent, where the
    standard chain `std` represents its own orbit; the stabilizer of the
    representative, from a Schreier-Sims chain based at it, goes on to
    depth d + 1.  At depth `tail` the blocks left are coded: a tuple is the
    mixed-radix integer of their positions in chain_key order, each
    generator moves the codes through one weight list per block, and only
    the smallest code of each orbit of codes is decoded.  Orbit sizes
    multiply along the way (orbit-stabilizer).  A product of at most
    DIRECT_LIMIT tuples is coded from depth 1 on, in its given component
    order; a larger one descends to its last depth, big components first.
    Orbits come in the order of the tuple_key of their representatives,
    each the depth-by-depth minimum of its orbit, `std` aside.

    Every depth, chain and code reads a block at its offset: the points
    keep the numbering of `levels` all the way down.  The group acts on
    spaces through <gens>/(<gens> ∩ {±I}), of order at most
    ``order_bound`` / 2 (-I lies in O_2n and SO_2n, so a subgroup without
    it has index at least 2); the first chain of a depth finds the order,
    which telescopes down every depth.
    """
    total = prod(len(chains) for _, chains in levels)
    descriptor = "n=%d %s" % (n, "|".join(str(_parts(chains))
                                          for _, chains in levels))
    budget = _flags.orbit_budget()
    perm, std = list(range(len(levels))), None
    if total <= DIRECT_LIMIT:
        tail = min(1, len(levels))
    else:
        tail = len(levels)
        # fix big components first
        perm.sort(key=lambda i: -max(s.dim for s in levels[i][1][0]))
        offset0, chains0 = levels[perm[0]]
        std = tuple(coordinate_subspace(q, 2 * n, range(1, s.dim + 1))
                    for s in chains0[0])
        std = offset0 + bisect_left(chains0, chain_key(std), key=chain_key)
    levels = [levels[i] for i in perm]
    top = cache(lambda: order_bound(gens, n) // 2)
    strides, sub_total = [], 1
    for _, chains in reversed(levels[tail:]):
        strides.insert(0, sub_total)
        sub_total *= len(chains)
    leaves = []

    def search(perms, order, depth, prefix, size):
        """The orbits of <perms> on levels[depth:], whose order on the
        points is `order` (None when not known)."""
        if depth == tail:
            moves = []
            for img in perms:
                acc = [0]
                for (start, chains), stride in zip(levels[tail:], strides):
                    w = [(y - start) * stride
                         for y in img[start:start + len(chains)]]
                    acc = [a + b for a in acc for b in w]
                moves.append(acc)
            for members in orbits(moves, range(sub_total)):
                code, rep = members[0], []
                for _, chains in reversed(levels[tail:]):
                    code, d = divmod(code, len(chains))
                    rep.append(chains[d])
                leaves.append((prefix + tuple(reversed(rep)),
                               size * len(members)))
            return
        start, chains = levels[depth]
        for members in orbits(perms, range(start, start + len(chains))):
            if len(members) > budget:
                raise Infeasible.over_budget(len(members), budget)
            rep = std if depth == 0 and std in members else members[0]
            sub, sub_order = perms, order
            if len(members) > 1 and depth + 1 < len(levels):
                chain = StabChain(perms, len(perms[0]), base=(rep,),
                                  order=order or top())
                if len(chain.orbit[0]) != len(members):
                    raise AssertionError("basic orbit differs from the orbit")
                if order is not None and chain.order() != order:
                    raise AssertionError("stabilizer chain does not reach "
                                         "the telescoped order")
                order = chain.order()
                sub, sub_order = chain.stabilizer(), order // len(members)
                del chain  # free its levels before the depths below
            search(sub, sub_order, depth + 1, prefix + (chains[rep - start],),
                   size * len(members))

    search(images, None, 0, (), 1)
    back = [perm.index(i) for i in range(len(perm))]
    leaves.sort(key=lambda t: tuple_key(t[0]))
    reps = [tuple(rep[i] for i in back) for rep, _ in leaves]
    return OrbitCensus(descriptor, q, len(reps), [s for _, s in leaves],
                       reps, signatures(reps, n), total)


def census_space(n, q, comps, gens):
    """Census of M_{c1} x ... x M_{ck} over GF(q) under <gens>, on the
    permutations that ``flags.flag_spaces`` finds while enumerating."""
    return _census(*_flag_blocks(n, q, comps, gens), gens, n, q)


def _flag_blocks(n, q, comps, gens):
    """(levels, images) from ``flags.flag_spaces``: levels[j] the block
    (offset, chains) of M_(comps[j]), one block of consecutive points per
    distinct c, and images[gi] the permutation of all points by gens[gi].
    A space larger than ``flags.flag_count`` means a generator outside O_2n
    (AssertionError)."""
    blocks, images, offset = {}, [[] for _ in gens], 0
    for c, (chains, perms) in _flags.flag_spaces(q, 2 * n, comps, n,
                                                 gens).items():
        if len(chains) != _flags.flag_count(q, n, c):
            raise AssertionError("census space not closed under the action")
        blocks[c] = (offset, chains)
        for img, p in zip(images, perms):
            img.extend([offset + x for x in p] if offset else p)
        offset += len(chains)
    return [blocks[c] for c in comps], [tuple(i) for i in images]
