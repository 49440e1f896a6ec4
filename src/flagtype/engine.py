"""Exact orbit computation over GF(q): BFS orbits, same-orbit decisions
with connecting elements, and orbit censuses.

Everything here is exact; large jobs either finish or raise Infeasible
(``flags.Infeasible``, re-exported here), whose budget each public call
reads once from ``flags.orbit_budget``.
Orbit and stabilizer work runs on integers: the spaces involved are indexed
once, every generator becomes a permutation of the points, and stabilizers
come from a Schreier-Sims chain (``perm.StabChain``) whose base begins at
the points to be fixed.  The chain keeps a Schreier vector per level and
builds a transversal element only when one is asked for, so its memory
grows with the basic orbits, not with their product by the number of
points.

Censuses run on the component chain spaces as blocks of points, with the
generator permutations that the enumeration found (``census_space``, from
``flags.flag_spaces``); only explicit chain lists are indexed by acting on
their spaces (``index_spaces``).  One recursion (``_census``) serves every
census.  Each depth takes the orbits of the current group on its block and,
for each orbit's representative, the stabilizer from a Schreier-Sims chain
based at it, run on the blocks still to search; then it goes one depth
deeper or hands the blocks left to a code tail.  There a tuple of them is
the mixed-radix integer of their positions, in tuple_key order; each
generator is a permutation of those codes built from one weight list per
block, and only the smallest code of each orbit of codes is decoded.  A
small product is coded from depth 1 on, a larger one searched down to its
last depth.  The chains telescope their orders from a bound on the top
one, so no group order is assumed.

Same-orbit decisions and stabilizer orbits index vectors and subspaces
(``action_points``): the vectors make the action faithful, so the chain's
order is bounded by |O_2n(q)|, or |SO_2n(q)| for generators of determinant
1, and a permutation converts back to the connecting matrix.
``stabilizer_orbits`` gives the orbits of the stabilizer of some subspaces
on others, for the witness classes and the R-classes alike; its chain must
reach that bound, which certifies the generating set it is given.
"""

from bisect import bisect_left
from functools import cache
from itertools import accumulate
from math import prod

from .linalg import (Mat, identity, inverse, inverse_table, mat_mul,
                     mat_vec, act_on_subspace, rank_rows, check_prime)
from .geometry import (group_order, coordinate_subspace,
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

    def chain(self, gi, ch):
        return tuple(self.sub(gi, s) for s in ch)

    def tuple(self, gi, ft):
        return tuple(self.chain(gi, ch) for ch in ft)


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
    """G-invariant vector of dimensions, from ranks.

    The pool is the components S_1..S_m of ft in order, then their perps.
    The entries are dim S_i, then dim S_i^perp = 2n - d_i, then
    dim(P ∩ P') for each pair P before P' in the pool.  As the split form is
    nondegenerate, each meet's dim is a rank:
    dim(S_i ∩ S_j) = d_i + d_j - rank[S_i; S_j],
    dim(S_i^perp ∩ S_j^perp) = 2n - rank[S_i; S_j], and
    dim(S_i ∩ S_j^perp) = d_i - rank Gram(S_i, S_j), with Gram(S_i, S_j)
    the d_i x d_j matrix of the form on their bases (i = j included); the
    Gram matrices of (i, j) and (j, i) are transposes, so of one rank.
    """
    subs = [s for ch in ft for s in ch]
    if not subs:
        return ()
    q, width = subs[0].q, 2 * n
    for s in subs:
        if s.ambient != width:
            raise ValueError("ambient mismatch in signature")
        if s.q != q:
            raise ValueError("subspace field/ambient mismatch")
    m = len(subs)
    dims = [s.dim for s in subs]
    offsets = [0, *accumulate(dims)]
    rows = tuple(r for s in subs for r in s.rows)
    # the form on all basis rows at once: (u, v) = u . reversed(v)
    pairing = mat_mul(Mat.raw(q, rows),
                      Mat.raw(q, tuple(zip(*[r[::-1] for r in rows])))).rows
    gram = {}
    for i in range(m):
        for j in range(i, m):
            block = [r[offsets[j]:offsets[j + 1]]
                     for r in pairing[offsets[i]:offsets[i + 1]]]
            gram[i, j] = gram[j, i] = rank_rows(block, q, dims[j])
    joins = {(i, j): rank_rows(subs[i].rows + subs[j].rows, q, width)
             for i in range(m) for j in range(i + 1, m)}
    sig = dims + [width - d for d in dims]
    for i in range(m):
        sig += [dims[i] + dims[j] - joins[i, j] for j in range(i + 1, m)]
        sig += [dims[i] - gram[i, j] for j in range(m)]
    for i in range(m):
        sig += [width - joins[i, j] for j in range(i + 1, m)]
    return tuple(sig)


def action_points(gens, spaces):
    """Integer points for the action of the matrix group <gens>.

    Points come in blocks.  The first holds the vectors reached from the
    standard basis e_1..e_m, with e_i at point i-1; the action on it is
    faithful, so a permutation of the points determines its matrix (see
    ``point_matrix``).  Then comes the orbit of each of `spaces` not already
    in a block, sorted by rows.  Returns (vectors, index, images): vectors
    is the first block, index maps each space of the later blocks to its
    point, and images[gi] is generator gi as a permutation of all points.

    Over GF(q) only (q = 0 raises ValueError: the orbits are infinite), a
    generator moves each projective point of the first block by one
    ``mat_vec`` (c·v goes to c times the image of v), and the subspace
    orbits reuse these images through one ``flags.PointTable``: under
    O_2n's generators they do no matrix arithmetic, as isotropic vectors
    lie in the orbit of e_1 (Witt).
    """
    m, q = gens[0].nrows, gens[0].q
    check_prime(q)
    budget = _flags.orbit_budget()
    invs = inverse_table(q)
    vectors = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    at = {v: i for i, v in enumerate(vectors)}
    images = [[] for _ in gens]
    point_images = {}  # projective point (leading entry 1) -> its images
    for v in vectors:
        lead = next(filter(None, v))
        unit = v if lead == 1 else tuple([invs[lead] * x % q for x in v])
        ws = point_images.get(unit)
        if ws is None:
            ws = point_images[unit] = [mat_vec(g, unit) for g in gens]
        for g, img, w in zip(gens, images, ws):
            if lead != 1:
                w = tuple([lead * x % q for x in w])
            p = at.get(w)
            if p is None:
                p = at[w] = len(vectors)
                vectors.append(w)
            img.append(p)
        if len(vectors) > budget:
            raise Infeasible.over_budget(len(vectors), budget)
    index = {}
    table = _flags.PointTable(gens, point_images)
    for s in spaces:
        if s in index:
            continue
        members, perms = _flags.subspace_orbit(s, table)
        offset = len(vectors) + len(index)
        index.update((t, offset + i) for i, t in enumerate(members))
        for img, p in zip(images, perms):
            img.extend(offset + x for x in p)
    return vectors, index, [tuple(img) for img in images]


def point_matrix(perm, vectors, q):
    """The matrix acting on the points of ``action_points`` as `perm` does:
    its column i is the image of e_(i+1)."""
    m = len(vectors[0])
    return Mat.raw(q, tuple(tuple(vectors[perm[c]][r] for c in range(m))
                            for r in range(m)))


def order_bound(gens, n):
    """An upper bound on the order of <gens> once each generator is checked
    to be orthogonal (ValueError otherwise): |SO_2n(q)| = |O_2n(q)|/2 if
    every generator has determinant 1, else |O_2n(q)|."""
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
    set; AssertionError otherwise."""
    _, index, images = action_points(gens, fixed + spaces)
    base = list(dict.fromkeys(index[s] for s in fixed))
    bound = order_bound(gens, n)
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


def index_spaces(spaces, gens):
    """Index explicit chain lists as the blocks of one integer point set.

    Each distinct space is one block (offset, chains) of consecutive
    points, its chains sorted by chain_key so that point order is key
    order.  Returns (levels, images): levels[j] the block of spaces[j] and
    images[gi] the permutation of all points by generator gi, found
    through an action memo (``flags.memo_act``) local to the call.
    """
    blocks, levels, memo, offset = {}, [], {}, 0
    for cs in spaces:
        chains = tuple(sorted(cs, key=chain_key))
        if chains not in blocks:
            blocks[chains] = (offset, chains)
            offset += len(chains)
        levels.append(blocks[chains])
    images = [[] for _ in gens]
    for offset, chains in blocks.values():
        index = {ch: offset + i for i, ch in enumerate(chains)}
        if len(index) != len(chains):
            raise ValueError("census space contains duplicates")
        for g, img in zip(gens, images):
            for ch in chains:
                j = index.get(tuple(_flags.memo_act(memo, g, s) for s in ch))
                if j is None:
                    raise AssertionError("census space not closed under the "
                                         "action")
                img.append(j)
    return levels, [tuple(img) for img in images]


def census_direct(tuples, gens, n, q):
    """Orbit census of an explicit FlagTuple list under the generators.

    The list must be the full product of its columns' distinct chains, each
    tuple once (ValueError otherwise); the census is that of the product,
    whatever the order of the list.
    """
    if not tuples:
        return OrbitCensus("", q, 0, [], [], [], 0)
    columns = [{t[j] for t in tuples} for j in range(len(tuples[0]))]
    if not len(tuples) == len(set(tuples)) == prod(map(len, columns)):
        raise ValueError("census tuples are not a full product of distinct "
                         "chains")
    return _census(*index_spaces(columns, gens), gens, n, q)


def census_product(component_spaces, gens, n, q):
    """Census of a product of component chain-spaces under <gens>: the
    census recursion (``_census``) on the spaces indexed as blocks."""
    return _census(*index_spaces(component_spaces, gens), gens, n, q)


def _parts(chains):
    """The parts of the composition of a nonempty chain list's flags."""
    dims = [0] + [s.dim for s in chains[0]]
    return tuple(b - a for a, b in zip(dims, dims[1:]))


def _whole(chains, q, n):
    """Whether a chain list is all of its flag space M_c, by its length."""
    parts = _parts(chains)
    return (min(parts, default=0) > 0 and sum(parts) <= n and len(chains)
            == _flags.flag_count(q, n, _flags.Composition(parts)))


def _census(levels, images, gens, n, q):
    """Orbit census of the product of the blocks `levels` (offset, chains),
    numbered from 0 in the order of their offsets, under `images`, the
    permutations of their points by `gens`.  The descriptor names n and
    each block's composition, as in "n=2 (1,)|(2,)"; "" if a block is empty.

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

    Depth d searches the blocks of levels[d:] only: a block no later level
    uses is dropped and the rest renumbered.  The group acts on spaces
    through <gens>/(<gens> ∩ {±I}), of order at most ``order_bound`` / 2
    (-I lies in O_2n and SO_2n, so a subgroup without it has index at least
    2); the first chain of a depth finds the order, which telescopes down.
    Dropping a block keeps the order while every block left is a whole
    flag space M_c, as O_2n's kernel on M_c is {±I}, which fixes every
    point; else a chain gets no order until one of its depth has found it.
    """
    total = prod(len(chains) for _, chains in levels)
    if not total:
        return OrbitCensus("", q, 0, [], [], [], 0)
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
        at = bisect_left(chains0, chain_key(std), key=chain_key)
        std = offset0 + at if at < len(chains0) and chains0[at] == std \
            else None
    levels = [levels[i] for i in perm]
    # places[d][offset]: where a block of levels[d:] starts at depth d;
    # renums[d] maps the points kept from depth d - 1, if any moved
    places, renums = [], []
    for d in range(len(levels) + 1):
        lengths = dict(sorted((o, len(c)) for o, c in levels[d:]))
        place = dict(zip(lengths, accumulate(lengths.values(), initial=0)))
        old = places[-1] if d else place
        renums.append(place != old and {old[o] + x: place[o] + x
                                        for o in lengths
                                        for x in range(lengths[o])})
        places.append(place)
    # asked only where a chain is built or points are renumbered
    whole = cache(lambda d: all(_whole(chains, q, n)
                                for _, chains in levels[d:]))
    top = cache(lambda: order_bound(gens, n) // 2)
    strides, sub_total = [], 1
    for _, chains in reversed(levels[tail:]):
        strides.insert(0, sub_total)
        sub_total *= len(chains)
    leaves = []

    def search(perms, order, depth, prefix, size):
        """The orbits of <perms> on levels[depth:], whose order on the
        points of that depth is `order` (None when not known)."""
        place = places[depth]
        if depth == tail:
            moves = []
            for img in perms:
                acc = [0]
                for (offset, chains), stride in zip(levels[tail:], strides):
                    start = place[offset]
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
        offset, chains = levels[depth]
        start = place[offset]
        for members in orbits(perms, range(start, start + len(chains))):
            if len(members) > budget:
                raise Infeasible.over_budget(len(members), budget)
            rep = std if depth == 0 and std in members else members[0]
            sub, sub_order = perms, order
            if len(members) > 1 and depth + 1 < len(levels):
                chain = StabChain(perms, len(perms[0]), base=(rep,),
                                  order=order or (top() if whole(depth)
                                                  else None))
                if len(chain.orbit[0]) != len(members):
                    raise AssertionError("basic orbit differs from the orbit")
                if order is not None and chain.order() != order:
                    raise AssertionError("stabilizer chain does not reach "
                                         "the telescoped order")
                order = chain.order()
                sub, sub_order = chain.stabilizer(), order // len(members)
                del chain  # free its levels before the depths below
            renum = renums[depth + 1]
            if renum:
                keep = tuple(renum)
                sub = [tuple(map(renum.__getitem__, mul(keep, p)))
                       for p in sub]
                sub_order = sub_order if whole(depth + 1) else None
            search(sub, sub_order, depth + 1, prefix + (chains[rep - start],),
                   size * len(members))

    search(images, None, 0, (), 1)
    back = [perm.index(i) for i in range(len(perm))]
    reps, sizes, sigs = [], [], []
    for rep, size in sorted(leaves, key=lambda t: tuple_key(t[0])):
        rep = tuple(rep[i] for i in back)
        reps.append(rep)
        sizes.append(size)
        sigs.append(signature(rep, n))
    return OrbitCensus(descriptor, q, len(reps), sizes, reps, sigs, total)


def census_space(n, q, comps, gens):
    """Census of M_{c1} x ... x M_{ck} over GF(q) under <gens>, on the
    permutations that ``flags.flag_spaces`` finds while enumerating; a space
    larger than ``flags.flag_count`` means a generator outside O_2n."""
    blocks, images, offset = {}, [[] for _ in gens], 0
    for c, (chains, perms) in _flags.flag_spaces(q, 2 * n, comps, n,
                                                 gens).items():
        if len(chains) != _flags.flag_count(q, n, c):
            raise AssertionError("census space not closed under the action")
        blocks[c] = (offset, chains)
        for img, p in zip(images, perms):
            img.extend([offset + x for x in p] if offset else p)
        offset += len(chains)
    return _census([blocks[c] for c in comps], [tuple(i) for i in images],
                   gens, n, q)
