"""Exact orbit computation over GF(q): BFS orbits with word recovery,
same-orbit decisions with connecting elements, and orbit censuses.

Everything here is exact; large jobs either finish or raise Infeasible
(``flags.Infeasible``, re-exported here), whose budget each public call
reads once from ``flags.orbit_budget``.
Orbit and stabilizer work runs on integers: the spaces involved are indexed
once, every generator becomes a permutation of the points, and stabilizers
come from a Schreier-Sims chain (``perm.StabChain``) whose base begins at
the points to be fixed.

Censuses index the component chain spaces (``index_spaces``); the census
descent takes each stabilizer from a chain based at the representative, so
no group order is assumed.  Same-orbit decisions and the witness classes
index vectors and subspaces (``action_points``): the vectors make the
action faithful, so the chain's order is bounded by |O_2n(q)|, or |SO_2n(q)|
for generators of determinant 1, and a permutation converts back to the
connecting matrix.

Subspace images go through the action memo of ``flags.memo_act``, which
holds the image of each (generator, subspace) and of each (generator, row
vector): a row is multiplied by a generator once, however many subspaces
contain it, and a subspace image is its rows' images put in RREF.  The
census fills the memo during enumeration; ``action_points`` fills its row
part with the vector block's images.
"""

from operator import add

from .linalg import (Mat, identity, inverse, mat_mul, mat_vec,
                     act_on_subspace, meet)
from .geometry import (group_order, perp, coordinate_subspace,
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


def path_element(member, tree, gens, q, dim):
    """Group element carrying the orbit root to `member` along the tree."""
    steps = []
    x = member
    while tree[x] is not None:
        parent, gi = tree[x]
        steps.append(gi)
        x = parent
    g = identity(q, dim)
    for gi in reversed(steps):
        g = mat_mul(gens[gi], g)
    return g


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
    """Materialize <gens> by BFS; raises Infeasible beyond cap."""
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
    """G-invariant vector: dims of components, their perps, pairwise meets."""
    subs = [s for ch in ft for s in ch]
    pool = list(subs) + [perp(s, n) for s in subs]
    sig = [s.dim for s in pool]
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            sig.append(meet(pool[i], pool[j]).dim)
    return tuple(sig)


def orbit(start, gens, q):
    """Orbit of a FlagTuple with a spanning tree of generator words."""
    cache = ActionCache(gens)
    return orbit_with_tree(start, gens, cache.tuple)


def action_points(gens, spaces):
    """Integer points for the action of the matrix group <gens>.

    Points come in blocks.  The first holds the vectors reached from the
    standard basis e_1..e_m, with e_i at point i-1; the action on it is
    faithful, so a permutation of the points determines its matrix (see
    ``point_matrix``).  Then comes the orbit of each of `spaces` not already
    in a block, sorted by rows.  Returns (vectors, index, images): vectors
    is the first block, index maps each space of the later blocks to its
    point, and images[gi] is generator gi as a permutation of all points.

    Every vector image g·v of the first block goes into the action memo of
    ``flags.memo_act`` that the subspace orbits then use, as the block's own
    tuple, so the memo holds no second copy of it.  The rows of an isotropic
    subspace are isotropic vectors, which (Witt) lie in the orbit of e_1
    under O_2n, so under O_2n's generators a subspace image costs lookups
    and one RREF, and no matrix arithmetic.
    """
    budget = _flags.orbit_budget()
    m = gens[0].nrows
    vectors = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    at = {v: i for i, v in enumerate(vectors)}
    images = [[] for _ in gens]
    memo = {}
    for v in vectors:
        for g, img in zip(gens, images):
            w = mat_vec(g, v)
            p = at.get(w)
            if p is None:
                p = at[w] = len(vectors)
                vectors.append(w)
            memo[(g, v)] = vectors[p]
            img.append(p)
        if len(vectors) > budget:
            raise Infeasible.over_budget(len(vectors), budget)
    index = {}
    for s in spaces:
        if s in index:
            continue
        members, perms = _flags.subspace_orbit(s, gens, memo)
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


def same_orbit(x, y, gens, n, q):
    """Exact same-orbit decision; returns (verdict, connecting element|None)
    with verdict SAME or DIFFERENT, and raises Infeasible past the budget.

    One stabilizer chain of <gens> has a base beginning with the points of
    x's subspaces, largest first.  y's points are sifted through those
    levels: each must lie in its basic orbit, and the product of the
    inverse transversal elements met carries y to x.
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
    for itrans, py in zip(chain.itrans, target.values()):
        t = itrans.get(back[py])
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


def index_spaces(spaces, gens, memo=None):
    """Index chain spaces as the blocks of one integer point set.

    Each distinct space is one block of consecutive points, its chains
    sorted by chain_key so that point order is key order; equal spaces
    share a block, and the generator images are computed once per block.
    Returns (blocks, slot, images): blocks[b] = (offset, chains, index) with
    index mapping a chain to its point, slot[j] the block of spaces[j], and
    images[gi] the permutation of all points by generator gi.  ``memo`` is
    the action memo of ``flags.memo_act``, as the enumeration fills it.
    """
    if memo is None:
        memo = {}
    blocks, slot, seen = [], [], {}
    offset = 0
    for cs in spaces:
        chains = tuple(sorted(cs, key=chain_key))
        b = seen.get(chains)
        if b is None:
            b = seen[chains] = len(blocks)
            index = {ch: offset + i for i, ch in enumerate(chains)}
            if len(index) != len(chains):
                raise ValueError("census space contains duplicates")
            blocks.append((offset, chains, index))
            offset += len(chains)
        slot.append(b)
    images = [[] for _ in gens]
    for _, chains, index in blocks:
        for g, img in zip(gens, images):
            for ch in chains:
                j = index.get(tuple(_flags.memo_act(memo, g, s) for s in ch))
                if j is None:
                    raise AssertionError("census space not closed under the "
                                         "action")
                img.append(j)
    return blocks, slot, [tuple(img) for img in images]


def _mixed_codes(columns, weights):
    """sum_j weights[j][columns[j][i]] for every i."""
    acc = list(map(weights[0].__getitem__, columns[0]))
    for col, w in zip(columns[1:], weights[1:]):
        acc = list(map(add, acc, map(w.__getitem__, col)))
    return acc


def census_direct(tuples, gens, n, q, descriptor="", memo=None):
    """Orbit census of an explicit FlagTuple list under the generators.

    A tuple is coded by the mixed-radix integer of its components' points,
    so code order is tuple_key order; the orbits are found on positions in
    the list, each generator acting through the code of the image tuple.
    """
    if not tuples:
        return OrbitCensus(descriptor, q, 0, [], [], [], 0)
    k = len(tuples[0])
    blocks, slot, images = index_spaces(
        [{t[j] for t in tuples} for j in range(k)], gens, memo)
    columns, strides, stride = [], [], 1
    for j in reversed(range(k)):
        offset, chains, index = blocks[slot[j]]
        columns.append([index[t[j]] - offset for t in tuples])
        strides.append((offset, len(chains), stride))
        stride *= len(chains)
    codes = _mixed_codes(columns, [range(0, size * st, st)
                                   for _, size, st in strides])
    position = dict(zip(codes, range(len(tuples))))
    if len(position) != len(tuples):
        raise ValueError("census space contains duplicates")
    moves = []
    for img in images:
        weights = [[(img[offset + x] - offset) * st for x in range(size)]
                   for offset, size, st in strides]
        try:
            moves.append(list(map(position.__getitem__,
                                  _mixed_codes(columns, weights))))
        except KeyError:
            raise AssertionError("census space not closed under the action")
    reps, sizes, sigs = [], [], []
    for members in orbits(moves, range(len(tuples))):
        rep = tuples[min(members, key=codes.__getitem__)]
        reps.append(rep)
        sizes.append(len(members))
        sigs.append(signature(rep, n))
    return OrbitCensus(descriptor, q, len(reps), sizes, reps, sigs, len(tuples))


def census_product(component_spaces, gens, n, q, descriptor="", memo=None):
    """Census of a product of component chain-spaces under <gens>.

    Products of at most DIRECT_LIMIT tuples use the direct census; larger
    ones descend through the components, one Schreier-Sims stabilizer chain
    per representative with a nontrivial orbit.  Orbit sizes multiply along
    the descent, which is exact by orbit-stabilizer.
    """
    total = 1
    for cs in component_spaces:
        total *= len(cs)
    if total <= DIRECT_LIMIT:
        tuples = [()]
        for cs in component_spaces:
            tuples = [t + (c,) for t in tuples for c in cs]
        return census_direct(tuples, gens, n, q, descriptor, memo)
    budget = _flags.orbit_budget()
    # fix big components first
    perm = sorted(range(len(component_spaces)),
                  key=lambda i: -max(s.dim for ch in component_spaces[i][:1]
                                     for s in ch))
    spaces = [component_spaces[i] for i in perm]
    blocks, slot, images = index_spaces(spaces, gens, memo)
    levels = [blocks[b] for b in slot]
    degree = blocks[-1][0] + len(blocks[-1][1])
    _, chains0, index0 = levels[0]
    std = index0.get(tuple(coordinate_subspace(q, 2 * n,
                                               range(1, s.dim + 1))
                           for s in chains0[0]))
    leaves = []

    def descend(gens, order, depth, prefix, size_acc):
        """Orbits of <gens> (of the given order, None if unknown) on the
        points of levels[depth], recursing into the stabilizer of each
        representative.

        Representatives are the smallest point of their orbit, except at
        depth 0 where the standard chain `std` represents its own orbit.
        """
        offset, chains, _ = levels[depth]
        last = depth == len(levels) - 1
        for members in orbits(gens, range(offset, offset + len(chains))):
            if len(members) > budget:
                raise Infeasible.over_budget(len(members), budget)
            rep = std if depth == 0 and std in members else min(members)
            here = prefix + (chains[rep - offset],)
            size = size_acc * len(members)
            if last:
                leaves.append((here, size))
                continue
            sub_gens, sub_order = gens, order
            if len(members) > 1:
                chain = StabChain(gens, degree, base=(rep,), order=order)
                if len(chain.orbit[0]) != len(members):
                    raise AssertionError("basic orbit differs from the orbit")
                if order is not None and chain.order() != order:
                    raise AssertionError("stabilizer chain does not reach "
                                         "the telescoped order")
                order = chain.order()
                sub_gens, sub_order = chain.stabilizer(), order // len(members)
            descend(sub_gens, sub_order, depth + 1, here, size)

    descend(images, None, 0, (), 1)
    inv = [perm.index(i) for i in range(len(perm))]
    reps, sizes, sigs = [], [], []
    for rep, size in sorted(leaves, key=lambda t: tuple_key(t[0])):
        rep = tuple(rep[inv[i]] for i in range(len(inv)))
        reps.append(rep)
        sizes.append(size)
        sigs.append(signature(rep, n))
    return OrbitCensus(descriptor, q, len(reps), sizes, reps, sigs, total)


def census_space(n, q, comps, gens):
    """Census of M_{c1} x ... x M_{ck} over GF(q) under <gens>.

    The enumeration and the census share one action memo, so images under
    generators that the enumeration used are computed once.
    """
    memo = {}
    enumerated = {}
    for c in comps:
        if c not in enumerated:
            enumerated[c] = _flags.enumerate_chains(q, n, c, memo=memo)
    spaces = [enumerated[c] for c in comps]
    desc = "n=%d %s" % (n, "|".join(str(c.parts) for c in comps))
    return census_product(spaces, gens, n, q, desc, memo)
