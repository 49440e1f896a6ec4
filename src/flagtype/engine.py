"""Exact orbit computation over GF(q): BFS orbits with word recovery,
same-orbit decisions with connecting elements, and orbit censuses.

Everything here is exact; large jobs either finish or report Infeasible.
The workhorse is a stabilizer descent: components of a flag tuple are fixed
one at a time, and the stabilizer of the fixed prefix is tracked exactly.

Censuses run on integers: each component chain space is indexed once and
every generator becomes a permutation of the points.  The census descent
takes each stabilizer from a Schreier-Sims chain (``perm.StabChain``) whose
base begins at the representative, so no group order is assumed.

Same-orbit descents work on matrices: they start from the whole group
(order known by formula), standard coordinate subspaces get their
structural stabilizer generators (torus, root elements, block swap), and
every other step uses Schreier generators of the point stabilizer,
materialized when the exact order - known by the orbit-stabilizer
telescope - fits in memory.
"""

import os
from operator import add

from .linalg import identity, inverse, mat_mul, act_on_subspace, meet
from .geometry import (group_order, perp, pair_stabilizer_generators,
                       coordinate_subspace)
from . import flags as _flags
from .perm import StabChain, orbits


DEFAULT_ORBIT_BUDGET = 5 * 10 ** 7
MATERIALIZE_CAP = 500_000
GENLIST_CAP = 20_000


def orbit_budget():
    return int(os.environ.get("FLAGTYPE_BUDGET", DEFAULT_ORBIT_BUDGET))


INFEASIBLE = "Infeasible"
SAME = "Yes"
DIFFERENT = "No"


class Infeasible(Exception):
    pass


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
        budget = orbit_budget()
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
        budget = orbit_budget()
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


def is_standard_chain(ch):
    """True when every space of the chain is an initial coordinate segment."""
    for s in ch:
        std = coordinate_subspace(s.q, s.ambient, list(range(1, s.dim + 1)))
        if s != std:
            return False
    return True


def standard_chain_stabilizer(ch, n, q):
    """Structural generators of Stab_G(U_[d1] ⊂ ... ⊂ U_[dk]).

    Torus plus every root element fixing each space, plus the non-SO block
    swap at the first position after the top space (present iff top dim < n).
    The set is exact: the connected part is generated by the torus and the
    shared root subgroups, and the swap covers the non-SO coset.
    """
    top = ch[-1].dim
    gens = pair_stabilizer_generators(q, n, top, 0, 0, 0)
    keep = []
    for g in gens:
        if all(act_on_subspace(g, s) == s for s in ch):
            keep.append(g)
    return keep


def signature(ft, n):
    """G-invariant vector: dims of components, their perps, pairwise meets."""
    subs = [s for ch in ft for s in ch]
    pool = list(subs) + [perp(s, n) for s in subs]
    sig = [s.dim for s in pool]
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            sig.append(meet(pool[i], pool[j]).dim)
    return tuple(sig)


def orbit(start, gens, q, budget=None):
    """Orbit of a FlagTuple with a spanning tree of generator words."""
    cache = ActionCache(gens)
    return orbit_with_tree(start, gens, cache.tuple, budget)


def same_orbit(x, y, gens, n, q, budget=None, tuple_bfs_limit=120_000):
    """Exact same-orbit decision; returns (verdict, connecting element|None)."""
    if tuple(len(ch) for ch in x) != tuple(len(ch) for ch in y):
        return DIFFERENT, None
    if tuple_key(x) == tuple_key(y):
        return SAME, identity(q, 2 * n)
    if signature(x, n) != signature(y, n):
        return DIFFERENT, None
    if group_order(q, n) <= tuple_bfs_limit:
        return _same_orbit_bfs(x, y, gens, n, q, budget)
    return _same_orbit_descent(x, y, gens, n, q, budget)


def _same_orbit_bfs(x, y, gens, n, q, budget):
    cache = ActionCache(gens)
    try:
        order_list, tree = orbit_with_tree(x, gens, cache.tuple, budget,
                                           stop_at=y)
    except Infeasible:
        return INFEASIBLE, None
    if y not in tree:
        return DIFFERENT, None
    g = path_element(y, tree, gens, q, 2 * n)
    if _flags.act(g, x) != y:
        raise AssertionError("same_orbit produced a wrong connecting element")
    return SAME, g


def _standard_anchor(members, q, ambient):
    for m in members:
        std = coordinate_subspace(q, ambient, list(range(1, m.dim + 1)))
        if m == std:
            return m
    return None


def _same_orbit_descent(x, y, gens, n, q, budget):
    fx = [s for ch in x for s in ch]
    fy = [s for ch in y for s in ch]
    # fix large components first: stabilizer orders then drop fastest
    order_idx = sorted(range(len(fx)), key=lambda i: (-fx[i].dim, i))
    level = StabLevel(list(gens), order=group_order(q, n))
    gx = identity(q, 2 * n)
    gy = identity(q, 2 * n)
    cx = list(fx)
    cy = list(fy)
    try:
        for pos, idx in enumerate(order_idx):
            if level.elements is not None:
                # stabilizer materialized: transport and filter directly
                if cx[idx] == cy[idx]:
                    found = identity(q, 2 * n)
                else:
                    found = None
                    for m in sorted(level.elements, key=lambda x: x.rows):
                        if act_on_subspace(m, cx[idx]) == cy[idx]:
                            found = m
                            break
                    if found is None:
                        return DIFFERENT, None
                gx = mat_mul(found, gx)
                cx = [act_on_subspace(found, s) for s in cx]
                target = cy[idx]
                stab = [m for m in level.elements
                        if act_on_subspace(m, target) == target]
                level = StabLevel(stab, order=len(stab), elements=set(stab))
                continue
            members, trans = subspace_orbit_with_transversal(
                cx[idx], level.gens, q, 2 * n, budget)
            if cy[idx] not in trans:
                return DIFFERENT, None
            anchor = None
            if pos == 0 and level.order == group_order(q, n):
                anchor = _standard_anchor(members, q, 2 * n)
            if anchor is None:
                anchor = cy[idx]
            hx = trans[anchor]
            hy = mat_mul(trans[anchor], inverse(trans[cy[idx]]))
            gx = mat_mul(hx, gx)
            gy = mat_mul(hy, gy)
            cx = [act_on_subspace(hx, s) for s in cx]
            cy = [act_on_subspace(hy, s) for s in cy]
            if pos == 0 and is_standard_chain((anchor,)):
                level = StabLevel(standard_chain_stabilizer((anchor,), n, q),
                                  order=level.order // len(members))
            else:
                level, _, _ = schreier_descend(level, anchor, q, 2 * n, budget)
    except Infeasible:
        return INFEASIBLE, None
    if cx != cy:
        raise AssertionError("descent lost track of the tuple")
    g = mat_mul(inverse(gy), gx)
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
    an action memo keyed by (matrix, subspace), as the enumeration fills it.
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


def census_product(component_spaces, gens, n, q, descriptor="",
                   direct_limit=200_000, budget=None, memo=None):
    """Census of a product of component chain-spaces under <gens>.

    Small products use the direct census; larger ones descend through the
    components, one Schreier-Sims stabilizer chain per representative with
    a nontrivial orbit.  Orbit sizes multiply along the descent, which is
    exact by orbit-stabilizer.
    """
    total = 1
    for cs in component_spaces:
        total *= len(cs)
    if total <= direct_limit:
        tuples = [()]
        for cs in component_spaces:
            tuples = [t + (c,) for t in tuples for c in cs]
        return census_direct(tuples, gens, n, q, descriptor, memo)
    if budget is None:
        budget = orbit_budget()
    # fix big components first
    perm = sorted(range(len(component_spaces)),
                  key=lambda i: -max(s.dim for ch in component_spaces[i][:1]
                                     for s in ch))
    spaces = [component_spaces[i] for i in perm]
    blocks, slot, images = index_spaces(spaces, gens, memo)
    levels = [blocks[b] for b in slot]
    _, chains0, index0 = levels[0]
    std = index0.get(tuple(coordinate_subspace(q, 2 * n,
                                               range(1, s.dim + 1))
                           for s in chains0[0]))
    leaves = []
    _descend_census(levels, images, None, blocks[-1][0] + len(blocks[-1][1]),
                    0, (), 1, leaves, budget, std)
    inv = [perm.index(i) for i in range(len(perm))]
    reps, sizes, sigs = [], [], []
    for rep, size in sorted(leaves, key=lambda t: tuple_key(t[0])):
        rep = tuple(rep[inv[i]] for i in range(len(inv)))
        reps.append(rep)
        sizes.append(size)
        sigs.append(signature(rep, n))
    return OrbitCensus(descriptor, q, len(reps), sizes, reps, sigs, total)


def _descend_census(levels, gens, order, degree, depth, prefix, size_acc,
                    leaves, budget, std):
    """Orbits of <gens> (of the given order, None if unknown) on the points
    of levels[depth], recursing into the stabilizer of each representative.

    Representatives are the smallest point of their orbit, except at depth
    0 where the standard chain `std` represents its own orbit.
    """
    offset, chains, _ = levels[depth]
    last = depth == len(levels) - 1
    for members in orbits(gens, range(offset, offset + len(chains))):
        if len(members) > budget:
            raise Infeasible("orbit budget exceeded")
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
            order = chain.order()
            sub_gens, sub_order = chain.stabilizer(), order // len(members)
        _descend_census(levels, sub_gens, sub_order, degree, depth + 1, here,
                        size, leaves, budget, std)


def census_space(n, q, comps, gens, isotropic=True, descriptor="",
                 direct_limit=200_000, budget=None):
    """Census of M_{c1} x ... x M_{ck} over GF(q) under <gens>.

    The enumeration and the census share one action memo, so images under
    generators that the enumeration used are computed once.
    """
    memo = {}
    enumerated = {}
    for c in comps:
        if c not in enumerated:
            enumerated[c] = _flags.enumerate_chains(q, n, c,
                                                    isotropic=isotropic,
                                                    memo=memo)
    spaces = [enumerated[c] for c in comps]
    desc = descriptor or "n=%d %s" % (n, "|".join(str(c.parts) for c in comps))
    return census_product(spaces, gens, n, q, desc, direct_limit, budget,
                          memo)
