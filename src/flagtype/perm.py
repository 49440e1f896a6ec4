"""Permutation groups on the integer points 0..N-1: orbits and a
Schreier-Sims stabilizer chain.

A permutation is a tuple p with p[x] the image of x.  Products read left to
right: ``mul(p, r)`` applies p first, then r.

The chain is the base and strong generating set of Sims (1970).  Each level
keeps its basic orbit with the inverse transversal, which maps each orbit
point back to the base point; the order of the chain is the product of its
basic orbit lengths.  Given an upper bound on the group order, a seeded
random-sift pass runs first (Seress, *Permutation Group Algorithms*, ch. 4;
random elements by product replacement, Celler et al. 1995) and stops as
soon as the chain reaches the bound, which certifies it complete.
Otherwise the deterministic incremental algorithm of Holt-Eick-O'Brien,
*Handbook of Computational Group Theory*, section 4.4, completes it.
"""

import random
from operator import itemgetter


# random-sift pass: the seed, the size of the product-replacement pool, the
# mixing steps before the first element is used, and how many random
# elements in a row must sift to the identity before the deterministic pass
# takes over
RANDOM_SEED = 1970
POOL_SIZE = 10
WARM_UP = 50
RANDOM_MISSES = 10


def mul(p, r):
    """The permutation p followed by r."""
    if len(p) < 2:
        # itemgetter of a single index returns the item, not a tuple
        return tuple(r[x] for x in p)
    return itemgetter(*p)(r)


def inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def orbits(images, points):
    """Orbits of the group generated by `images` on the invariant set `points`.

    images: one sequence per generator mapping each point to its image.
    Each orbit is returned as the list of its points in discovery order,
    beginning with its smallest point; orbits come in the order of their
    smallest points, which is the order of `points` when that is ascending.
    """
    seen = set()
    out = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orb = [start]
        for x in orb:
            for img in images:
                y = img[x]
                if y not in seen:
                    seen.add(y)
                    orb.append(y)
        out.append(orb)
    return out


class StabChain:
    """Base and strong generating set of <gens> on `degree` points.

    The base begins with `base`.  ``gens[i]`` holds the strong generators
    that fix the first i base points, so ``gens[1]`` generates the
    stabilizer of ``base[0]``, and ``itrans[i]`` maps each point x of the
    basic orbit ``orbit[i]`` to an element carrying x to ``base[i]``.
    `order`, when given, must be an upper bound on the order of <gens>: the
    construction stops once the chain reaches it, and raises AssertionError
    if the chain exceeds it.
    """

    def __init__(self, gens, degree, base=(), order=None):
        self.degree = degree
        self.ident = tuple(range(degree))
        self.base = []
        self.gens = []
        self.ginvs = []
        self.orbit = []
        self.itrans = []
        self._done = []
        for b in base:
            self._add_level(b)
        gens = [tuple(g) for g in gens]
        for g in gens:
            # a generator's residue joins level 0 too: the chain's group
            # holds g only with it
            self._add_residue(g, 0, 0)
        if order is not None:
            self._random_pass(gens, order)
        self._complete(order)
        if order is not None and self.order() > order:
            raise AssertionError("stabilizer chain exceeds the order bound")

    def order(self):
        out = 1
        for orb in self.orbit:
            out *= len(orb)
        return out

    def stabilizer(self):
        """Strong generators of the stabilizer of the first base point."""
        return list(self.gens[1]) if len(self.gens) > 1 else []

    def sift(self, g, level=0):
        """Strip g through the levels from `level` on: (residue, stop level)."""
        base = self.base
        for j in range(level, len(base)):
            b = base[j]
            x = g[b]
            if x != b:
                t = self.itrans[j].get(x)
                if t is None:
                    return g, j
                g = mul(g, t)
        return g, len(base)

    def _add_level(self, b):
        self.base.append(b)
        self.gens.append([])
        self.ginvs.append([])
        self.orbit.append([b])
        self.itrans.append({b: self.ident})
        self._done.append([0])

    def _add_residue(self, g, level, lo):
        """Sift g from `level` on; add a nontrivial residue to the levels
        from `lo` to the one where the sift stopped, opening a level at its
        first moved point if it fixes the whole base.  Returns that level,
        or None when g sifts to the identity."""
        r, j = self.sift(g, level)
        if r == self.ident:
            return None
        if j == len(self.base):
            self._add_level(next(x for x in range(self.degree) if r[x] != x))
        self._add_gen(r, min(lo, j), j)
        return j

    def _add_gen(self, g, lo, hi):
        """Add g, which fixes the base points before `hi`, to levels lo..hi."""
        gi = inv(g)
        for i in range(lo, hi + 1):
            self.gens[i].append(g)
            self.ginvs[i].append(gi)
            self._grow(i, g, gi)

    def _grow(self, i, g, gi):
        """Close basic orbit i under its generators after g (inverse gi)
        joined them."""
        orb, itrans = self.orbit[i], self.itrans[i]
        old = len(orb)
        for x in orb[:old]:
            y = g[x]
            if y not in itrans:
                itrans[y] = mul(gi, itrans[x])
                orb.append(y)
        pairs = list(zip(self.gens[i], self.ginvs[i]))
        k = old
        while k < len(orb):
            x = orb[k]
            k += 1
            for s, si in pairs:
                y = s[x]
                if y not in itrans:
                    itrans[y] = mul(si, itrans[x])
                    orb.append(y)
        self._done[i].extend([0] * (len(orb) - len(self._done[i])))

    def _random_pass(self, gens, order):
        """Sift random elements of <gens> (product replacement with an
        accumulator, from a fixed seed), adding their residues from level 1
        on, until the chain reaches `order` or RANDOM_MISSES elements in a
        row sift to the identity."""
        pool = [g for g in gens if g != self.ident]
        if not pool:
            return
        pool = (pool * POOL_SIZE)[:max(POOL_SIZE, len(pool))]
        rng = random.Random(RANDOM_SEED)

        def mix():
            i, j = rng.sample(range(len(pool)), 2)
            pool[i] = mul(pool[i], pool[j])
            return pool[i]

        acc = self.ident
        for _ in range(WARM_UP):
            acc = mul(acc, mix())
        misses = 0
        while self.order() < order and misses < RANDOM_MISSES:
            acc = mul(acc, mix())
            if self._add_residue(acc, 0, 1) is None:
                misses += 1
            else:
                misses = 0

    def _complete(self, order):
        """Sift Schreier generators until every level is closed."""
        i = len(self.base) - 1
        while i >= 0:
            if order is not None and self.order() >= order:
                return
            jump = self._check_level(i)
            i = i - 1 if jump is None else jump

    def _check_level(self, i):
        """Sift the unchecked Schreier generators of level i.

        A pair (orbit point, generator) counts as checked once its Schreier
        generator lies in the group of the next level's generators: either
        it sifts to the identity, or its residue has just been added there.
        Both stay true as the chain grows, since transversals and generator
        lists only ever gain entries.  Returns the deepest level that gained
        a generator, or None when level i is closed.
        """
        orb, itrans = self.orbit[i], self.itrans[i]
        gens, done = self.gens[i], self._done[i]
        for p, x in enumerate(orb):
            if done[p] == len(gens):
                continue
            u = inv(itrans[x])
            while done[p] < len(gens):
                s = gens[done[p]]
                done[p] += 1
                h = mul(mul(u, s), itrans[s[x]])
                if h == self.ident:
                    continue
                j = self._add_residue(h, i + 1, i + 1)
                if j is not None:
                    return j
        return None
