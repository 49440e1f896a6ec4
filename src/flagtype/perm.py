"""Permutation groups on the integer points 0..N-1: orbits and a
Schreier-Sims stabilizer chain.

A permutation is a tuple p with p[x] the image of x.  Products read left to
right: ``mul(p, r)`` applies p first, then r.

The chain is the base and strong generating set of Sims (1970).  Each level
keeps its basic orbit with a Schreier vector: for each orbit point, the
label (a strong generator or its inverse) that reaches it and the point it
comes from.  A transversal element is built on demand by walking the tree
back to the base point, so a level takes O(|orbit|) memory rather than one
permutation of all points per orbit point (Seress, *Permutation Group
Algorithms*, 2003, sections 4.1 and 4.4; Holt-Eick-O'Brien, *Handbook of
Computational Group Theory*, 2005, section 4.1).  The trees are
breadth-first, rebuilt whenever a generator joins, which keeps the walks
short, except at a level with checked Schreier generators: there a tree is
only extended, since a checked Schreier generator stays checked only while
the transversal elements it was formed with stay the same.  The order of
the chain is the product of its basic orbit lengths.

Given an upper bound on the group order, a seeded random-sift pass runs
first (Seress, ch. 4; random elements by product replacement, Celler et
al. 1995) and stops as soon as the chain reaches the bound, which
certifies it complete.  Otherwise the deterministic incremental algorithm
of Holt-Eick-O'Brien, section 4.4, completes it, one generator at a time.
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
    beginning with its first point in `points`; orbits come in that order.
    When `points` is ascending, each orbit begins with its smallest point.
    With no generators every point is its own orbit.
    """
    if not images:
        return [[x] for x in points]
    seen = bytearray(len(images[0]))
    out = []
    for start in points:
        if seen[start]:
            continue
        seen[start] = 1
        orb = [start]
        for x in orb:
            for img in images:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    orb.append(y)
        out.append(orb)
    return out


class StabChain:
    """Base and strong generating set of <gens> on `degree` points.

    The base begins with `base`.  ``gens[i]`` holds the strong generators
    that fix the first i base points, so ``gens[1]`` generates the
    stabilizer of ``base[0]``.  ``orbit[i]`` is the basic orbit of
    ``base[i]`` under ``gens[i]``, spanned by the Schreier tree ``sv[i]``:
    ``sv[i][y] = (k, x)`` when label k of the level, ``labels[i][k]``, maps
    x to y, and ``sv[i][base[i]] = None``.  The labels are the strong
    generators and their inverses, interleaved (label 2d is ``gens[i][d]``,
    label 2d+1 its inverse, so label k ^ 1 undoes label k), which lets the
    tree run along both directions of an edge.  ``transversal(i, x)`` walks
    the tree to build an element carrying x to ``base[i]``.
    `order`, when given, must be an upper bound on the order of <gens>: the
    construction stops once the chain reaches it, and raises AssertionError
    if the chain exceeds it.
    """

    def __init__(self, gens, degree, base=(), order=None):
        self.degree = degree
        self.ident = tuple(range(degree))
        self.base = []
        self.gens = []
        self.labels = []
        self.orbit = []
        self.sv = []
        self._done = []
        for b in base:
            self._add_level(b)
        gens = [tuple(g) for g in gens]
        for g in gens:
            # a generator's residue joins level 0 too: the chain's group
            # holds g only with it.  Without a bound the chain of the
            # generators so far is completed first, so that one lying in
            # their group sifts to the identity and brings no Schreier
            # generators to check
            if self._add_residue(g, 0, 0) is not None and order is None:
                self._complete(None)
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

    def transversal(self, j, x):
        """An element carrying x to ``base[j]``, or None when x is not in
        the basic orbit ``orbit[j]``."""
        if x not in self.sv[j]:
            return None
        return self._back(j, self.ident, x)

    def sift(self, g, level=0):
        """Strip g through the levels from `level` on: (residue, stop level)."""
        base = self.base
        for j in range(level, len(base)):
            x = g[base[j]]
            if x not in self.sv[j]:
                return g, j
            g = self._back(j, g, x)
        return g, len(base)

    def _back(self, j, g, x):
        """g followed by the tree walk from x back to ``base[j]``."""
        sv, labels = self.sv[j], self.labels[j]
        step = sv[x]
        while step is not None:
            k, x = step
            g = mul(g, labels[k ^ 1])
            step = sv[x]
        return g

    def _path(self, j, x):
        """The element carrying ``base[j]`` to x along the tree: the
        inverse of ``transversal(j, x)``, without inverting."""
        sv, labels = self.sv[j], self.labels[j]
        u = self.ident
        step = sv[x]
        while step is not None:
            k, x = step
            u = mul(labels[k], u)
            step = sv[x]
        return u

    def _add_level(self, b):
        self.base.append(b)
        self.gens.append([])
        self.labels.append([])
        self.orbit.append([b])
        self.sv.append({b: None})
        self._done.append({})

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
            self.labels[i] += (g, gi)
            self._grow(i)

    def _grow(self, i):
        """Close basic orbit i under its labels after a generator joined.

        While no Schreier generator of the level has been checked, the tree
        is rebuilt breadth-first over all labels, which keeps it shallow.
        Once one has, the tree is only extended: a checked Schreier
        generator was formed with the transversal elements of its time,
        and ``_check_level`` counts it as checked for good only because
        those elements never change (a chain that rebuilds here anyway
        can stop below its group's order: ``REBUILD_TRAPS`` in the tests).
        """
        labels = self.labels[i]
        if self._done[i]:
            sv, orb = self.sv[i], self.orbit[i]
        else:
            b = self.base[i]
            sv, orb = {b: None}, [b]
            self.sv[i], self.orbit[i] = sv, orb
        for x in orb:
            for k, s in enumerate(labels):
                y = s[x]
                if y not in sv:
                    sv[y] = (k, x)
                    orb.append(y)

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

        ``_done[i][x]`` counts the generators whose Schreier generator at
        the orbit point x is checked: it lies in the group of the next
        level's generators, either because it sifts to the identity or
        because its residue has just been added there.  That stays true as
        the chain grows, since generator lists only gain entries and a tree
        with checked generators only gains points (``_grow``).  An edge of
        the tree between x and s(x), in either direction, gives the
        identity and is skipped.  Returns the deepest
        level that gained a generator, or None when level i is closed.
        """
        orb, sv = self.orbit[i], self.sv[i]
        gens, done = self.gens[i], self._done[i]
        for x in orb:
            d = done.get(x, 0)
            u = None
            while d < len(gens):
                s = gens[d]
                k = 2 * d
                d += 1
                done[x] = d
                y = s[x]
                if sv[y] == (k, x) or sv[x] == (k + 1, y):
                    continue
                if u is None:
                    u = self._path(i, x)
                h = self._back(i, mul(u, s), y)
                if h == self.ident:
                    continue
                j = self._add_residue(h, i + 1, i + 1)
                if j is not None:
                    return j
        return None
