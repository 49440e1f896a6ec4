"""Permutation groups on the integer points 0..N-1: orbits and a
deterministic Schreier-Sims stabilizer chain.

A permutation is a tuple p with p[x] the image of x.  Products read left to
right: ``mul(p, r)`` applies p first, then r.

The chain is the base and strong generating set of Sims (1970), built by
the deterministic incremental algorithm of Holt-Eick-O'Brien, *Handbook of
Computational Group Theory*, section 4.4.  Each level keeps its basic orbit
with a transversal and the inverse transversal beside it.  The order of the
chain is the product of its basic orbit lengths.  When the group order is
known in advance the construction stops as soon as that product reaches it,
which certifies the chain complete.
"""

from operator import itemgetter


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
    stabilizer of ``base[0]``.  With `order` given, the construction stops
    once the chain reaches that order, and raises AssertionError if it
    cannot.
    """

    def __init__(self, gens, degree, base=(), order=None):
        self.degree = degree
        self.ident = tuple(range(degree))
        self.base = []
        self.gens = []
        self.ginvs = []
        self.orbit = []
        self.trans = []
        self.itrans = []
        self._done = []
        for b in base:
            self._add_level(b)
        strong = []
        for g in gens:
            g = tuple(g)
            if g != self.ident and g not in strong:
                strong.append(g)
        for g in strong:
            if all(g[b] == b for b in self.base):
                self._add_level(next(x for x in range(degree) if g[x] != x))
        for g in strong:
            j = next(i for i, b in enumerate(self.base) if g[b] != b)
            self._add_gen(g, 0, j)
        self._complete(order)
        if order is not None and self.order() != order:
            raise AssertionError("stabilizer chain does not reach the "
                                 "expected order")

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
            t = self.itrans[j].get(g[base[j]])
            if t is None:
                return g, j
            g = mul(g, t)
        return g, len(base)

    def _add_level(self, b):
        self.base.append(b)
        self.gens.append([])
        self.ginvs.append([])
        self.orbit.append([b])
        self.trans.append({b: self.ident})
        self.itrans.append({b: self.ident})
        self._done.append([0])

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
        orb, trans, itrans = self.orbit[i], self.trans[i], self.itrans[i]
        old = len(orb)
        for x in orb[:old]:
            y = g[x]
            if y not in trans:
                trans[y] = mul(trans[x], g)
                itrans[y] = mul(gi, itrans[x])
                orb.append(y)
        pairs = list(zip(self.gens[i], self.ginvs[i]))
        k = old
        while k < len(orb):
            x = orb[k]
            k += 1
            for s, si in pairs:
                y = s[x]
                if y not in trans:
                    trans[y] = mul(trans[x], s)
                    itrans[y] = mul(si, itrans[x])
                    orb.append(y)
        self._done[i].extend([0] * (len(orb) - len(self._done[i])))

    def _complete(self, order):
        """Sift Schreier generators until every level is closed."""
        i = len(self.base) - 1
        while i >= 0:
            if order is not None and self.order() == order:
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
        orb, trans, itrans = self.orbit[i], self.trans[i], self.itrans[i]
        gens, done = self.gens[i], self._done[i]
        for p, x in enumerate(orb):
            u = trans[x]
            while done[p] < len(gens):
                s = gens[done[p]]
                done[p] += 1
                us = mul(u, s)
                y = s[x]
                if us == trans[y]:
                    continue
                r, j = self.sift(mul(us, itrans[y]), i + 1)
                if r == self.ident:
                    continue
                if j == len(self.base):
                    self._add_level(next(z for z in range(self.degree)
                                         if r[z] != z))
                self._add_gen(r, i + 1, j)
                return j
        return None
