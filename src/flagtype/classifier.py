"""The finite-type decision procedure for triple (and k-fold) flag varieties.

The verdict logic:

  * k <= 2 is always finite (Bruhat), k >= 4 never is (for n >= 2);
  * a triple is finite outright when it reduces to one of the
    square-class-free finiteness results (the (a),(b),(n) and two-step-flag
    theorems, the five 3-part shapes, (1,1,1,n-3), the full-flag cases with
    b in {(1),(2),(n-1),(1,n-1)}, the 4-part sum-n shapes with b=(3), and
    (g,n-g) with b=(1,1)), closed under forgetting flag steps and under
    dropping a trailing 1-step below a maximal space;
  * otherwise, for n >= 4, the seven-condition classification decides
    shape-matching triples, with the three square-class gate patterns
    turning the verdict into "finite iff the square-class group is finite";
  * n in {2,3} keeps only what is stated at that size (the four infinite
    degree-6 shapes); the rest is reported Empirical and delegated to
    censuses.

Everything returns a Verdict carrying a full trace.
"""

from functools import lru_cache
from itertools import permutations

from .flags import Composition


FINITE = "Finite"
INFINITE = "Infinite"
IFF_SQ = "FiniteIffSquareClassesFinite"
EMPIRICAL = "Empirical"

SQ_FINITE = "finite"
SQ_INFINITE = "infinite"
SQ_UNKNOWN = "unknown"


class Verdict:
    def __init__(self, status, trace):
        self.status = status
        self.trace = list(trace)
        if not self.trace:
            raise ValueError("verdict trace must be nonempty")

    def __repr__(self):
        return "Verdict(%s, %r)" % (self.status, self.trace)

    def to_json(self):
        return {"verdict": self.status, "trace": self.trace}


def _dims(comp):
    return frozenset(comp.dims)


def _allowed(master_dims, n):
    """The dims a component may have to be an image of a flag with the
    master's dimension set.

    Allowed reductions: forget steps (dims subset) and add a maximal step
    on top of an (n-1)-dimensional one (two extensions, stabilizer-shared).
    """
    allowed = set(master_dims)
    if n - 1 in allowed:
        allowed.add(n)
    return frozenset(allowed)


@lru_cache(maxsize=None)
def _sq_free_masters(n):
    """Concrete master triples with square-class-free finiteness proofs,
    each as the allowed dims of its three components with its citation.

    Computed once per n and kept as an immutable tuple."""
    masters = []
    full = tuple(range(1, n + 1))
    for alpha in range(1, n + 1):
        for beta in range(1, n + 1):
            masters.append((((alpha,), (beta,), (n,)),
                            "pair + maximal isotropic orbits are finite"))
    for g1 in range(1, n):
        for g2 in range(1, n - g1 + 1):
            for beta in range(1, n + 1):
                masters.append(((((g1, g2)), (beta,), (n,)),
                                "two-step flag + subspace + maximal"))
    shapes3 = []
    for k in range(1, n - 1):
        if 1 + k + (n - k - 1) == n and n - k - 1 >= 1:
            shapes3.append((1, k, n - k - 1))
            shapes3.append((k, 1, n - k - 1))
    for k in range(1, n - 1):
        shapes3.append((1, 1, k))
        shapes3.append((k, 1, 1))
        shapes3.append((1, k, 1))
    for sh in shapes3:
        if sum(sh) <= n:
            for beta in range(1, n + 1):
                masters.append(((sh, (beta,), (n,)),
                                "three-step flag shapes with a unit step"))
    if n >= 4:
        for beta in range(1, n + 1):
            masters.append((((1, 1, 1, n - 3), (beta,), (n,)),
                            "(1,1,1,n-3) + subspace + maximal"))
    for b in ((n - 1,), (1, n - 1), (1,), (2,)):
        if all(p >= 1 for p in b):
            masters.append(((full, b, (n,)),
                            "full isotropic flag + %r + maximal" % (b,)))
    # four steps summing to n against a 3-space
    for g1 in range(1, n - 2):
        for g2 in range(1, n - g1 - 1):
            for g3 in range(1, n - g1 - g2):
                g4 = n - g1 - g2 - g3
                if g4 >= 1:
                    masters.append((((g1, g2, g3, g4), (3,), (n,)),
                                    "four steps of total n against a 3-space"))
    for g1 in range(1, n):
        masters.append((((g1, n - g1), (1, 1), (n,)),
                        "(g, n-g) against a two-step unit flag"))
    return tuple((tuple(_allowed(_accum(m), n) for m in master), why)
                 for master, why in masters)


def sq_free_cover(n, comps):
    """Citation string when the triple reduces to a square-class-free
    finiteness result; None otherwise."""
    if len(comps) != 3:
        return None
    dims = [_dims(c) for c in comps]
    for allowed, why in _sq_free_masters(n):
        for perm in permutations(range(3)):
            if all(dims[perm[i]] <= allowed[i] for i in range(3)):
                return why
    return None


def _accum(parts):
    out, s = [], 0
    for p in parts:
        s += p
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# the seven conditions and the gates


def theorem17_match(n, a, b, c):
    """First matching condition id for the oriented triple, or None."""
    pa, pb, pc = a.parts, b.parts, c.parts
    if pa == (1,):
        if len(pb) == 1:
            return "I-1"
        if len(pb) == 2 and sum(pb) == n:
            return "I-2"
    if pa == (n,):
        if pb in ((1,), (2,), (3,), (n - 1,), (n,), (1, 1), (1, n - 1),
                  (n - 1, 1)):
            return "II"
        if len(pb) == 1 and 4 <= pb[0] <= n - 2:
            beta = pb[0]
            if len(pc) == 1:
                return "III-1"
            if len(pc) == 2:
                return "III-2"
            if len(pc) == 3:
                k_shapes = set()
                for k in range(1, n - 1):
                    if n - k - 1 >= 1:
                        k_shapes.update({(1, k, n - k - 1), (k, 1, n - k - 1),
                                         (k, n - k - 1, 1)})
                for k in range(1, n + 1):
                    k_shapes.update({(1, 1, k), (1, k, 1), (k, 1, 1)})
                if pc in k_shapes and sum(pc) <= n:
                    return "III-3"
            if len(pc) == 4:
                shapes = {(1, 1, 1, n - 3), (1, 1, n - 3, 1), (1, n - 3, 1, 1),
                          (n - 3, 1, 1, 1), (1, 1, 1, 1)}
                if pc in shapes and sum(pc) <= n:
                    return "III-4"
    return None


def matched_conditions(n, comps):
    """All (condition id, permutation) pairs over the six orientations."""
    out = []
    for perm in permutations(range(3)):
        cid = theorem17_match(n, comps[perm[0]], comps[perm[1]],
                              comps[perm[2]])
        if cid is not None:
            out.append((cid, perm))
    return out


def gates_fired(n, comps):
    """Which of the three square-class gate patterns fire (any orientation)."""
    fired = []
    if max(c.parts[0] for c in comps) < n:
        fired.append("gate-max-first-part")
    for perm in permutations(range(3)):
        a, b, c = (comps[i] for i in perm)
        if a.parts == (n,) and len(b.parts) >= 2 and len(c.parts) >= 2:
            if b.parts[0] + b.parts[1] < n and c.parts[0] + c.parts[1] < n:
                if "gate-two-two-step" not in fired:
                    fired.append("gate-two-two-step")
        if a.parts == (n,) and len(b.parts) == 1 and 3 <= b.parts[0] <= n - 2 \
                and len(c.parts) >= 4 and sum(c.parts[:4]) < n:
            if "gate-mid-subspace-four-steps" not in fired:
                fired.append("gate-mid-subspace-four-steps")
    return fired


def normalize_triple(comps):
    """All six orientations annotated with normalization facts and shapes."""
    if len(comps) != 3:
        raise ValueError("normalize_triple needs exactly three compositions")
    out = []
    for perm in permutations(range(3)):
        a, b, c = (comps[i] for i in perm)
        notes = []
        if len(a.parts) == 1:
            notes.append("a-single")
        if len(b.parts) <= len(c.parts):
            notes.append("q<=r")
        out.append({"perm": perm, "a": a.parts, "b": b.parts, "c": c.parts,
                    "notes": notes})
    return out


_O6_INFINITE_SHAPES = [
    (((2,), (2,), (2,))),
    (((2,), (2,), (1, 2))),
    (((2,), (1, 2), (1, 2))),
    (((1, 2), (1, 2), (1, 2))),
]


def _is_o6_infinite(comps):
    got = sorted(c.parts for c in comps)
    return any(sorted(s) == got for s in _O6_INFINITE_SHAPES)


def _exclusion_trace(n, comps):
    parts = [c.parts for c in comps]
    if not any(p == (1,) or p == (n,) for p in parts):
        return "no factor is a line or a maximal isotropic"
    return "no finiteness condition matches"


def classify(n, comps, square_classes=SQ_UNKNOWN):
    """Finite-type verdict for M_{c1} x ... x M_{ck} over fields with the
    given square-class behaviour."""
    if square_classes not in (SQ_FINITE, SQ_INFINITE, SQ_UNKNOWN):
        raise ValueError("square_classes must be finite|infinite|unknown")
    comps = [c if isinstance(c, Composition) else Composition(c) for c in comps]
    for c in comps:
        c.check(n)
    k = len(comps)
    if k == 0:
        raise ValueError("need at least one composition")
    if k <= 2:
        return Verdict(FINITE, ["k<=2: reduces to the Bruhat decomposition"])
    if n == 1:
        return Verdict(FINITE, ["n=1: the flag variety is a finite set"])
    if k >= 4:
        return Verdict(INFINITE, ["k>=4 with n>=2 is of infinite type"])
    # k == 3
    cover = sq_free_cover(n, comps)
    shapes = matched_conditions(n, comps) if n >= 4 else []
    shape_ids = sorted({cid for cid, _ in shapes})
    if cover is not None:
        trace = ["finite: %s" % cover]
        if shape_ids:
            trace.insert(0, "condition %s" % "/".join(shape_ids))
        return Verdict(FINITE, trace)
    if n >= 4:
        gates = gates_fired(n, comps)
        if not shapes:
            return Verdict(INFINITE,
                           ["no condition of the classification matches",
                            _exclusion_trace(n, comps)])
        head = "condition %s" % "/".join(shape_ids)
        if square_classes == SQ_FINITE:
            return Verdict(FINITE, [head,
                                    "square classes assumed finite"])
        if gates:
            if square_classes == SQ_INFINITE:
                return Verdict(INFINITE, [head] + gates +
                               ["infinitely many square classes realize "
                                "infinitely many orbits"])
            return Verdict(IFF_SQ, [head] + gates)
        return Verdict(IFF_SQ, [head,
                                "no square-class-free finiteness route is "
                                "on record for this shape"])
    # n in {2, 3}
    if n == 3 and _is_o6_infinite(comps):
        return Verdict(INFINITE, ["one of the four infinite degree-6 shapes"])
    return Verdict(EMPIRICAL,
                   ["n=%d below the classification range; delegated to "
                    "censuses" % n])
