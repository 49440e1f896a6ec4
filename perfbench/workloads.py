"""The benchmark's five workloads.

A workload is a list of Items built from the seed.  ``Item.run`` is the timed
call into flagtype; everything else (input generation, ``record``, ``check``)
happens outside the timed region.  ``record`` turns an output into exact,
JSON-able data: it is compared with the recorded reference, where one exists,
and between repetitions of the item.  ``check`` tests facts that need no
recorded value (closed-form counts, postconditions, round trips), using the
independent arithmetic of ``gfp``.

flagtype is always called through its module attributes (``engine.x``), so
the tracer's wrappers are the functions the workloads reach.
"""

import itertools
import random

from flagtype import (canonical, classifier, engine, flags, geometry,
                      invariants, linalg, witnesses)

import gfp


class Item:
    def __init__(self, label, run, record, check=None, has_reference=False):
        self.label = label
        self.run = run
        self.record = record
        self.check = check or (lambda out, rec: [])
        self.has_reference = has_reference


def _subspace(q, n, rows):
    return linalg.canonicalize(q, 2 * n, [list(r) for r in rows])


def _flag_errors(label, chains, comps, n, q):
    """Each chain is a nested isotropic flag with the composition's dims."""
    errs = []
    for ch, comp in zip(chains, comps):
        dims = [s.dim for s in ch]
        if dims != list(itertools.accumulate(comp)):
            errs.append("%s: chain dims %r do not match %r" % (label, dims,
                                                               comp))
        if not gfp.is_isotropic(ch[-1].rows, q):
            errs.append("%s: representative top space is not isotropic"
                        % label)
        for lo, hi in zip(ch, ch[1:]):
            if gfp.rank(list(lo.rows) + list(hi.rows), q) != hi.dim:
                errs.append("%s: chain is not nested" % label)
    return errs


# ---------------------------------------------------------------------------
# census: orbit censuses under G (union-find at n=2, stabilizer descent at n=3)

# The n=2 spaces of the census plan at q=3 and q=5, except (1)|(1,1)|(2) at
# q=5, which is left out so that a run fits three passes.  The n=3 space is
# above the 200000-tuple direct limit, so census_space takes the stabilizer
# descent there.
CENSUS_SPACES = [(2, ((1,), (1,), (2,)), 3), (2, ((1,), (1,), (2,)), 5),
                 (2, ((2,), (1,), (2,)), 3), (2, ((2,), (1,), (2,)), 5),
                 (2, ((2,), (2,), (2,)), 3), (2, ((2,), (2,), (2,)), 5),
                 (2, ((1,), (1, 1), (2,)), 3)]
CENSUS_SPACES.append((3, ((1,), (1,), (1,)), 3))


def _census_item(n, comps, q, gens):
    label = "census n=%d q=%d %s" % (n, q, "|".join(map(str, comps)))
    cs = [flags.Composition(c) for c in comps]

    def run():
        return engine.census_space(n, q, cs, gens)

    def record(out):
        return out.to_json(n)

    def check(out, rec):
        errs = []
        if sum(out.orbit_sizes) != out.total:
            errs.append("%s: orbit sizes do not sum to the space size" % label)
        if len(out.representatives) != out.orbit_count:
            errs.append("%s: one representative per orbit expected" % label)
        for rep in out.representatives:
            errs.extend(_flag_errors(label, rep, comps, n, q))
        return errs

    return Item(label, run, record, check, has_reference=True)


def census(seed):
    gens = {}
    items = []
    for n, comps, q in CENSUS_SPACES:
        g = gens.get((q, n))
        if g is None:
            g = gens[(q, n)] = geometry.group_generators(q, n)
        items.append(_census_item(n, comps, q, g))
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# bruhat: enumerate the maximal isotropics, then P-cells, SO- and G-orbits

BRUHAT_SIZES = [(2, 3), (2, 5), (2, 7), (3, 3)]


def _bruhat_item(n, q):
    label = "bruhat n=%d q=%d" % (n, q)
    groups = [("P", geometry.parabolic_generators(q, n)),
              ("SO", geometry.so_generators(q, n)),
              ("G", geometry.group_generators(q, n))]

    def run():
        spaces = flags.enumerate_chains(q, n, flags.Composition([n]))
        tuples = [(ch,) for ch in spaces]
        return spaces, [engine.census_direct(tuples, gens, n, q)
                        for _, gens in groups]

    def record(out):
        spaces, cens = out
        rec = {"spaces": len(spaces)}
        for (name, _), cen in zip(groups, cens):
            rec[name] = sorted(cen.orbit_sizes)
        return rec

    def check(out, rec):
        errs = []
        want = 1
        for i in range(n):
            want *= q ** i + 1
        if rec["spaces"] != want:
            errs.append("%s: %d maximal isotropics, expected %d"
                        % (label, rec["spaces"], want))
        for name, count in (("P", n + 1), ("SO", 2), ("G", 1)):
            if len(rec[name]) != count:
                errs.append("%s: %d %s-orbits, expected %d"
                            % (label, len(rec[name]), name, count))
            if sum(rec[name]) != rec["spaces"]:
                errs.append("%s: %s-orbit sizes do not sum to the space size"
                            % (label, name))
        for (space,) in out[0]:
            if space.dim != n or not gfp.is_isotropic(space.rows, q):
                errs.append("%s: enumerated a non-maximal-isotropic space"
                            % label)
                break
        return errs

    return Item(label, run, record, check, has_reference=True)


def bruhat(seed):
    items = [_bruhat_item(n, q) for n, q in BRUHAT_SIZES]
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# witness: class partitions of witness pencils, and same-orbit decisions on
# seeded random translates

WITNESS_CLASSES = [("O4_L31_0", 5), ("O4_L31_2", 5), ("O4_L31_4", 5),
                   ("O6_L32p", 3), ("O6_L31p_i", 3), ("O5emb_L33p", 3)]
WITNESS_TRANSLATES = [("O6_L32p", 3), ("O6_L322_sq", 3)]
TRANSLATE_WORD = 12


def _classes_item(fid, q):
    label = "classes %s q=%d" % (fid, q)
    fam = witnesses.FAMILIES[fid]
    domain = fam.lambda_domain(q, fam.n_min)

    def run():
        return witnesses.family_classes(fid, q)

    def record(out):
        return [list(c) for c in out[0]]

    def check(out, rec):
        got = sorted(lam for cls in rec for lam in cls)
        if got != sorted(domain):
            return ["%s: classes %r do not partition the domain %r"
                    % (label, rec, domain)]
        return []

    return Item(label, run, record, check, has_reference=True)


def _translate_item(fid, q, rng):
    fam = witnesses.FAMILIES[fid]
    n = fam.n_min
    lam = rng.choice(fam.lambda_domain(q, n))
    gens = geometry.group_generators(q, n)
    word = [rng.randrange(len(gens)) for _ in range(TRANSLATE_WORD)]
    g = tuple(tuple(int(i == j) for j in range(2 * n)) for i in range(2 * n))
    for gi in word:
        g = gfp.matmul(gens[gi].rows, g, q)
    x = witnesses.build(fid, n, lam, q)
    y = tuple(tuple(_subspace(q, n, gfp.image(g, s.rows, q)) for s in ch)
              for ch in x)
    label = "translate %s q=%d lam=%d word=%s" % (
        fid, q, lam, ".".join(map(str, word)))

    def run():
        return engine.same_orbit(x, y, gens, n, q)

    def record(out):
        verdict, h = out
        return [verdict, None if h is None else [list(r) for r in h.rows]]

    def check(out, rec):
        verdict, h = out
        if verdict != engine.SAME or h is None:
            return ["%s: verdict %r, expected a connecting element"
                    % (label, verdict)]
        if not gfp.is_orthogonal(h.rows, q):
            return ["%s: connecting element is not orthogonal" % label]
        for cx, cy in zip(x, y):
            for sx, sy in zip(cx, cy):
                if gfp.image(h.rows, sx.rows, q) != sy.rows:
                    return ["%s: g'x != y" % label]
        return []

    return Item(label, run, record, check)


def witness(seed):
    rng = random.Random(seed)
    items = [_classes_item(fid, q) for fid, q in WITNESS_CLASSES]
    items += [_translate_item(fid, q, rng) for fid, q in WITNESS_TRANSLATES]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# triples: b-invariants, normalization and the canonical representative

TRIPLE_STRATA = [(3, 3), (3, 5), (4, 3), (4, 5)]
TRIPLES_PER_STRATUM = 150


def _relation_errors(b, t):
    """The relation equalities, restated from the paper."""
    b = (None,) + tuple(b)
    a0, ap, am, a1, a2 = t
    ok = (a0 == b[1] + b[2]
          and ap == b[3] + b[7] + b[8] + b[10]
          and am == b[4] + b[7] + b[9] + b[11]
          and a1 == b[5] + b[6] + b[8] + b[9] + 2 * b[12] + b[13] + b[15]
          and a2 == b[12] + b[13] + b[14]
          and b[15] % 2 == 0)
    return [] if ok else ["relations violated"]


def _triple_item(n, q, k, up, um, v):
    label = "triple n=%d q=%d #%d" % (n, q, k)

    def run():
        b, t = invariants.b_invariants(up, um, v, n)
        g = canonical.normalize_pair(up, um, n)
        rep = canonical.representative(b, n, q)
        return b, t, g, rep

    def record(out):
        b, t, g, rep = out
        return [list(b.b), list(t.tuple5()), [list(r) for r in g.rows],
                [list(r) for r in rep.rows]]

    def check(out, rec):
        b, t, g, rep = out
        errs = ["%s: %s" % (label, e) for e in _relation_errors(b.b,
                                                                t.tuple5())]
        su, sm = canonical.standard_pair(t, q)
        if not gfp.is_orthogonal(g.rows, q):
            errs.append("%s: normalize_pair gave a non-orthogonal g" % label)
        if (gfp.image(g.rows, up.rows, q) != su.rows
                or gfp.image(g.rows, um.rows, q) != sm.rows):
            errs.append("%s: g does not carry the pair to standard position"
                        % label)
        if rep.dim != n or not gfp.is_isotropic(rep.rows, q):
            errs.append("%s: representative is not maximal isotropic" % label)
        if invariants.b_invariants(su, sm, rep, n)[0] != b:
            errs.append("%s: b of the representative does not round-trip"
                        % label)
        return errs

    return Item(label, run, record, check)


def triples(seed):
    rng = random.Random(seed)
    items = []
    for n, q in TRIPLE_STRATA:
        for k in range(TRIPLES_PER_STRATUM):
            up = gfp.random_isotropic(rng, q, n, rng.randrange(n + 1))
            um = gfp.random_isotropic(rng, q, n, rng.randrange(n + 1))
            v = gfp.random_isotropic(rng, q, n, n)
            items.append(_triple_item(n, q, k, _subspace(q, n, up),
                                      _subspace(q, n, um),
                                      _subspace(q, n, v)))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# classify: the decision procedure on triples of compositions at n=5; a
# seeded sample, so that a run repeats each triple a few times

CLASSIFY_N = 5
CLASSIFY_SAMPLE = 1500


def compositions(n):
    """All compositions with sum <= n, in depth-first order."""
    out = []

    def grow(prefix, total):
        if prefix:
            out.append(tuple(prefix))
        for p in range(1, n - total + 1):
            grow(prefix + [p], total + p)

    grow([], 0)
    return out


def composition_triples(n):
    return list(itertools.combinations_with_replacement(compositions(n), 3))


def triple_label(n, tri):
    return "n=%d %s" % (n, "|".join(map(str, tri)))


def _classify_item(n, tri):
    comps = [flags.Composition(c) for c in tri]

    def run():
        return classifier.classify(n, comps)

    return Item(triple_label(n, tri), run, lambda out: out.status,
                has_reference=True)


def classify(seed):
    tris = random.Random(seed).sample(composition_triples(CLASSIFY_N),
                                      CLASSIFY_SAMPLE)
    return [_classify_item(CLASSIFY_N, tri) for tri in tris]


WORKLOADS = {"census": census, "bruhat": bruhat, "witness": witness,
             "triples": triples, "classify": classify}
