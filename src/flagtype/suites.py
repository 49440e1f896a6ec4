"""Named verification suites: the machine-checkable content of the package.

Each suite returns {"ok": bool, "name": ..., "checks": [(label, ok, detail)]}.
The CLI command `flagtype verify --suite NAME` runs one of them and exits
0/1/3; each acceptance criterion runs the suite of the same content and
asserts its checks.  Orbits come from the engine: censuses, and
``stabilizer_orbits`` for the R-orbits of `r-classes` and the witness
classes; `cor87` counts GL-flag orbits on the permutations that
``flags.flag_spaces`` returns.
"""

import math
import random
from collections import Counter

from .linalg import Mat, act_on_subspace, identity, mat_mul
from .geometry import (group_generators, so_generators, parabolic_generators,
                       small_generators,
                       bruhat_cell, random_isotropic,
                       random_group_element, group_order, sp_order,
                       w_element, classify_element, IN_SO, IN_O_MINUS_SO,
                       primitive_root)
from .flags import Composition, enumerate_chains, flag_count, flag_spaces
from .invariants import BInvariants, b_invariants, verify_relations
from .canonical import (enumerate_thetas, enumerate_valid_b, standard_pair,
                        representative, IndexLayout, h_block, h15,
                        rv_transvection, sp_prime_generators, in_sp_prime,
                        eliminate, check_rv_membership, PLUS_BLOCKS,
                        EXCLUDED_PAIRS, COMPENSATED_PAIRS,
                        ELIMINATION_SUPPORT, block_precedes, normalize_pair)
from .engine import (INFEASIBLE, action_points, census_space,
                     stabilizer_orbits)
from .perm import StabChain, orbits
from .witnesses import (FAMILIES, build, family_classes, equivariance_check,
                        separation_check)
from .classifier import classify, FINITE


def _suite(name, checks):
    return {"name": name, "ok": all(c[1] for c in checks), "checks": checks}


def _rand_triple(rng, n, q):
    up = random_isotropic(q, n, rng.randrange(n + 1), rng)
    um = random_isotropic(q, n, rng.randrange(n + 1), rng)
    v = random_isotropic(q, n, n, rng)
    return up, um, v


def suite_prop58():
    """Relation identities for random triples; b14 and b15 checks included."""
    checks = []
    rng = random.Random(58)
    for n in (2, 3, 4):
        for q in (3, 5):
            bad = 0
            for _ in range(1000):
                up, um, v = _rand_triple(rng, n, q)
                try:
                    b, t = b_invariants(up, um, v, n)  # asserts internally
                    if verify_relations(b, t):
                        bad += 1
                except AssertionError:
                    bad += 1
            checks.append(("prop58 n=%d q=%d x1000" % (n, q), bad == 0,
                           "%d violations" % bad))
    return _suite("prop58", checks)


def suite_ginvariance():
    checks = []
    rng = random.Random(17)
    for n in (2, 3, 4):
        for q in (3, 5):
            gens = group_generators(q, n)
            bad = 0
            for _ in range(33):
                up, um, v = _rand_triple(rng, n, q)
                b1, _ = b_invariants(up, um, v, n)
                g = random_group_element(q, n, rng, gens=gens)
                b2, _ = b_invariants(act_on_subspace(g, up),
                                     act_on_subspace(g, um),
                                     act_on_subspace(g, v), n)
                if b1 != b2:
                    bad += 1
            checks.append(("g-invariance n=%d q=%d x33" % (n, q),
                           bad == 0, "%d violations" % bad))
    return _suite("g-invariance", checks)


def suite_roundtrip():
    """representative(b) is maximal isotropic and returns exactly b."""
    checks = []
    q = 3
    for n in range(1, 5):
        total = 0
        bad = 0
        for t in enumerate_thetas(n):
            su, sm = standard_pair(t, q)
            for b in enumerate_valid_b(t):
                total += 1
                v = representative(b, n, q)
                bb, _ = b_invariants(su, sm, v, n)
                if bb != b:
                    bad += 1
        checks.append(("roundtrip n=%d (%d b-tuples)" % (n, total), bad == 0,
                       "%d mismatches" % bad))
    return _suite("roundtrip", checks)


def full_blocks_layout():
    """The smallest layout with every block populated (b_j = 1, b15 = 2)."""
    return IndexLayout(22, BInvariants([1] * 14 + [2]))


def suite_rv_generators():
    """Membership battery for every generator kind at the full-blocks layout."""
    rng = random.Random(11)
    q = 5
    lay = full_blocks_layout()
    checks = []
    ok_h = True
    for j in range(1, 15):
        try:
            g = h_block(lay, j, Mat(q, [[rng.randrange(1, q)]]), q)
            check_rv_membership(lay, g, q)
        except AssertionError:
            ok_h = False
    checks.append(("h_j blocks", ok_h, "j=1..14 with random scalars"))
    sp_gens = sp_prime_generators(q, lay.b[15] // 2)
    a = identity(q, lay.b[15])
    for _ in range(6):
        a = mat_mul(a, sp_gens[rng.randrange(len(sp_gens))])
    ok15 = in_sp_prime(a, lay.b[15] // 2)
    try:
        check_rv_membership(lay, h15(lay, a, q), q)
    except AssertionError:
        ok15 = False
    checks.append(("h15 with a random Sp' word", ok15, ""))
    ok_g, count = True, 0
    for bi in PLUS_BLOCKS:
        for bk in PLUS_BLOCKS:
            if bi == bk or not block_precedes(bi, bk):
                continue
            if (bi, bk) in EXCLUDED_PAIRS and (bi, bk) not in COMPENSATED_PAIRS:
                continue
            for i in lay.plus[bi]:
                for k in lay.plus[bk]:
                    try:
                        g = rv_transvection(lay, i, k, rng.randrange(1, q), q)
                        check_rv_membership(lay, g, q)
                        count += 1
                    except AssertionError:
                        ok_g = False
    checks.append(("g_{i,k} across admissible block pairs", ok_g,
                   "%d elements" % count))
    ok_ex = True
    for bi, bk in sorted(EXCLUDED_PAIRS - set(COMPENSATED_PAIRS)):
        try:
            rv_transvection(lay, lay.plus[bi][0], lay.plus[bk][0], 1, q)
            ok_ex = False
        except ValueError:
            pass
    checks.append(("inadmissible pairs rejected", ok_ex, ""))
    ok_e = True
    for trial in range(12):
        kind = rng.choice(["6b", "8b", "12b"])
        k = rng.choice(lay.plus[kind])
        pool = [i for l in ELIMINATION_SUPPORT[kind] for i in lay.plus[l]]
        support = {i: rng.randrange(1, q)
                   for i in rng.sample(pool, rng.randrange(1, 5))}
        try:
            g = eliminate(lay, k, support, q)
            check_rv_membership(lay, g, q)
        except AssertionError:
            ok_e = False
    checks.append(("elimination elements", ok_e, "12 random cases"))
    return _suite("rv-generators", checks)


def suite_bruhat():
    """Cell counts and sizes against exhaustive enumeration; w_d parity;
    cross-checks."""
    checks = []
    for n in (2, 3):
        for d in range(n + 1):
            w = w_element(3, n, d)
            want = IN_SO if d % 2 == 0 else IN_O_MINUS_SO
            checks.append(("w_%d parity n=%d" % (d, n),
                           classify_element(w, n) == want, ""))
        for q in (3, 5):
            maxiso = enumerate_chains(q, n, Composition([n]))
            cp, cs, cg = (census_space(n, q, [Composition([n])], kind(q, n))
                          for kind in (parabolic_generators, so_generators,
                                       group_generators))
            d_of = Counter(bruhat_cell(ch[0], n) for ch in maxiso)
            checks.append(("P cells n=%d q=%d" % (n, q),
                           cp.orbit_count == n + 1,
                           "%d cells over %d spaces" % (cp.orbit_count,
                                                        len(maxiso))))
            # cell d holds q^(d(d-1)/2) [n choose d]_q spaces
            cells = sorted((bruhat_cell(rep[0][0], n), size)
                           for rep, size in zip(cp.representatives,
                                                cp.orbit_sizes))
            sizes = [(d, q ** (d * (d - 1) // 2)
                      * math.prod(q ** (n - i) - 1 for i in range(d))
                      // math.prod(q ** (i + 1) - 1 for i in range(d)))
                     for d in range(n + 1)]
            checks.append(("P cell sizes n=%d q=%d" % (n, q), cells == sizes,
                           "(d, size) %r, formula %r" % (cells, sizes)))
            checks.append(("SO orbits n=%d q=%d" % (n, q),
                           cs.orbit_count == 2, str(cs.orbit_count)))
            # the two SO-orbits are the cells of even and of odd d
            split = sorted((bruhat_cell(rep[0][0], n) % 2, size)
                           for rep, size in zip(cs.representatives,
                                                cs.orbit_sizes))
            parity = [sum(c for d, c in d_of.items() if d % 2 == p)
                      for p in (0, 1)]
            checks.append(("SO orbits split by cell parity n=%d q=%d" % (n, q),
                           split == list(enumerate(parity)),
                           "(parity, size) %r, cells %r" % (split, parity)))
            checks.append(("G transitive n=%d q=%d" % (n, q),
                           cg.orbit_count == 1, str(cg.orbit_count)))
            # M_(n) is enumerated as one G-orbit, so count it independently
            want = math.prod(q ** i + 1 for i in range(n))
            checks.append(("|M_(n)| = prod(q^i + 1) n=%d q=%d" % (n, q),
                           len(maxiso) == want,
                           "%d spaces, formula %d" % (len(maxiso), want)))
            checks.append(("cells indexed by d n=%d q=%d" % (n, q),
                           sorted(d_of) == list(range(n + 1)),
                           repr(sorted(d_of.items()))))
    return _suite("bruhat", checks)


R_CLASS_CELLS = ((2, 3), (2, 5), (3, 3))


def _chain_order(gens):
    """The order of <gens> from an unbounded stabilizer chain on the
    faithful vector action."""
    vectors, _, images = action_points(gens, [])
    return StabChain(images, len(vectors)).order()


def suite_r_classes():
    """Completeness at each (n, q) of R_CLASS_CELLS: for every theta, the
    orbits of R = Stab(U+, U-) on M_(n), taken on ``small_generators``, are
    the b-classes, one per valid b; and |O_2n(q)| from unbounded stabilizer
    chains on the faithful vector action, of ``group_generators`` and of
    ``small_generators``."""
    checks = []
    for n, q in R_CLASS_CELLS:
        want = group_order(q, n)
        for label, kind in (("", group_generators),
                            ("small set: ", small_generators)):
            order = _chain_order(kind(q, n))
            checks.append(("%s|O_%d(F_%d)| by stabilizer chain"
                           % (label, 2 * n, q), order == want,
                           "%d = %d" % (order, want)))
        gens = small_generators(q, n)
        maxiso = [ch[0] for ch in enumerate_chains(q, n, Composition([n]))]
        agree, detail = True, []
        for t in enumerate_thetas(n):
            su, sm = standard_pair(t, q)
            try:
                r_orbits = stabilizer_orbits(gens, n, [su, sm], maxiso)
            except AssertionError as exc:  # gens not certified
                agree = False
                detail.append("theta=%s: %s" % (t.tuple5(), exc))
                continue
            bvals = {}
            for i, v in enumerate(maxiso):
                bvals.setdefault(b_invariants(su, sm, v, n)[0], []).append(i)
            n_valid = len(enumerate_valid_b(t))
            agree &= len(r_orbits) == n_valid and \
                sorted(r_orbits) == sorted(bvals.values())
            detail.append("theta=%s: %d R-orbits, %d b-values, %d valid b" %
                          (t.tuple5(), len(r_orbits), len(bvals), n_valid))
        checks.append(("b-classes = R-orbits n=%d q=%d (all thetas)" % (n, q),
                       agree, "; ".join(detail)))
    return _suite("r-classes", checks)


WITNESS_PLAN = {
    # family: (qs for class partition, expected minimum class counts)
    "O4_L31_0": ((5,), {5: 5}),
    "O4_L31_1": ((5,), {5: 5}),
    "O4_L31_2": ((5,), {5: 5}),
    "O4_L31_3": ((5,), {5: 5}),
    "O4_L31_4": ((5,), {5: 5}),
    "O6_L32p": ((3, 5), {3: 2, 5: 3}),
    "O6_L31p_i": ((3,), {3: 3}),
    "O6_L31p_ii": ((3,), {3: 3}),
    "O6_L31p_iii": ((3,), {3: 3}),
    "O5emb_L33p": ((3,), {3: 2}),
}


def suite_witnesses():
    checks = []
    for fid, fam in FAMILIES.items():
        lam = fam.lambda_domain(3, fam.n_min)[0]
        try:
            build(fid, fam.n_min, lam, 3)
            ok = True
        except (AssertionError, ValueError):
            ok = False
        checks.append(("build+validate %s" % fid, ok, "n=%d q=3" % fam.n_min))
    for fid, (qs, minima) in WITNESS_PLAN.items():
        fam = FAMILIES[fid]
        for q in qs:
            classes, _ = family_classes(fid, q)
            count = len(classes)
            want = minima[q]
            if fam.relation == "equality":
                dom = len(fam.lambda_domain(q, fam.n_min))
                ok = count == dom
                msg = "%d classes (all %d lambdas distinct)" % (count, dom)
            else:
                ok = count >= want
                msg = "%d classes (needs >= %d): %r" % (count, want, classes)
            checks.append(("separation %s q=%d" % (fid, q), ok, msg))
    for q in (3, 5):
        classes, _ = family_classes("O6_L322_sq", q)
        checks.append(("O6_L322_sq exactly 2 classes q=%d" % q,
                       len(classes) == 2, repr(classes)))
    for fid, n in (("O6_L322_sq", 3), ("O10_L323_sq", 5)):
        for q in (3, 5):
            pairs = [(lam, c) for lam in FAMILIES[fid].lambda_domain(q, n)
                     for c in range(2, q)]
            bad = [(lam, c) for lam, c in pairs
                   if not equivariance_check(fid, lam, c, q)["ok"]]
            checks.append(("%s equivariance certificates q=%d" % (fid, q),
                           not bad, "%d (lam, c), failing %r"
                           % (len(pairs), bad)))
    for q in (3, 5):
        v, _ = separation_check("O10_L323_sq", 1, 2, q)
        checks.append(("O10_L323_sq separation Infeasible q=%d" % q,
                       v == INFEASIBLE, v))
    v, _ = separation_check("O8_L32_i", 1, 2, 3)
    checks.append(("O8 separation marked Infeasible", v == INFEASIBLE, v))
    return _suite("witnesses", checks)


CENSUS_PLAN = [
    # (n, comps, qs) -- spaces kept within desk scale
    (2, [(1,), (1,), (2,)], (3, 5)),
    (2, [(2,), (1,), (2,)], (3, 5)),
    (2, [(2,), (2,), (2,)], (3, 5)),
    (2, [(1,), (1, 1), (2,)], (3, 5)),
    (3, [(1,), (1,), (3,)], (3, 5)),
    (3, [(3,), (1,), (3,)], (3, 5)),
    (3, [(3,), (3,), (3,)], (3, 5)),
    (3, [(1,), (1, 1), (3,)], (3, 5)),
]


def suite_censuses():
    """Classifier verdicts against exact orbit counts at n = 2, 3, and the
    counts of shape (alpha)|(beta)|(n) against their b-counts."""
    checks = []
    results = {}
    for n, comps, qs in CENSUS_PLAN:
        counts, totals_ok = {}, True
        for q in qs:
            cen = census_space(n, q, [Composition(c) for c in comps],
                               group_generators(q, n))
            counts[q] = cen.orbit_count
            totals_ok &= cen.total == math.prod(
                flag_count(q, n, Composition(c)) for c in comps)
        results[(n, tuple(map(tuple, comps)))] = counts
        verdict = classify(n, comps).status
        label = "census n=%d %s" % (n, "|".join(map(str, comps)))
        # every space here carries an (n) factor, so it is of finite type:
        # its counts must not move with q, and its points are the closed form
        ok = verdict == FINITE and totals_ok and len(set(counts.values())) == 1
        checks.append((label, ok,
                       "counts %r, classifier %s" % (counts, verdict)))
        if [len(c) for c in comps] == [1, 1, 1] and comps[2] == (n,):
            # one G-orbit per valid (theta, b) of those dims (the paper)
            want = sum(len(enumerate_valid_b(t)) for t in enumerate_thetas(n)
                       if (t.alpha, t.beta) == (comps[0][0], comps[1][0]))
            checks.append((label + " b-count", set(counts.values()) == {want},
                           "counts %r, b-count %d" % (counts, want)))
    growth, _ = family_classes("O6_L32p", 3)
    growth5, _ = family_classes("O6_L32p", 5)
    checks.append(("infinite shapes realize growth (O6 (2)|(2)|(2))",
                   len(growth5) > len(growth),
                   "classes: q=3 %d, q=5 %d" % (len(growth), len(growth5))))
    out = _suite("censuses", checks)
    out["counts"] = {str(k): v for k, v in results.items()}
    return out


def _gl_parabolic_gens(q, blocks):
    """Block upper-triangular parabolic of GL_m over GF(q): E_ij(1) for
    block(i) <= block(j), and the primitive torus at each index."""
    block = [b for b, size in enumerate(blocks) for _ in range(size)]
    m, g = len(block), primitive_root(q)

    def elementary(i, j, x):
        return Mat(q, [[x if (a, b) == (i, j) else int(a == b)
                        for b in range(m)] for a in range(m)])

    return [elementary(i, j, 1) for i in range(m) for j in range(m)
            if i != j and block[i] <= block[j]] + \
        [elementary(i, i, g) for i in range(m)]


def _gl_orbit_count(q, comp, gens):
    """Orbits of <gens> < GL_m on the flags of type comp in F_q^m, m the
    size of the matrices, from the permutations ``flag_spaces`` returns."""
    chains, perms = flag_spaces(q, gens[0].nrows, [comp], None, gens)[comp]
    return len(orbits(perms, range(len(chains))))


def suite_cor87():
    """Appendix counting formula spot checks on full GL flags."""
    checks = []
    for q in (3, 5):
        cen = _gl_orbit_count(q, Composition([1, 1, 1]),
                              _gl_parabolic_gens(q, (2, 1)))
        checks.append(("parabolic (2,1) on full flags of F_%d^3" % q,
                       cen == 3, "%d orbits = 3!/2!" % cen))
    sp_counts = {q: _gl_orbit_count(q, Composition([1, 1, 1, 1]),
                                    sp_prime_generators(q, 2))
                 for q in (3, 5)}
    checks.append(("Sp'_4 orbit count on full flags is q-stable",
                   sp_counts[3] == sp_counts[5], repr(sp_counts)))
    # the order of the faithful action on the 80 nonzero vectors of F_3^4
    order = _chain_order(sp_prime_generators(3, 2))
    checks.append(("|Sp'_4(F_3)| generated exactly",
                   order == sp_order(3, 2),
                   "%d = %d" % (order, sp_order(3, 2))))
    return _suite("cor87", checks)


def suite_normalize():
    """normalize_pair postconditions on 120 random isotropic pairs."""
    rng = random.Random(9)
    bad = 0
    for _ in range(120):
        n = rng.choice([2, 3, 4])
        q = rng.choice([3, 5])
        up = random_isotropic(q, n, rng.randrange(n + 1), rng)
        um = random_isotropic(q, n, rng.randrange(n + 1), rng)
        try:
            normalize_pair(up, um, n)   # postconditions asserted inside
        except AssertionError:
            bad += 1
    return _suite("normalize", [("normalize_pair x120", bad == 0,
                                 "%d failures" % bad)])


SUITES = {
    "prop58": suite_prop58,
    "roundtrip": suite_roundtrip,
    "rv-generators": suite_rv_generators,
    "bruhat": suite_bruhat,
    "witnesses": suite_witnesses,
    "censuses": suite_censuses,
    "cor87": suite_cor87,
    "r-classes": suite_r_classes,
    "g-invariance": suite_ginvariance,
    "normalize": suite_normalize,
}
