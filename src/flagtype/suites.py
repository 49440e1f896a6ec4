"""Named verification suites: the machine-checkable content of the package.

Each suite returns {"ok": bool, "name": ..., "checks": [(label, ok, detail)]}.
The CLI command `flagtype verify --suite NAME` runs one of them and exits
0/1/3; the acceptance tests assert them directly.
"""

import math
import random

from .linalg import Mat, act_on_subspace, identity, mat_mul, meet
from .geometry import (group_generators, so_generators, parabolic_generators,
                       standard_isotropic, random_isotropic,
                       random_group_element, group_order, sp_order,
                       w_element, classify_element, IN_SO, IN_O_MINUS_SO,
                       primitive_root)
from .flags import (Composition, enumerate_chains, enumerate_chains_ambient,
                    flag_count)
from .invariants import BInvariants, b_invariants, verify_relations
from .canonical import (enumerate_thetas, enumerate_valid_b, standard_pair,
                        representative, IndexLayout, rv_generator,
                        sp_prime_generators, in_sp_prime, eliminate,
                        check_rv_membership, PLUS_BLOCKS, EXCLUDED_PAIRS,
                        COMPENSATED_PAIRS, block_precedes, normalize_pair)
from .engine import (action_points, census_direct, census_space, close_group,
                     index_spaces)
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


def suite_prop58(ns=(2, 3, 4), qs=(3, 5), trials=1000, seed=58):
    """Relation identities for random triples; b14 and b15 checks included."""
    checks = []
    rng = random.Random(seed)
    for n in ns:
        for q in qs:
            bad = 0
            for _ in range(trials):
                up, um, v = _rand_triple(rng, n, q)
                try:
                    b, t = b_invariants(up, um, v, n)  # asserts internally
                    if verify_relations(b, t):
                        bad += 1
                except AssertionError:
                    bad += 1
            checks.append(("prop58 n=%d q=%d x%d" % (n, q, trials), bad == 0,
                           "%d violations" % bad))
    return _suite("prop58", checks)


def suite_ginvariance(ns=(2, 3, 4), qs=(3, 5), trials=200, seed=17):
    checks = []
    rng = random.Random(seed)
    per = max(1, trials // (len(ns) * len(qs)))
    for n in ns:
        gens = {}
        for q in qs:
            gens[q] = group_generators(q, n)
            bad = 0
            for _ in range(per):
                up, um, v = _rand_triple(rng, n, q)
                b1, _ = b_invariants(up, um, v, n)
                g = random_group_element(q, n, rng, gens=gens[q])
                b2, _ = b_invariants(act_on_subspace(g, up),
                                     act_on_subspace(g, um),
                                     act_on_subspace(g, v), n)
                if b1 != b2:
                    bad += 1
            checks.append(("g-invariance n=%d q=%d x%d" % (n, q, per),
                           bad == 0, "%d violations" % bad))
    return _suite("g-invariance", checks)


def suite_roundtrip(n_max=4, q=3):
    """representative(b) is maximal isotropic and returns exactly b."""
    checks = []
    for n in range(1, n_max + 1):
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


def suite_rv_generators(q=5, seed=11):
    """Membership battery for every generator kind at the full-blocks layout."""
    rng = random.Random(seed)
    lay = full_blocks_layout()
    checks = []
    ok_h = True
    for j in range(1, 15):
        bj = lay.b[j]
        a = Mat(q, [[rng.randrange(1, q)]]) if bj == 1 else None
        try:
            rv_generator(lay, "h", q, j=j, A=a)
        except AssertionError:
            ok_h = False
    checks.append(("h_j blocks", ok_h, "j=1..14 with random scalars"))
    sp_gens = sp_prime_generators(q, lay.b[15] // 2)
    a = identity(q, lay.b[15])
    for _ in range(6):
        a = mat_mul(a, sp_gens[rng.randrange(len(sp_gens))])
    ok15 = in_sp_prime(a, lay.b[15] // 2)
    try:
        rv_generator(lay, "h15", q, A=a)
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
                        rv_generator(lay, "g", q, i=i, k=k,
                                     mu=rng.randrange(1, q))
                        count += 1
                    except AssertionError:
                        ok_g = False
    checks.append(("g_{i,k} across admissible block pairs", ok_g,
                   "%d elements" % count))
    ok_ex = True
    for bi, bk in sorted(EXCLUDED_PAIRS - set(COMPENSATED_PAIRS)):
        try:
            rv_generator(lay, "g", q, i=lay.plus[bi][0], k=lay.plus[bk][0],
                         mu=1)
            ok_ex = False
        except ValueError:
            pass
    checks.append(("inadmissible pairs rejected", ok_ex, ""))
    ok_e = True
    for trial in range(12):
        kind = rng.choice(["6b", "8b", "12b"])
        k = rng.choice(lay.plus[kind])
        allowed = {"6b": set(PLUS_BLOCKS) - {"6b"},
                   "8b": set(PLUS_BLOCKS) - {"8b", "6b"},
                   "12b": set(PLUS_BLOCKS) - {"12b", "8b", "6b"}}[kind]
        pool = [i for l in allowed for i in lay.plus[l]]
        support = {i: rng.randrange(1, q)
                   for i in rng.sample(pool, rng.randrange(1, 5))}
        try:
            g = eliminate(lay, k, support, q)
            check_rv_membership(lay, g, q)
        except AssertionError:
            ok_e = False
    checks.append(("elimination elements", ok_e, "12 random cases"))
    return _suite("rv-generators", checks)


def suite_bruhat(ns=(2, 3), qs=(3, 5)):
    """Cell counts against exhaustive enumeration; w_d parity; cross-checks."""
    checks = []
    for n in ns:
        for d in range(n + 1):
            w = w_element(3, n, d)
            want = IN_SO if d % 2 == 0 else IN_O_MINUS_SO
            checks.append(("w_%d parity n=%d" % (d, n),
                           classify_element(w, n) == want, ""))
        for q in qs:
            maxiso = enumerate_chains(q, n, Composition([n]))
            tuples = [(ch,) for ch in maxiso]
            cp = census_direct(tuples, parabolic_generators(q, n), n, q)
            cs = census_direct(tuples, so_generators(q, n), n, q)
            cg = census_direct(tuples, group_generators(q, n), n, q)
            checks.append(("P cells n=%d q=%d" % (n, q),
                           cp.orbit_count == n + 1,
                           "%d cells over %d spaces" % (cp.orbit_count,
                                                        len(maxiso))))
            checks.append(("SO orbits n=%d q=%d" % (n, q),
                           cs.orbit_count == 2, str(cs.orbit_count)))
            checks.append(("G transitive n=%d q=%d" % (n, q),
                           cg.orbit_count == 1, str(cg.orbit_count)))
            # M_(n) is enumerated as one G-orbit, so count it independently
            want = 1
            for i in range(n):
                want *= q ** i + 1
            checks.append(("|M_(n)| = prod(q^i + 1) n=%d q=%d" % (n, q),
                           len(maxiso) == want,
                           "%d spaces, formula %d" % (len(maxiso), want)))
            d_of = {}
            for ch in maxiso:
                d_of.setdefault(n - _dim_meet_u0(ch[0], n), 0)
                d_of[n - _dim_meet_u0(ch[0], n)] += 1
            checks.append(("cells indexed by d n=%d q=%d" % (n, q),
                           sorted(d_of) == list(range(n + 1)),
                           repr(sorted(d_of.items()))))
    return _suite("bruhat", checks)


def _dim_meet_u0(v, n):
    return meet(v, standard_isotropic(v.q, n, 0)).dim


def suite_r_classes(q=3):
    """Desk-scale completeness at n=2: R-orbits against b-tuples."""
    n = 2
    checks = []
    gens = group_generators(q, n)
    group = close_group(gens, group_order(q, n) + 8)
    checks.append(("|O_4(F_%d)| by materialization" % q,
                   len(group) == group_order(q, n),
                   "%d = %d" % (len(group), group_order(q, n))))
    maxiso = [ch[0] for ch in enumerate_chains(q, n, Composition([n]))]
    agree = True
    detail = []
    for t in enumerate_thetas(n):
        su, sm = standard_pair(t, q)
        r = [g for g in group if act_on_subspace(g, su) == su
             and act_on_subspace(g, sm) == sm]
        orbits = []
        rest = set(maxiso)
        while rest:
            v = min(rest, key=lambda s: s.rows)
            orb = {act_on_subspace(g, v) for g in r}
            orbits.append(orb)
            rest -= orb
        bvals = {}
        for v in maxiso:
            b, _ = b_invariants(su, sm, v, n)
            bvals.setdefault(b, set()).add(v)
        n_valid = len(enumerate_valid_b(t))
        same_partition = {frozenset(o) for o in orbits} == \
            {frozenset(s) for s in bvals.values()}
        orbit_stab_ok = all(len(o) * (len(r) // len(o)) == len(r) and
                            len(r) % len(o) == 0 for o in orbits)
        if not (len(orbits) == len(bvals) == n_valid and same_partition
                and orbit_stab_ok):
            agree = False
        detail.append("theta=%s: %d R-orbits, %d b-values, %d valid b" %
                      (t.tuple5(), len(orbits), len(bvals), n_valid))
    checks.append(("b-classes coincide with R-orbits (all thetas)", agree,
                   "; ".join(detail)))
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


def suite_witnesses(include_q5_squareclass=True):
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
    qs_sq = (3, 5) if include_q5_squareclass else (3,)
    for q in qs_sq:
        classes, _ = family_classes("O6_L322_sq", q)
        checks.append(("O6_L322_sq exactly 2 classes q=%d" % q,
                       len(classes) == 2, repr(classes)))
        nonsq = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) != 1)
        cert = equivariance_check("O6_L322_sq", nonsq, q - 1, q)
        checks.append(("O6_L322_sq equivariance certificate q=%d" % q,
                       bool(cert["ok"]), "lam=%d -> %s" % (nonsq,
                                                           cert.get("target"))))
    for q in (3, 5):
        certs_ok = True
        for lam in FAMILIES["O10_L323_sq"].lambda_domain(q, 5):
            for c in range(2, q):
                cert = equivariance_check("O10_L323_sq", lam, c, q)
                if not cert["ok"]:
                    certs_ok = False
        checks.append(("O10_L323_sq equivariance certificates q=%d" % q,
                       certs_ok, "separation Infeasible by design"))
    v, _ = separation_check("O8_L32_i", 1, 2, 3)
    checks.append(("O8 separation marked Infeasible", v == "Infeasible", v))
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
    (3, [(1,), (1, 1), (3,)], (3,)),   # q=5 exceeds the desk budget
]


def suite_censuses(plan=None):
    """Classifier verdicts against exact orbit counts at n = 2, 3."""
    checks = []
    results = {}
    for n, comps, qs in (plan or CENSUS_PLAN):
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
    growth, _ = family_classes("O6_L32p", 3)
    growth5, _ = family_classes("O6_L32p", 5)
    checks.append(("infinite shapes realize growth (O6 (2)|(2)|(2))",
                   len(growth5) > len(growth),
                   "classes: q=3 %d, q=5 %d" % (len(growth), len(growth5))))
    out = _suite("censuses", checks)
    out["counts"] = {str(k): v for k, v in results.items()}
    return out


def _gl_parabolic_gens(q, blocks):
    """Block upper-triangular parabolic of GL_m over GF(q)."""
    m = sum(blocks)
    gens = []
    starts = []
    s = 0
    for b in blocks:
        starts.append(s)
        s += b
    rows_upper = []
    for bi, b in enumerate(blocks):
        base = starts[bi]
        for i in range(b):
            for j in range(b):
                if i != j:
                    rows_upper.append((base + i, base + j))
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            for i in range(blocks[bi]):
                for j in range(blocks[bj]):
                    rows_upper.append((starts[bi] + i, starts[bj] + j))
    for (i, j) in rows_upper:
        mat = [[1 if a == b else 0 for b in range(m)] for a in range(m)]
        mat[i][j] = 1
        gens.append(Mat(q, mat))
    g = primitive_root(q)
    for i in range(m):
        mat = [[1 if a == b else 0 for b in range(m)] for a in range(m)]
        mat[i][i] = g
        gens.append(Mat(q, mat))
    return gens


def suite_cor87():
    """Appendix counting formula spot checks on full GL flags."""
    checks = []
    for q in (3, 5):
        flags_3 = enumerate_chains_ambient(q, 3, Composition([1, 1, 1]))
        tuples = [(ch,) for ch in flags_3]
        gens = _gl_parabolic_gens(q, (2, 1))
        cen = _census_linear(tuples, gens)
        checks.append(("parabolic (2,1) on full flags of F_%d^3" % q,
                       cen == 3, "%d orbits = 3!/2!" % cen))
    sp_counts = {}
    for q in (3, 5):
        gens = sp_prime_generators(q, 2)
        flags_4 = enumerate_chains_ambient(q, 4, Composition([1, 1, 1, 1]))
        tuples = [(ch,) for ch in flags_4]
        sp_counts[q] = _census_linear(tuples, gens)
    checks.append(("Sp'_4 orbit count on full flags is q-stable",
                   sp_counts[3] == sp_counts[5], repr(sp_counts)))
    # the order of the faithful action on the 80 nonzero vectors of F_3^4
    vectors, _, images = action_points(sp_prime_generators(3, 2), [])
    order = StabChain(images, len(vectors)).order()
    checks.append(("|Sp'_4(F_3)| generated exactly",
                   order == sp_order(3, 2),
                   "%d = %d" % (order, sp_order(3, 2))))
    return _suite("cor87", checks)


def _census_linear(tuples, gens):
    """Orbit count for a GL-type action (no bilinear form involved)."""
    _, _, images = index_spaces([[ch for (ch,) in tuples]], gens)
    return len(orbits(images, range(len(tuples))))


def suite_normalize(trials=120, seed=9):
    """normalize_pair postconditions on random isotropic pairs."""
    rng = random.Random(seed)
    bad = 0
    for _ in range(trials):
        n = rng.choice([2, 3, 4])
        q = rng.choice([3, 5])
        up = random_isotropic(q, n, rng.randrange(n + 1), rng)
        um = random_isotropic(q, n, rng.randrange(n + 1), rng)
        try:
            normalize_pair(up, um, n)   # postconditions asserted inside
        except AssertionError:
            bad += 1
    return _suite("normalize", [("normalize_pair x%d" % trials, bad == 0,
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
