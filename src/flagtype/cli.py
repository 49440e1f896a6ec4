"""Command-line frontend: classify, invariants, canonical, normalize,
witness, census, verify, report.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 infeasible.
FLAGTYPE_BUDGET caps the orbit members of enumerations and orbit searches.
Every run that exceeds it raises ``Infeasible``, and ``main`` alone turns
that into exit 3 with one ``infeasible:`` line on stderr; ``verify`` first
writes its ``--out`` store with the suite marked infeasible.
"""

import argparse
import json
import os
import sys

from .linalg import canonicalize, check_field
from .geometry import (group_generators, so_generators, parabolic_generators,
                       is_isotropic)
from .flags import Composition, Infeasible
from .invariants import b_invariants, theta, BInvariants
from .canonical import IndexLayout, representative, normalize_pair
from .engine import census_space
from .witnesses import (FAMILIES, build, family_classes, equivariance_check,
                        separation_check)
from .classifier import classify
from .suites import SUITES

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

GENERATORS = {"G": group_generators, "SO": so_generators,
              "P": parabolic_generators}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors: exit 2 with one
    stderr line."""

    def error(self, message):
        raise UsageError(message)


def parse_composition(text):
    text = text.strip().strip("()")
    if not text:
        raise UsageError("empty composition")
    try:
        return Composition([int(x) for x in text.split(",")])
    except ValueError as exc:
        raise UsageError("bad composition %r: %s" % (text, exc))


def parse_triple(text):
    if not text.strip():
        raise UsageError("empty triple")
    parts = text.split("|")
    if not all(p.strip() for p in parts):
        raise UsageError("empty component in %r" % text)
    return [parse_composition(p) for p in parts]


def parse_subspace(text, q, ambient, n, name, dim=None):
    """The isotropic subspace spanned by a JSON row list (of dimension dim)."""
    try:
        s = canonicalize(q, ambient, json.loads(text))
    except (ValueError, TypeError) as exc:
        raise UsageError("bad basis for %s: %s" % (name, exc))
    if not is_isotropic(s, n):
        raise UsageError("%s is not isotropic" % name)
    if dim is not None and s.dim != dim:
        raise UsageError("%s must have dimension %d, got %d" % (name, dim,
                                                                  s.dim))
    return s


def check_finite_field(q):
    try:
        # q=0 selects the rationals, which have no finite spaces
        check_field(q or 1)
    except ValueError:
        raise UsageError("--q must be an odd prime, got %d" % q)


def _check_budget():
    text = os.environ.get("FLAGTYPE_BUDGET")
    if text is not None:
        try:
            int(text)
        except ValueError:
            raise UsageError("FLAGTYPE_BUDGET must be an integer, got %r"
                             % text)


def _write_store(args, payload):
    if getattr(args, "out", None):
        path = args.out
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)


def cmd_classify(args):
    if args.batch:
        rows = []
        try:
            with open(args.batch) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    cells = line.split(";")
                    comps = parse_triple(cells[0])
                    sq = cells[1].strip() if len(cells) > 1 \
                        else args.square_classes
                    verdict = classify(args.n, comps, sq)
                    rows.append({"triple": [list(c.parts) for c in comps],
                                 "square_classes": sq,
                                 **verdict.to_json()})
                    print("%s;%s;%s" % (cells[0], verdict.status,
                                        " / ".join(verdict.trace)))
        except OSError as exc:
            raise UsageError("batch file: %s" % exc)
        _write_store(args, {"n": args.n, "rows": rows})
        return EXIT_OK
    if not args.triple:
        raise UsageError("--triple (or --batch) is required")
    comps = parse_triple(args.triple)
    verdict = classify(args.n, comps, args.square_classes)
    payload = {"n": args.n, "triple": [list(c.parts) for c in comps],
               "square_classes": args.square_classes}
    payload.update(verdict.to_json())
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        print("%s  [%s]" % (verdict.status, "; ".join(verdict.trace)))
    _write_store(args, payload)
    return EXIT_OK


def cmd_invariants(args):
    n, q = args.n, args.q
    up = parse_subspace(args.u_plus, q, 2 * n, n, "--u-plus")
    um = parse_subspace(args.u_minus, q, 2 * n, n, "--u-minus")
    if args.v:
        v = parse_subspace(args.v, q, 2 * n, n, "--v", dim=n)
        b, t = b_invariants(up, um, v, n)
        payload = {"theta": t.tuple5(), "b": b.to_json()}
    else:
        t = theta(up, um, n)
        payload = {"theta": t.tuple5()}
    print(json.dumps(payload))
    _write_store(args, payload)
    return EXIT_OK


def cmd_canonical(args):
    n, q = args.n, args.q
    try:
        b = BInvariants([int(x) for x in args.b.split(",")])
        lay = IndexLayout(n, b)
    except ValueError as exc:
        raise UsageError("bad --b: %s" % exc)
    payload = {"layout": lay.audit()}
    if not args.layout_only:
        v = representative(b, n, q)
        payload["representative"] = v.to_json()
    print(json.dumps(payload, indent=1))
    _write_store(args, payload)
    return EXIT_OK


def cmd_normalize(args):
    n, q = args.n, args.q
    up = parse_subspace(args.u_plus, q, 2 * n, n, "--u-plus")
    um = parse_subspace(args.u_minus, q, 2 * n, n, "--u-minus")
    g = normalize_pair(up, um, n)
    payload = {"g": [list(r) for r in g.rows],
               "theta": theta(up, um, n).tuple5()}
    print(json.dumps(payload))
    _write_store(args, payload)
    return EXIT_OK


def _parse_lambdas(text, name, domain, count=None):
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError("bad %s: %s" % (name, exc))
    if count is not None and len(vals) != count:
        raise UsageError("%s needs %d comma-separated values, got %r"
                         % (name, count, text))
    bad = [v for v in vals if v not in domain]
    if bad:
        raise UsageError("%s values %r outside the parameter domain %r"
                         % (name, bad, domain))
    return vals


def cmd_witness(args):
    if args.list:
        for fid, fam in sorted(FAMILIES.items()):
            print("%-16s n_min=%d comps=%s domain=%s relation=%s" %
                  (fid, fam.n_min, "|".join(str(c.parts) for c in fam.comps),
                   fam.domain, fam.relation))
        return EXIT_OK
    if not args.family:
        raise UsageError("--family is required (or --list)")
    fam = FAMILIES.get(args.family)
    if fam is None:
        raise UsageError("unknown family %r" % args.family)
    q = args.q
    check_finite_field(q)
    n = args.n or fam.n_min
    if n < fam.n_min:
        raise UsageError("family %s needs n >= %d" % (args.family, fam.n_min))
    domain = fam.lambda_domain(q, n)
    lambdas = None
    if args.lambdas and args.lambdas != "all":
        lambdas = _parse_lambdas(args.lambdas, "--lambdas", domain)
    rows = []
    if fam.relation == "square-class":
        lambdas = domain
        for lam in lambdas:
            for c in range(2, q):
                cert = equivariance_check(args.family, lam, c, q, n)
                rows.append({"lam": lam, "c": c, "ok": cert["ok"],
                             "target": cert.get("target")})
        if fam.separable_at(n):
            classes, _ = family_classes(args.family, q, n, lambdas=lambdas)
            verdictish = "classes: %r" % (classes,)
        else:
            verdictish = "separation infeasible (by design)"
        payload = {"family": args.family, "q": q, "n": n,
                   "certificates": rows, "classes": verdictish}
    else:
        if not fam.separable_at(n):
            payload = {"family": args.family, "q": q, "n": n,
                       "separation": "Infeasible (construction-only family)"}
            build(args.family, n, domain[0], q)
            payload["validates"] = True
        elif args.pair:
            lam, mu = _parse_lambdas(args.pair, "--pair", domain, count=2)
            verdict, g = separation_check(args.family, lam, mu, q, n)
            payload = {"family": args.family, "q": q, "n": n,
                       "lam": lam, "mu": mu, "verdict": verdict,
                       "g": [list(r) for r in g.rows] if g is not None
                       else None}
        else:
            classes, _ = family_classes(args.family, q, n, lambdas=lambdas)
            table = []
            cls_of = {}
            for ci, cls in enumerate(classes):
                for lam in cls:
                    cls_of[lam] = ci
            lams = sorted(cls_of)
            for i, lam in enumerate(lams):
                for mu in lams[i + 1:]:
                    table.append({"lam": lam, "mu": mu,
                                  "verdict": "SameOrbit"
                                  if cls_of[lam] == cls_of[mu]
                                  else "DistinctOrbits"})
            payload = {"family": args.family, "q": q, "n": n,
                       "classes": classes, "pairs": table}
            if args.csv:
                print("lam,mu,verdict")
                for row in table:
                    print("%d,%d,%s" % (row["lam"], row["mu"],
                                        row["verdict"]))
                _write_store(args, payload)
                return EXIT_OK
    print(json.dumps(payload))
    _write_store(args, payload)
    return EXIT_OK


def cmd_census(args):
    n, q = args.n, args.q
    if n < 1:
        raise UsageError("--n must be at least 1, got %d" % n)
    check_finite_field(q)
    comps = parse_triple(args.space)
    for c in comps:
        try:
            c.check(n)
        except ValueError as exc:
            raise UsageError(str(exc))
    cen = census_space(n, q, comps, GENERATORS[args.group](q, n))
    payload = cen.to_json(n)
    if args.csv:
        print("descriptor,q,orbit_count,total,sizes")
        print("%s,%d,%d,%d,%s" % (cen.descriptor, q, cen.orbit_count,
                                  cen.total,
                                  ";".join(map(str, sorted(cen.orbit_sizes)))))
    else:
        print(json.dumps({k: payload[k] for k in
                          ("descriptor", "q", "orbit_count", "orbit_sizes",
                           "total")}))
    _write_store(args, payload)
    return EXIT_OK


def cmd_verify(args):
    names = args.suite.split(",") if args.suite else sorted(SUITES)
    summary = {}
    ok_all = True
    for name in names:
        fn = SUITES.get(name)
        if fn is None:
            raise UsageError("unknown suite %r (have: %s)" %
                             (name, ", ".join(sorted(SUITES))))
        try:
            res = fn()
        except Infeasible as exc:
            summary[name] = {"ok": False, "infeasible": str(exc)}
            _write_store(args, summary)
            raise Infeasible("suite %s: %s" % (name, exc)) from exc
        summary[name] = res
        for label, ok, detail in res["checks"]:
            print("[%s] %-55s %s" % ("PASS" if ok else "FAIL", label,
                                     detail if not ok or args.verbose else ""))
        ok_all = ok_all and res["ok"]
    _write_store(args, summary)
    return EXIT_OK if ok_all else EXIT_FAIL


def cmd_generators(args):
    gens = GENERATORS[args.group](args.q, args.n)
    payload = {"n": args.n, "q": args.q, "group": args.group,
               "generators": [[list(r) for r in g.rows] for g in gens]}
    print(json.dumps(payload))
    _write_store(args, payload)
    return EXIT_OK


def cmd_report(args):
    store = args.store
    if not os.path.isdir(store):
        raise UsageError("store directory %r not found" % store)
    files = [f for f in sorted(os.listdir(store)) if f.endswith(".json")]
    if not files:
        raise UsageError("store %r holds no JSON results" % store)
    print("# flagtype verification scoreboard\n")
    for f in files:
        with open(os.path.join(store, f)) as fh:
            data = json.load(fh)
        print("## %s\n" % f)
        if "verdict" in data:
            print("* triple %s at n=%s: **%s** (%s)\n" %
                  (data.get("triple"), data.get("n"), data["verdict"],
                   "; ".join(data.get("trace", []))))
        elif "orbit_count" in data:
            print("* census %s q=%s: %s orbits over %s tuples\n" %
                  (data.get("descriptor"), data.get("q"),
                   data.get("orbit_count"), data.get("total")))
        else:
            for name, res in data.items():
                if isinstance(res, dict) and "checks" in res:
                    good = sum(1 for c in res["checks"] if c[1])
                    print("* suite %s: %d/%d checks pass\n" %
                          (name, good, len(res["checks"])))
    return EXIT_OK


def make_parser():
    p = _Parser(
        prog="flagtype",
        description="exact orbit computations for isotropic multiple flag "
                    "varieties of split even orthogonal groups")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="finite-type verdict for a triple")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--triple", help='e.g. "(7)|(4)|(1,1,1,4)"')
    c.add_argument("--batch",
                   help="file of lines 'triple[;square_classes]'")
    c.add_argument("--square-classes", default="unknown",
                   choices=["finite", "infinite", "unknown"])
    c.add_argument("--json", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_classify)

    c = sub.add_parser("invariants", help="theta and b of a pair/triple")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--u-plus", required=True, help="JSON row list")
    c.add_argument("--u-minus", required=True)
    c.add_argument("--v")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_invariants)

    c = sub.add_parser("canonical",
                       help="index layout and representative V(b)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, default=3)
    c.add_argument("--b", required=True, help="b1,...,b15")
    c.add_argument("--layout-only", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_canonical)

    c = sub.add_parser("normalize", help="move a pair to standard position")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--u-plus", required=True)
    c.add_argument("--u-minus", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_normalize)

    c = sub.add_parser("witness", help="witness pencil tables")
    c.add_argument("--list", action="store_true")
    c.add_argument("--family")
    c.add_argument("--q", type=int, default=3)
    c.add_argument("--n", type=int)
    c.add_argument("--lambdas", default="all",
                   help="'all' or a comma list of parameter values")
    c.add_argument("--pair", help="'lam,mu': one separation with element")
    c.add_argument("--csv", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_witness)

    c = sub.add_parser("census", help="exact orbit census of a flag space")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--space", required=True, help='e.g. "(3)|(1)|(3)"')
    c.add_argument("--group", default="G", choices=list(GENERATORS))
    c.add_argument("--csv", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_census)

    c = sub.add_parser("verify", help="run a named verification suite")
    c.add_argument("--suite", help="comma list; default: all")
    c.add_argument("--verbose", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("generators",
                       help="export validated generator sets as JSON")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--group", default="G", choices=list(GENERATORS))
    c.add_argument("--out")
    c.set_defaults(fn=cmd_generators)

    c = sub.add_parser("report", help="aggregate stored JSON results")
    c.add_argument("--store", required=True)
    c.set_defaults(fn=cmd_report)
    return p


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        _check_budget()
        return args.fn(args)
    except SystemExit:
        # only --help exits the parser; its text is printed
        return EXIT_OK
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Infeasible as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
