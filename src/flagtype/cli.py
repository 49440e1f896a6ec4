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

from .linalg import canonicalize, check_field, check_prime, field_json
from .geometry import (group_generators, so_generators, parabolic_generators,
                       is_isotropic)
from .flags import Composition, Infeasible
from .invariants import b_invariants, theta, BInvariants
from .canonical import IndexLayout, normalize_pair
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
SQUARE_CLASSES = ("finite", "infinite", "unknown")


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
    """The isotropic span of a JSON list of integer rows (of dimension dim)."""
    try:
        rows = json.loads(text)
        if any(type(x) is not int for r in rows for x in r):
            raise ValueError("entries must be JSON integers")
        s = canonicalize(q, ambient, rows)
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
        check_prime(q)
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


def _check_out(path):
    """Refuse an --out path that cannot be written, before any work: a
    directory, a path below a file, or one in a directory (or under the
    nearest existing one) without write permission."""
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):  # _write_store makes the missing ones
        parent = os.path.dirname(parent)
    if os.path.isdir(path):
        why = "is a directory"
    elif not os.path.isdir(parent):
        why = "%s is not a directory" % parent
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        why = "permission denied"
    else:
        return
    raise UsageError("cannot write --out %s: %s" % (path, why))


def _write_store(args, payload):
    if getattr(args, "out", None):
        path = args.out
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
        except OSError as exc:
            raise UsageError("cannot write --out: %s" % exc)


def check_n(n):
    if n < 1:
        raise UsageError("--n must be at least 1, got %d" % n)


def _n_and_field(args):
    """--n and --q of a command that also runs over the rationals (q = 0)."""
    check_n(args.n)
    try:
        check_field(args.q)
    except ValueError:
        raise UsageError("--q must be 0 (the rationals) or an odd prime, "
                         "got %d" % args.q)
    return args.n, args.q


def parse_space(text, n):
    """The compositions of `text`, each checked to fit n."""
    comps = parse_triple(text)
    for c in comps:
        try:
            c.check(n)
        except ValueError as exc:
            raise UsageError(str(exc))
    return comps


def cmd_classify(args):
    check_n(args.n)
    if args.batch:
        # every line is parsed before any is classified, so a bad line
        # prints nothing
        jobs = []
        try:
            with open(args.batch, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    cells = line.split(";")
                    if len(cells) > 2:
                        raise UsageError("batch line %r has more than two "
                                         "';' cells" % line)
                    sq = cells[1].strip() if len(cells) > 1 \
                        else args.square_classes
                    if sq not in SQUARE_CLASSES:
                        raise UsageError("bad square classes %r in %r"
                                         % (sq, line))
                    jobs.append((cells[0], parse_space(cells[0], args.n), sq))
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError("batch file: %s" % exc)
        rows = []
        for text, comps, sq in jobs:
            verdict = classify(args.n, comps, sq)
            rows.append({"triple": [list(c.parts) for c in comps],
                         "square_classes": sq, **verdict.to_json()})
            print("%s;%s;%s" % (text, verdict.status,
                                " / ".join(verdict.trace)))
        _write_store(args, {"n": args.n, "rows": rows})
        return EXIT_OK
    if not args.triple:
        raise UsageError("--triple (or --batch) is required")
    comps = parse_space(args.triple, args.n)
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
    n, q = _n_and_field(args)
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
    n, q = _n_and_field(args)
    try:
        b = BInvariants([int(x) for x in args.b.split(",")])
        lay = IndexLayout(n, b)
    except ValueError as exc:
        raise UsageError("bad --b: %s" % exc)
    payload = {"layout": lay.audit()}
    if not args.layout_only:
        payload["representative"] = lay.representative(q).to_json()
    print(json.dumps(payload, indent=1))
    _write_store(args, payload)
    return EXIT_OK


def cmd_normalize(args):
    n, q = _n_and_field(args)
    up = parse_subspace(args.u_plus, q, 2 * n, n, "--u-plus")
    um = parse_subspace(args.u_minus, q, 2 * n, n, "--u-minus")
    g = normalize_pair(up, um, n)
    payload = {"g": [[field_json(q, x) for x in r] for r in g.rows],
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
    n = fam.n_min if args.n is None else args.n
    check_n(n)
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
            why = ("separated at n=%d only" % fam.n_min if fam.separable
                   else "construction-only family")
            payload = {"family": args.family, "q": q, "n": n,
                       "separation": "Infeasible (%s)" % why}
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
    check_n(n)
    check_finite_field(q)
    comps = parse_space(args.space, n)
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
    check_n(args.n)
    check_finite_field(args.q)
    gens = GENERATORS[args.group](args.q, args.n)
    payload = {"n": args.n, "q": args.q, "group": args.group,
               "generators": [[list(r) for r in g.rows] for g in gens]}
    print(json.dumps(payload))
    _write_store(args, payload)
    return EXIT_OK


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list(v, item):
    return isinstance(v, list) and all(map(item, v))


# the fields ``report`` prints from a classify store (marked by "verdict")
# and from a census store (marked by "orbit_count"), each with the test it
# must pass where present
STORE_FIELDS = {
    "verdict": {
        "verdict": lambda v: isinstance(v, str),
        "trace": lambda v: _is_list(v, lambda t: isinstance(t, str)),
        "triple": lambda v: _is_list(v, lambda c: _is_list(c, _is_int)),
        "n": _is_int},
    "orbit_count": {
        "orbit_count": _is_int,
        "descriptor": lambda v: isinstance(v, str),
        "q": _is_int,
        "total": _is_int},
}


def _read_store_file(path):
    """The JSON object of a store file, each of whose suites has checks
    rows [label, ok, detail], and whose classify or census fields pass the
    tests of ``STORE_FIELDS``; anything else is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError("store file %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise UsageError("store file %s holds no JSON object" % path)
    for mark, fields in STORE_FIELDS.items():
        if mark in data:
            for field, ok in fields.items():
                if field in data and not ok(data[field]):
                    raise UsageError("store file %s: field %r has the wrong "
                                     "type" % (path, field))
            return data
    for name, res in data.items():
        if isinstance(res, dict) and "checks" in res and not (
                isinstance(res["checks"], list)
                and all(isinstance(c, list) and len(c) == 3
                        for c in res["checks"])):
            raise UsageError("store file %s: suite %r has checks rows that "
                             "are not [label, ok, detail]" % (path, name))
    return data


def cmd_report(args):
    store = args.store
    if not os.path.isdir(store):
        raise UsageError("store directory %r not found" % store)
    files = [f for f in sorted(os.listdir(store)) if f.endswith(".json")]
    if not files:
        raise UsageError("store %r holds no JSON results" % store)
    stored = [(f, _read_store_file(os.path.join(store, f))) for f in files]
    print("# flagtype verification scoreboard\n")
    for f, data in stored:
        print("## %s\n" % f)
        if "family" in data and "lam" in data:
            print("* witness %s q=%s pair lam=%s mu=%s: **%s**\n" %
                  (data["family"], data.get("q"), data["lam"],
                   data.get("mu"), data.get("verdict")))
        elif "family" in data and "classes" in data:
            print("* witness %s q=%s: classes %s\n" %
                  (data["family"], data.get("q"), data["classes"]))
        elif "verdict" in data:
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
                   choices=SQUARE_CLASSES)
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
        if getattr(args, "out", None):
            _check_out(args.out)
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
