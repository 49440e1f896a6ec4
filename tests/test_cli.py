import hashlib
import json
import os
from fractions import Fraction

import pytest

from flagtype.cli import main
from flagtype.canonical import standard_pair
from flagtype.geometry import classify_element, NOT_ORTHOGONAL
from flagtype.invariants import ThetaInvariants
from flagtype.linalg import Mat, act_on_subspace, canonicalize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--n", "7",
                       "--triple", "(7)|(4)|(1,1,1,4)")
    assert code == 0
    assert out.startswith("Finite")
    code, out, _ = run(capsys, "classify", "--n", "3", "--triple",
                       "(2)|(2)|(2)")
    assert code == 0 and out.startswith("Infinite")


def test_classify_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--n", "3", "--triple", "oops")
    assert code == 2 and "usage error" in err


def test_classify_json_and_store(tmp_path, capsys):
    out_path = os.path.join(tmp_path, "store", "v.json")
    code, out, _ = run(capsys, "classify", "--n", "6", "--triple",
                       "(6)|(4)|(2,2,2)", "--json", "--out", out_path)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Infinite"
    assert json.load(open(out_path))["verdict"] == "Infinite"


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--n", "3", "--q", "5",
                       "--u-plus",
                       "[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,1,0,0,0]]",
                       "--u-minus", "[[1,0,0,0,0,0],[0,0,0,1,0,0]]")
    assert code == 0
    assert json.loads(out)["theta"] == [1, 1, 0, 1, 0]


def test_canonical_command(capsys):
    code, out, _ = run(capsys, "canonical", "--n", "2", "--q", "3",
                       "--b", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,2")
    assert code == 0
    data = json.loads(out)
    assert data["representative"]["basis"] == [[1, 0, 1, 0], [0, 1, 0, 2]]
    assert data["layout"]["I"]["15"] == [1, 2]
    # the rationals stay a field here: q=0 is no usage error
    code, out, _ = run(capsys, "canonical", "--n", "2", "--q", "0",
                       "--b", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,2")
    assert code == 0 and json.loads(out)["representative"]["q"] == "rational"


def test_normalize_command(capsys):
    code, out, _ = run(capsys, "normalize", "--n", "2", "--q", "3",
                       "--u-plus", "[[1,0,0,0],[0,1,0,0]]",
                       "--u-minus", "[[0,0,1,0],[0,0,0,1]]")
    assert code == 0
    assert json.loads(out)["theta"] == [0, 0, 0, 2, 0]


def test_normalize_rational(capsys):
    """Over Q (--q 0) the entries of g print as Subspace.to_json prints
    them, and g carries the pair to the standard pair of its theta."""
    up, um = [[1, 2, 0, 0]], [[0, 0, 3, 1]]
    code, out, _ = run(capsys, "normalize", "--n", "2", "--q", "0",
                       "--u-plus", json.dumps(up), "--u-minus", json.dumps(um))
    assert code == 0
    data = json.loads(out)
    assert "1/7" in data["g"][0]
    g = Mat(0, [[Fraction(x) for x in r] for r in data["g"]])
    assert classify_element(g, 2) != NOT_ORTHOGONAL
    su, sm = standard_pair(ThetaInvariants(2, *data["theta"][:4]), 0)
    assert act_on_subspace(g, canonicalize(0, 4, up)) == su
    assert act_on_subspace(g, canonicalize(0, 4, um)) == sm


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--n", "2", "--q", "3",
                       "--space", "(2)", "--group", "P")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 3 and data["total"] == 8
    code, out, _ = run(capsys, "census", "--n", "2", "--q", "3",
                       "--space", "(2)", "--group", "P", "--csv")
    assert code == 0 and "orbit_count" in out.splitlines()[0]


@pytest.mark.parametrize("group,q,space,sha", [
    ("G", 3, "(1)|(1)|(3)", "879274077a799dfe0bec270fef34ccaad111dcc7"),
    ("P", 3, "(1)|(1)|(3)", "614c7fbaa0214cb6d18e5b760f2b2abff5a12379"),
    ("G", 5, "(1)|(1,1)|(3)", "e756d697dcdf2eff432be538428ce7bb6006bb85"),
])
def test_census_out_is_pinned_where_the_descent_drops_a_block(
        tmp_path, capsys, group, q, space, sha):
    """The ``census --out`` JSON of spaces past DIRECT_LIMIT whose first
    depth, the (3) block, is no block of a later depth; the G (1)|(1)|(3)
    pin is also in CI."""
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "census", "--group", group, "--n", "3",
                     "--q", str(q), "--space", space, "--out", str(out))
    assert code == 0
    assert hashlib.sha1(out.read_bytes()).hexdigest() == sha


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--list")
    assert code == 0 and "O6_L322_sq" in out
    code, out, _ = run(capsys, "witness", "--family", "O4_L31_0", "--q", "3")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 3
    code, _, err = run(capsys, "witness", "--family", "nope")
    assert code == 2


def test_witness_pair_connecting_element_is_pinned(capsys):
    """The connecting element of ``witness --pair``, also pinned in CI."""
    code, out, _ = run(capsys, "witness", "--family", "O6_L32p", "--q", "5",
                       "--n", "3", "--pair", "2,4")
    assert code == 0
    assert out == (
        '{"family": "O6_L32p", "q": 5, "n": 3, "lam": 2, "mu": 4, '
        '"verdict": "Yes", "g": [[0, 2, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], '
        '[0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1], '
        '[0, 0, 0, 0, 3, 0]]}\n')


def test_verify_and_report(tmp_path, capsys):
    store = os.path.join(tmp_path, "store", "roundtrip.json")
    code, out, _ = run(capsys, "verify", "--suite", "roundtrip",
                       "--out", store)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run(capsys, "report", "--store", os.path.dirname(store))
    assert code == 0 and "scoreboard" in out
    code, _, err = run(capsys, "report", "--store",
                       os.path.join(tmp_path, "empty"))
    assert code == 2


CENSUS_USAGE_ERRORS = [
    ({}, ["--n", "2", "--q", "4", "--space", "(1)|(2)"]),
    ({}, ["--n", "2", "--q", "0", "--space", "(1)|(2)"]),
    ({}, ["--n", "0", "--q", "3", "--space", "(1)|(2)"]),
    ({}, ["--n", "2", "--q", "3", "--space", "(3)|(2)"]),
    ({"FLAGTYPE_BUDGET": "abc"}, ["--n", "2", "--q", "3", "--space", "(2)"]),
    ({}, ["--n", "2", "--q", "3", "--space", "(1)||(1)"]),
]


E1 = "[[1,0,0,0,0,0]]"
E3 = "[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,1,0,0,0]]"

USAGE_ERRORS = [
    ["canonical", "--n", "2", "--q", "3", "--b", "1,2"],
    ["canonical", "--n", "2", "--q", "3", "--b", "x"],
    ["witness", "--family", "O4_L31_0", "--q", "0"],
    ["witness", "--family", "O4_L31_0", "--q", "5", "--pair", "1"],
    ["witness", "--family", "O4_L31_0", "--q", "5", "--pair", "1,9"],
    ["witness", "--family", "O6_L32p", "--q", "3", "--n", "2"],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", E1, "--u-minus", E1,
     "--v", "[[1,0,0,0,0,0],[0,0,0,0,0,1],[0,1,0,0,0,0]]"],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", E1, "--u-minus", E1,
     "--v", "[[1,0,0,0,0,0],[0,1,0,0,0,0]]"],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", "[[1,0,0]]",
     "--u-minus", E1, "--v", E3],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", E1,
     "--u-minus", "[[1,0,0,0,0,0],[0,0,0,0,0,1]]"],
    ["normalize", "--n", "3", "--q", "3", "--u-plus", "[1,0]",
     "--u-minus", E1],
    ["--jobs", "2", "classify", "--n", "4", "--triple", "(4)|(4)|(4)"],
    ["classify", "--n", "2", "--triple", "(3)|(1)|(1)"],
    ["classify", "--n", "2", "--triple", "(1)|(1,1)|(1,1,1)"],
    ["classify", "--n", "0", "--triple", "(1)|(1)|(1)"],
    ["classify", "--n", "-1", "--triple", "(1)|(1)|(1)"],
    ["generators", "--n", "2", "--q", "4"],
    ["generators", "--n", "2", "--q", "9"],
    ["generators", "--n", "2", "--q", "0"],
    ["generators", "--n", "0", "--q", "3"],
    ["canonical", "--n", "2", "--q", "4", "--b",
     "0,0,0,0,0,0,0,0,0,0,0,0,0,2,0"],
    ["canonical", "--n", "2", "--q", "9", "--b",
     "0,0,0,0,0,0,0,0,0,0,0,0,0,2,0"],
] + [[cmd, "--n", n, "--q", "3", *rest] for n in ("0", "-1")
     for cmd, *rest in (["invariants", "--u-plus", "[]", "--u-minus", "[]"],
                        ["normalize", "--u-plus", "[]", "--u-minus", "[]"],
                        ["canonical", "--b", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0"])]
USAGE_ERRORS += [["witness", "--family", "O4_L31_0", "--q", "3", "--n", n,
                  "--lambdas", "0,1"] for n in ("0", "-1")]
USAGE_ERRORS += [
    # JSON floats and booleans are not field elements
    ["normalize", "--n", "2", "--q", "0", "--u-plus", "[[0.1,1,0,0]]",
     "--u-minus", "[[0,0,1,0]]"],
    ["normalize", "--n", "2", "--q", "3", "--u-plus", "[[true,0,0,0]]",
     "--u-minus", "[[0,0,1,0]]"],
    ["invariants", "--n", "2", "--q", "0", "--u-plus", "[[1,0,0,0]]",
     "--u-minus", "[[0,0,1.0,0]]"],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", E1, "--u-minus", E1,
     "--v", "[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,false,1,0,0]]"],
    # --q is checked before the bases
    ["normalize", "--n", "2", "--q", "4", "--u-plus", "[[1,0,0,0]]",
     "--u-minus", "[[0,0,1,0]]"],
    ["invariants", "--n", "2", "--q", "9", "--u-plus", "[[1,0,0,0]]",
     "--u-minus", "[[0,0,1,0]]"],
]

# rows whose stderr line is pinned, not only its shape: the commands that
# also run over Q name q = 0 as legal
USAGE_MESSAGES = {}
for argv in (["canonical", "--n", "2", "--q", "4", "--b",
              "0,0,0,0,0,0,0,0,0,0,0,0,0,2,0"],
             ["invariants", "--n", "2", "--q", "9", "--u-plus", "[[1,0,0,0]]",
              "--u-minus", "[[0,0,1,0]]"],
             ["normalize", "--n", "2", "--q", "2", "--u-plus", "[[1,0,0,0]]",
              "--u-minus", "[[0,0,1,0]]"]):
    USAGE_ERRORS.append(argv)
    USAGE_MESSAGES[tuple(argv)] = (
        "usage error: --q must be 0 (the rationals) or an odd prime, got %s\n"
        % argv[4])

BATCH_USAGE_ERRORS = [
    ("2", "(3)|(1)|(1)\n"),
    ("2", "(1)|(1)|(2)\n(2)|(2)|(3)\n"),
    ("0", "(1)|(1)|(1)\n"),
    ("-1", "(1)|(1)|(1)\n"),
    ("2", "(1)|(1)|(2);sometimes\n"),
    ("3", "(1)|(1)|(1);finite;extra\n"),
]


def _assert_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert err == USAGE_MESSAGES.get(tuple(argv), err)


@pytest.mark.parametrize("env,argv", CENSUS_USAGE_ERRORS)
def test_census_usage_errors(capsys, monkeypatch, env, argv):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    _assert_usage_error(capsys, ["census"] + argv)


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors(capsys, argv):
    _assert_usage_error(capsys, argv)


def test_q_is_checked_before_the_bases(capsys):
    """A bad --q is named as such, not reported as a bad basis."""
    for cmd in ("invariants", "normalize"):
        code, _, err = run(capsys, cmd, "--n", "2", "--q", "4", "--u-plus",
                           "[[1,0,0,0]]", "--u-minus", "[[0,0,1,0]]")
        assert code == 2 and err.startswith("usage error: --q "), err


@pytest.mark.parametrize("n,lines", BATCH_USAGE_ERRORS)
def test_batch_usage_errors(tmp_path, capsys, n, lines):
    """A bad line of a batch file is a usage error before any verdict is
    printed."""
    batch = os.path.join(tmp_path, "triples.txt")
    with open(batch, "w") as fh:
        fh.write(lines)
    _assert_usage_error(capsys, ["classify", "--n", n, "--batch", batch])


def test_batch_not_utf8(tmp_path, capsys):
    batch = os.path.join(tmp_path, "triples.txt")
    with open(batch, "wb") as fh:
        fh.write(b"(1)|(1)|(2)\n\xff\xfe\n")
    _assert_usage_error(capsys, ["classify", "--n", "3", "--batch", batch])


BAD_STORE_FILES = [
    "{not json",
    "[1, 2]",
    '{"bruhat": {"ok": true, "checks": [["cells n=2", true]]}}',
    '{"verdict": "Finite", "trace": 5}',
    '{"verdict": 3}',
    '{"verdict": "Finite", "triple": [[1], "x"]}',
    '{"verdict": "Finite", "n": "3"}',
    '{"orbit_count": "many"}',
    '{"orbit_count": 4, "descriptor": ["n=2"]}',
    '{"orbit_count": 4, "total": null}',
    '{"orbit_count": 4, "q": true}',
]


@pytest.mark.parametrize("text", BAD_STORE_FILES)
def test_report_bad_store_file(tmp_path, capsys, text):
    """A store file that is not JSON, not a JSON object, or holds a suite
    whose checks rows are not [label, ok, detail] is a usage error before
    the scoreboard prints."""
    with open(os.path.join(tmp_path, "bad.json"), "w") as fh:
        fh.write(text)
    _assert_usage_error(capsys, ["report", "--store", str(tmp_path)])


OUT_COMMANDS = [
    ["classify", "--n", "4", "--triple", "(4)|(4)|(4)"],
    ["invariants", "--n", "3", "--q", "3", "--u-plus", E1, "--u-minus", E1],
    ["canonical", "--n", "2", "--q", "3", "--b",
     "2,0,0,0,0,0,0,0,0,0,0,0,0,0,0"],
    ["normalize", "--n", "3", "--q", "3", "--u-plus", E1, "--u-minus", E1],
    ["witness", "--family", "O4_L31_0", "--q", "3"],
    ["census", "--n", "2", "--q", "3", "--space", "(2)", "--group", "P"],
    ["verify", "--suite", "normalize"],
    ["generators", "--n", "1", "--q", "3"],
]


def test_report_reads_classify_census_and_witness_stores(tmp_path, capsys):
    """The stores the commands write pass the checks of ``report``, which
    prints one line for each: a witness pair or classes store as a witness
    line, not as a classify triple."""
    for name, argv in (
            ("classify", ["classify", "--n", "4", "--triple", "(4)|(4)|(4)"]),
            ("census", ["census", "--n", "2", "--q", "3", "--space", "(2)"]),
            ("pair", ["witness", "--family", "O4_L31_0", "--q", "5",
                      "--pair", "1,2"]),
            ("witness", ["witness", "--family", "O4_L31_0", "--q", "5"])):
        code, _, _ = run(capsys, *argv, "--out",
                         os.path.join(tmp_path, name + ".json"))
        assert code == 0
    code, out, _ = run(capsys, "report", "--store", str(tmp_path))
    assert code == 0
    assert "* triple [[4], [4], [4]] at n=4" in out
    assert "* census n=2 (2,) q=3: 1 orbits over 8 tuples" in out
    assert "* witness O4_L31_0 q=5 pair lam=1 mu=2: **No**" in out
    assert "* witness O4_L31_0 q=5: classes [[0], [1], [2], [3], [4]]" in out
    assert "* triple None" not in out


@pytest.mark.parametrize("argv", OUT_COMMANDS)
def test_out_not_writable(tmp_path, capsys, argv):
    """--out naming a directory, or a path below a file, is a usage error
    before the command runs: exit 2, one stderr line, no stdout."""
    blocker = os.path.join(tmp_path, "file")
    open(blocker, "w").close()
    for out in (str(tmp_path), os.path.join(blocker, "store.json")):
        code, stdout, err = run(capsys, *argv, "--out", out)
        assert code == 2 and stdout == ""
        assert err.startswith("usage error: cannot write --out")
        assert err.count("\n") == 1


def test_verify_out_checked_before_any_suite(tmp_path, capsys, monkeypatch):
    """An unwritable --out stops ``verify`` before its first suite runs."""
    from flagtype import cli
    monkeypatch.setitem(cli.SUITES, "normalize",
                        lambda: pytest.fail("a suite ran"))
    code, out, err = run(capsys, "verify", "--suite", "normalize,roundtrip",
                         "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot write --out")


def test_batch_classify(tmp_path, capsys):
    batch = os.path.join(tmp_path, "triples.txt")
    with open(batch, "w") as fh:
        fh.write("# comment\n(1)|(1)|(2)\n(2)|(2)|(2);infinite\n")
    code, out, _ = run(capsys, "classify", "--n", "3", "--batch", batch)
    assert code == 0
    lines = out.splitlines()
    assert [line.split(";")[:2] for line in lines] == \
        [["(1)|(1)|(2)", "Empirical"], ["(2)|(2)|(2)", "Infinite"]]


def _assert_infeasible(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("infeasible: ") and err.count("\n") == 1


def test_budget_overrun_is_infeasible(capsys, monkeypatch):
    monkeypatch.setenv("FLAGTYPE_BUDGET", "100")
    _assert_infeasible(capsys, ["census", "--n", "3", "--q", "5",
                                "--space", "(3)|(1)"])


@pytest.mark.parametrize("argv", [
    ["witness", "--family", "O6_L322_sq", "--q", "3"],
    ["witness", "--family", "O6_L32p", "--q", "5", "--pair", "2,4"],
])
def test_witness_budget_overrun_is_infeasible(capsys, monkeypatch, argv):
    monkeypatch.setenv("FLAGTYPE_BUDGET", "50")
    _assert_infeasible(capsys, argv)


def test_witness_separation_infeasible_by_design(capsys):
    code, out, _ = run(capsys, "witness", "--family", "O10_L323_sq",
                       "--q", "3")
    assert code == 0
    assert json.loads(out)["classes"] == "separation infeasible (by design)"


@pytest.mark.parametrize("family, n, label", [
    ("O6_L32p", "4", "Infeasible (separated at n=3 only)"),
    ("O8_L32_i", "4", "Infeasible (construction-only family)"),
])
def test_witness_unseparated_label(capsys, family, n, label):
    code, out, _ = run(capsys, "witness", "--family", family, "--q", "3",
                       "--n", n)
    assert code == 0
    data = json.loads(out)
    assert data["separation"] == label and data["validates"] is True


def test_verify_budget_overrun_writes_store(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLAGTYPE_BUDGET", "50")
    store = os.path.join(tmp_path, "bruhat.json")
    code, _, err = run(capsys, "verify", "--suite", "bruhat", "--out", store)
    assert code == 3
    assert err.startswith("infeasible: suite bruhat: ")
    assert err.count("\n") == 1
    data = json.load(open(store))
    assert data["bruhat"]["ok"] is False
    assert data["bruhat"]["infeasible"].startswith("orbit budget exceeded")
